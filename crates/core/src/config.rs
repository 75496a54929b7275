//! The configuration of the algorithms: the cutter's approximation
//! parameter and the simulator model.
//!
//! The polylogarithmic constants the paper leaves implicit are not options:
//! each is a private constant beside its use — the low-energy BFS slowdown
//! and the cover-construction charge in `energy/mod.rs`, the APSP edge
//! budget and delay range in `apsp.rs`. `EXPERIMENTS.md` lists them with
//! their values.

use serde::{Deserialize, Serialize};

use congest_sim::SimConfig;

/// Configuration for the low-congestion CSSP/SSSP/APSP algorithms of
/// Section 2 of the paper and for the low-energy algorithms of Section 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoConfig {
    /// The approximation parameter `ε ∈ (0, 1)` of the cutter (Lemma 2.1).
    /// The paper fixes `ε = 0.5` in the recursion (Section 2.3, step 3).
    pub epsilon_inverse: u64,
    /// Simulator model configuration used for the protocol phases.
    pub sim: SimConfig,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        AlgoConfig { epsilon_inverse: 2, sim: SimConfig::default() }
    }
}

impl AlgoConfig {
    /// The approximation parameter as a float (`1 / epsilon_inverse`).
    pub fn epsilon(&self) -> f64 {
        1.0 / self.epsilon_inverse as f64
    }

    /// Installs a fault plan on the underlying simulator (see
    /// [`congest_sim::FaultPlan`] and `docs/FAULT_MODEL.md`). The default is
    /// [`congest_sim::FaultPlan::none`], which leaves every run bit-identical
    /// to the fault-free simulator.
    pub fn with_faults(mut self, faults: congest_sim::FaultPlan) -> Self {
        self.sim.faults = faults;
        self
    }

    /// Ignored: every simulated run steps its nodes on the calling thread.
    /// Kept only for the perf ledger (`benchmark/`), its one caller.
    #[deprecated(note = "ignored: the engine has one driver, on the calling thread")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the cutter approximation parameter to `1 / inverse`.
    ///
    /// # Panics
    ///
    /// Panics if `inverse == 0`.
    pub fn with_epsilon_inverse(mut self, inverse: u64) -> Self {
        assert!(inverse > 0, "epsilon_inverse must be positive");
        self.epsilon_inverse = inverse;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_epsilon_is_half() {
        let c = AlgoConfig::default();
        assert_eq!(c.epsilon(), 0.5);
    }

    #[test]
    fn epsilon_inverse_builder() {
        let c = AlgoConfig::default().with_epsilon_inverse(4);
        assert_eq!(c.epsilon(), 0.25);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_epsilon_inverse_rejected() {
        let _ = AlgoConfig::default().with_epsilon_inverse(0);
    }

    #[test]
    #[allow(deprecated)]
    fn the_thread_shims_change_nothing() {
        assert_eq!(AlgoConfig::default().with_threads(4), AlgoConfig::default());
        assert_eq!(SimConfig::default().with_threads(2), SimConfig::default());
    }

    #[test]
    fn with_faults_installs_the_plan_on_the_simulator() {
        use congest_sim::FaultPlan;
        let c = AlgoConfig::default();
        assert!(c.sim.faults.is_none());
        let plan = FaultPlan::none().with_seed(9).with_drop_ppm(1000);
        let c = c.with_faults(plan.clone());
        assert_eq!(c.sim.faults, plan);
    }
}
