//! The APSP driver as it was before the parallel, trace-free composition:
//! one instance after the other on the calling thread, every instance's
//! usage spread into a materialised [`EdgeUsageTrace`], the traces composed
//! by the round-by-round [`schedule_reference`] loop, the budget computed in
//! floating point. Kept, test-only, as the reference [`super::apsp`] must
//! stay bit-identical to — distances, instance statistics and the whole
//! [`congest_sim::scheduler::ScheduleOutcome`].

use congest_graph::{EdgeId, Graph};
use congest_sim::scheduler::{draw_delay, schedule_reference};
use congest_sim::EdgeUsageTrace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{run_instance, ApspConfig, ApspRun};
use crate::{AlgoConfig, AlgoError};

/// The pre-rework APSP driver: runs the instances sequentially on the calling
/// thread, materializes all `n` traces, and schedules them through the
/// round-by-round [`schedule_reference`] loop.
///
/// Produces an [`ApspRun`] identical to [`super::apsp`]'s on every input.
///
/// # Errors
///
/// Propagates any SSSP failure.
pub(super) fn apsp_reference(
    g: &Graph,
    config: &AlgoConfig,
    apsp_config: &ApspConfig,
) -> Result<ApspRun, AlgoError> {
    let n = g.node_count();
    let mut distances = Vec::with_capacity(n as usize);
    let mut traces = Vec::with_capacity(n as usize);
    let mut instance_rounds = Vec::with_capacity(n as usize);
    let mut max_instance_congestion = 0u64;
    let mut total_messages = 0u64;

    for s in g.nodes() {
        let run = run_instance(g, s, config)?;
        instance_rounds.push(run.rounds);
        max_instance_congestion = max_instance_congestion.max(run.max_congestion);
        total_messages += run.messages;
        traces.push(spread_trace(&run.edge_totals, run.rounds));
        distances.push(run.distances);
    }

    let budget = ((n.max(2) as f64).log2().ceil() as u32) + 1;
    let mut rng = ChaCha8Rng::seed_from_u64(apsp_config.seed);
    let delays: Vec<u64> = traces.iter().map(|_| draw_delay(&mut rng, u64::from(n))).collect();
    let schedule = schedule_reference(&traces, &delays, budget);
    let sequential_rounds = instance_rounds.iter().sum();

    Ok(ApspRun {
        distances,
        instance_rounds,
        max_instance_congestion,
        schedule,
        sequential_rounds,
        total_messages,
    })
}

/// Spreads each edge's total message count evenly over the instance's
/// duration, producing a per-round usage trace consistent with the measured
/// congestion and dilation.
///
/// The partition assigns message `k` of an edge's `total` to round
/// `⌊k·R/total⌋` over the instance's `R` rounds, with per-round counts
/// computed directly in `O(min(total, R))` per edge instead of pushing (and
/// then coalescing) one entry per message:
///
/// * `total ≤ R`: consecutive messages land `R/total ≥ 1` rounds apart, so
///   every occupied round carries exactly one message — emit the `total`
///   rounds `⌊k·R/total⌋` directly.
/// * `total > R`: every round is occupied and round `r` carries
///   `ceil((r+1)·total/R) - ceil(r·total/R)` messages — walk the `R` round
///   boundaries.
///
/// Only [`apsp_reference`] materialises traces; [`super::apsp`] hands the
/// totals to [`congest_sim::scheduler::schedule_spread`], which counts in
/// `u64`.
///
/// # Panics
///
/// Panics if an edge's per-round share `total / R` reaches `2³²`, the limit
/// of the trace's count type — one reason this copy is the oracle's only.
pub(super) fn spread_trace(edge_congestion: &[u64], rounds: u64) -> EdgeUsageTrace {
    let rounds = rounds.max(1) as usize;
    let mut per_round: Vec<Vec<(EdgeId, u32)>> = vec![Vec::new(); rounds];
    let r128 = rounds as u128;
    for (e, &total) in edge_congestion.iter().enumerate() {
        if total == 0 {
            continue;
        }
        let edge = EdgeId(e as u32);
        let t128 = total as u128;
        if t128 <= r128 {
            for k in 0..total {
                let r = ((k as u128 * r128) / t128) as usize;
                per_round[r].push((edge, 1));
            }
        } else {
            let mut lo = 0u128; // ceil(0 * t / R)
            for (r, bucket) in per_round.iter_mut().enumerate() {
                let hi = ((r as u128 + 1) * t128).div_ceil(r128);
                let count =
                    u32::try_from(hi - lo).expect("per-round share fits the trace count type");
                bucket.push((edge, count));
                lo = hi;
            }
        }
    }
    EdgeUsageTrace { rounds: per_round }
}
