//! All-Pairs Shortest Paths in `Õ(n)` rounds (Section 1.1 of the paper):
//! run one low-congestion SSSP instance per source, then schedule all `n`
//! instances concurrently with random start delays. Because every instance
//! sends only `poly(log n)` messages over each edge, the random-delay
//! schedule completes in `O(congestion + dilation · log n) = Õ(n)` rounds —
//! as opposed to the trivial sequential composition, which costs the sum of
//! the instances' running times (`Θ(n²)`-ish).
//!
//! Both constants of the composition are fixed, not configured: the per-round
//! per-edge message budget is `⌈log₂ n⌉ + 1` (the `O(log n)` factor of the
//! scheduling theorem), and the start delays are drawn from `0..n`.
//!
//! ## Simulation methodology
//!
//! Each SSSP instance is executed on its own (which preserves its
//! correctness) and produces per-edge message counts and a round count. The
//! instance's edge usage is spread evenly over its duration — message `k` of
//! an edge's `t` in round `⌊k·R/t⌋` — and the instances are superimposed by
//! the random-delay queueing scheduler of [`congest_sim::scheduler`]. The
//! reported makespan is the realized completion time under a per-round
//! per-edge message budget. See `docs/APSP.md`.
//!
//! ## Execution pipeline and cost
//!
//! `apsp` runs the `n` independent SSSP instances **in parallel across OS
//! threads** (`std::thread::scope`; instances are handed out one source at a
//! time from a shared atomic counter, so threads stay load-balanced). An
//! instance's usage trace is a pure function of its per-edge totals and its
//! round count, so none is ever built: each finished instance leaves its
//! distances, its round count and its per-edge totals (`n + m` words) in
//! slot `i` of the assembly, in whatever order the threads finish, and the
//! composition is one call of [`schedule_spread`], which generates the
//! spread arrivals edge by edge. The `n` delays are drawn up front in source
//! order. Distances, instance statistics, the delay stream, and hence the
//! entire `ApspRun` are therefore **bit-identical regardless of thread
//! count** — parallelism changes wall-clock time only. The composition costs
//! `O(messages)` time; peak memory beyond the `O(n²)` distance matrix is
//! `O(n · m + rounds)` — the per-edge totals plus the scheduler's one count
//! column, a word per round from the earliest delay to the horizon. (Earlier versions streamed materialised traces into
//! per-round arrival buckets and claimed `O(m + makespan)`; the buckets were
//! `O(total messages)`, two thirds of the peak heap at `n = 64`.)
//!
//! `apsp` is the one shipped driver, reached through the facade's
//! [`crate::Algorithm::Apsp`] and the oracle's exact fallback; this module
//! exports its configuration only. The pre-rework driver — sequential
//! instance loop, all traces materialized, round-by-round reference
//! scheduler — is kept test-only in `apsp/reference.rs`, as the oracle the
//! differential tests below hold `apsp` to.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;

use congest_graph::{Distance, Graph, NodeId};
use congest_sim::scheduler::{draw_delay, schedule_spread, ScheduleOutcome, SpreadInstance};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::cssp::cssp;
use crate::{AlgoConfig, AlgoError};

/// The result of an APSP computation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ApspRun {
    /// `distances[s][v]` is the exact distance from source `s` to node `v`.
    pub distances: Vec<Vec<Distance>>,
    /// Rounds of each individual SSSP instance.
    pub instance_rounds: Vec<u64>,
    /// Maximum per-edge congestion of any single instance.
    pub max_instance_congestion: u64,
    /// The scheduling outcome when all instances run concurrently with random
    /// delays (the paper's APSP): `schedule.makespan` is the APSP time.
    pub schedule: ScheduleOutcome,
    /// The cost of the trivial sequential composition (sum of instance
    /// rounds), for comparison.
    pub sequential_rounds: u64,
    /// Total messages over all instances.
    pub total_messages: u64,
}

/// Configuration of the APSP scheduling experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApspConfig {
    /// Seed for the random delays (the only randomness in the whole APSP
    /// algorithm, as the paper emphasizes).
    pub seed: u64,
    /// Number of OS threads to run SSSP instances on: `0` uses the host's
    /// available parallelism, `1` forces the in-thread sequential path. The
    /// result is bit-identical for every value — threads only change
    /// wall-clock time.
    pub threads: usize,
}

/// Everything one SSSP instance contributes to the APSP composition.
struct InstanceRun {
    distances: Vec<Distance>,
    /// Messages per edge (the instance's `Metrics::edge_congestion`, moved).
    edge_totals: Vec<u64>,
    rounds: u64,
    max_congestion: u64,
    messages: u64,
}

/// Runs the SSSP instance for one source and packages its contribution.
fn run_instance(g: &Graph, source: NodeId, config: &AlgoConfig) -> Result<InstanceRun, AlgoError> {
    let run = cssp(g, &[source], config)?;
    Ok(InstanceRun {
        rounds: run.metrics.rounds,
        max_congestion: run.metrics.max_congestion(),
        messages: run.metrics.messages,
        edge_totals: run.metrics.edge_congestion,
        distances: run.output.distances,
    })
}

/// Collects the instance results, in any order: instance `i` owns slot `i`
/// of every column, and the two scalars are a max and a sum, so the writes
/// commute. The delays are drawn up front, one PRNG draw per instance in
/// index order — the stream the test-only reference driver draws.
struct Assembly {
    /// The per-round per-edge message budget, [`budget`] of `n`.
    budget: u32,
    delays: Vec<u64>,
    distances: Vec<Vec<Distance>>,
    instance_rounds: Vec<u64>,
    edge_totals: Vec<Vec<u64>>,
    max_instance_congestion: u64,
    total_messages: u64,
}

impl Assembly {
    /// An empty assembly of `n` instances, with start delays drawn from
    /// `0..n`.
    fn new(n: u32, seed: u64) -> Assembly {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let slots = n as usize;
        Assembly {
            budget: budget(n),
            delays: (0..n).map(|_| draw_delay(&mut rng, u64::from(n))).collect(),
            distances: vec![Vec::new(); slots],
            instance_rounds: vec![0; slots],
            edge_totals: vec![Vec::new(); slots],
            max_instance_congestion: 0,
            total_messages: 0,
        }
    }

    fn consume(&mut self, index: usize, run: InstanceRun) {
        self.distances[index] = run.distances;
        self.instance_rounds[index] = run.rounds;
        self.edge_totals[index] = run.edge_totals;
        self.max_instance_congestion = self.max_instance_congestion.max(run.max_congestion);
        self.total_messages += run.messages;
    }

    /// Composes the collected instances under their delays.
    fn finish(self) -> Result<ApspRun, AlgoError> {
        let instances: Vec<SpreadInstance<'_>> = (0..self.delays.len())
            .map(|i| SpreadInstance {
                delay: self.delays[i],
                rounds: self.instance_rounds[i],
                edge_totals: &self.edge_totals[i],
            })
            .collect();
        let schedule = schedule_spread(&instances, self.budget)?;
        let sequential_rounds = self.instance_rounds.iter().sum();
        Ok(ApspRun {
            distances: self.distances,
            instance_rounds: self.instance_rounds,
            max_instance_congestion: self.max_instance_congestion,
            schedule,
            sequential_rounds,
            total_messages: self.total_messages,
        })
    }
}

/// Resolves the configured thread count against the host and the workload.
fn resolve_threads(requested: usize, instances: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        requested
    };
    threads.min(instances.max(1))
}

/// The per-round per-edge message budget for a graph of `n` nodes:
/// `⌈log₂ n⌉ + 1`.
fn budget(n: u32) -> u32 {
    u32::BITS - (n.max(2) - 1).leading_zeros() + 1
}

/// Computes APSP: one SSSP per source plus random-delay scheduling.
///
/// Instances run on `apsp_config.threads` OS threads (`0` = available
/// parallelism); the result is bit-identical for every thread count, see the
/// module docs.
///
/// # Errors
///
/// Propagates any SSSP failure (the first one in source order observed), and
/// reports as [`AlgoError::Simulation`] a schedule whose horizon — a start
/// delay plus an instance's rounds — does not fit `u64`, or whose rounds are
/// too many to hold one count each in memory (at a huge `epsilon_inverse`,
/// the instances run that long).
pub(crate) fn apsp(
    g: &Graph,
    config: &AlgoConfig,
    apsp_config: &ApspConfig,
) -> Result<ApspRun, AlgoError> {
    let n = g.node_count();
    let threads = resolve_threads(apsp_config.threads, n as usize);
    let mut assembly = Assembly::new(n, apsp_config.seed);

    assemble(n, threads, &mut assembly, |i| run_instance(g, NodeId(i), config))?;
    assembly.finish()
}

/// Runs instances `0..n` through `run` on `threads` OS threads and hands the
/// results to `assembly` as they arrive. With one thread everything happens
/// on the calling thread; otherwise workers self-schedule indices off an
/// atomic counter and send results over a channel. An `InstanceRun` is what
/// the [`ApspRun`] keeps of the instance anyway, so nothing needs bounding or
/// reordering.
fn assemble<F>(n: u32, threads: usize, assembly: &mut Assembly, run: F) -> Result<(), AlgoError>
where
    F: Fn(u32) -> Result<InstanceRun, AlgoError> + Sync,
{
    if threads <= 1 {
        for i in 0..n {
            assembly.consume(i as usize, run(i)?);
        }
        return Ok(());
    }

    /// Sets the abort flag if its thread unwinds, so a panic in one instance
    /// stops the other workers at their next index (the scope join then
    /// re-raises the panic) instead of letting them finish the whole batch.
    struct AbortOnUnwind<'a>(&'a AtomicBool);
    impl Drop for AbortOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // simlint::allow(relaxed-ordering: the abort flag is advisory; the panic reaches the caller through the scope join)
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }

    let next_index = AtomicU32::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(u32, Result<InstanceRun, AlgoError>)>();
    let mut first_error: Option<(u32, AlgoError)> = None;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next_index, abort, run) = (&next_index, &abort, &run);
            scope.spawn(move || {
                let _guard = AbortOnUnwind(abort);
                // simlint::allow(relaxed-ordering: the abort flag is advisory; results and errors travel over the channel)
                while !abort.load(Ordering::Relaxed) {
                    // simlint::allow(relaxed-ordering: handing out indices needs only atomicity; no other memory is ordered against the counter)
                    let i = next_index.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = run(i);
                    if result.is_err() {
                        // simlint::allow(relaxed-ordering: the abort flag is advisory; the error itself travels over the channel)
                        abort.store(true, Ordering::Relaxed);
                    }
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        for (index, result) in rx {
            match result {
                Ok(instance) => assembly.consume(index as usize, instance),
                Err(e) => match &first_error {
                    // Keep the error of the smallest failing index, matching
                    // what the sequential loop would have surfaced first:
                    // indices are handed out in order, so every index below
                    // a failing one is already running and reports too.
                    Some((seen, _)) if *seen <= index => {}
                    _ => first_error = Some((index, e)),
                },
            }
        }
    });
    match first_error {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{apsp_reference, spread_trace};
    use super::*;
    use congest_graph::{generators, sequential, EdgeId};

    #[test]
    fn apsp_distances_match_sequential_all_pairs() {
        let g = generators::with_random_weights(&generators::random_connected(16, 24, 2), 6, 2);
        let run = apsp(&g, &AlgoConfig::default(), &ApspConfig::default()).unwrap();
        let truth = sequential::all_pairs(&g);
        for s in g.nodes() {
            for v in g.nodes() {
                assert_eq!(run.distances[s.index()][v.index()], truth[s.index()][v.index()]);
            }
        }
    }

    #[test]
    fn concurrent_schedule_beats_sequential_composition() {
        let g = generators::random_connected(24, 60, 5);
        let run = apsp(&g, &AlgoConfig::default(), &ApspConfig::default()).unwrap();
        assert!(
            run.schedule.makespan < run.sequential_rounds,
            "concurrent makespan {} should beat sequential {}",
            run.schedule.makespan,
            run.sequential_rounds
        );
    }

    #[test]
    fn per_instance_congestion_is_small() {
        let g = generators::random_connected(24, 48, 1);
        let run = apsp(&g, &AlgoConfig::default(), &ApspConfig::default()).unwrap();
        // Every instance has polylog congestion; far below n.
        assert!(run.max_instance_congestion < g.node_count() as u64 * 4);
        assert!(run.total_messages > 0);
        assert_eq!(run.instance_rounds.len(), g.node_count() as usize);
    }

    #[test]
    fn schedule_is_reproducible_for_a_seed() {
        let g = generators::random_connected(12, 20, 9);
        let cfg = ApspConfig { seed: 7, ..ApspConfig::default() };
        let a = apsp(&g, &AlgoConfig::default(), &cfg).unwrap();
        let b = apsp(&g, &AlgoConfig::default(), &cfg).unwrap();
        assert_eq!(a.schedule.makespan, b.schedule.makespan);
        assert_eq!(a.schedule.delays, b.schedule.delays);
    }

    #[test]
    fn parallel_and_sequential_drivers_are_bit_identical() {
        let g = generators::with_random_weights(&generators::random_connected(18, 30, 4), 8, 11);
        let algo = AlgoConfig::default();
        let base = ApspConfig { seed: 13, ..ApspConfig::default() };
        let reference = apsp_reference(&g, &algo, &base).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let cfg = ApspConfig { threads, ..base.clone() };
            let run = apsp(&g, &algo, &cfg).unwrap();
            assert_eq!(run, reference, "driver diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_assembly_surfaces_instance_errors_and_stops() {
        // Instances past index 5 fail: the parallel assembler must abort,
        // drain cleanly, and surface the error instead of hanging.
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let run = |i: u32| -> Result<InstanceRun, AlgoError> {
            attempts.fetch_add(1, Ordering::Relaxed);
            if i >= 5 {
                return Err(AlgoError::EmptySourceSet);
            }
            Ok(InstanceRun {
                distances: Vec::new(),
                edge_totals: Vec::new(),
                rounds: 1,
                max_congestion: 0,
                messages: 0,
            })
        };
        let mut assembly = Assembly::new(64, 0);
        assert!(matches!(assemble(64, 3, &mut assembly, run), Err(AlgoError::EmptySourceSet)));
        // The abort flag keeps workers from grinding through all 64 indices.
        assert!(attempts.load(Ordering::Relaxed) < 64);
        // The sequential path surfaces the same error.
        let mut assembly = Assembly::new(64, 0);
        assert!(assemble(64, 1, &mut assembly, run).is_err());
    }

    #[test]
    #[should_panic] // scope re-raises with its own "a scoped thread panicked" payload
    fn parallel_assembly_propagates_instance_panics() {
        // A panicking instance must bring the whole call down (via the scope
        // join) rather than be swallowed by the channel.
        let run = |i: u32| -> Result<InstanceRun, AlgoError> {
            if i == 7 {
                panic!("instance 7 exploded");
            }
            Ok(InstanceRun {
                distances: Vec::new(),
                edge_totals: Vec::new(),
                rounds: 1,
                max_congestion: 0,
                messages: 0,
            })
        };
        let mut assembly = Assembly::new(64, 0);
        let _ = assemble(64, 3, &mut assembly, run);
    }

    #[test]
    fn resolve_threads_reports_the_resolved_count() {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        assert_eq!(resolve_threads(0, 1024), host.min(1024));
        assert_eq!(resolve_threads(3, 1024), 3);
        assert_eq!(resolve_threads(3, 2), 2, "capped by the instance count");
        assert_eq!(resolve_threads(3, 0), 1, "an empty graph still gets its calling thread");
    }

    #[test]
    fn any_completion_order_gives_the_sequential_run() {
        // Instance i lands in slot i with delay i of the stream, whichever
        // thread finishes first. Distinguishable instances (rounds, totals
        // and distances all depend on i) pin this.
        let run = |i: u32| -> Result<InstanceRun, AlgoError> {
            Ok(InstanceRun {
                distances: vec![Distance::Finite(i as u64)],
                edge_totals: vec![1 + i as u64 % 3, i as u64],
                rounds: 1 + i as u64,
                max_congestion: i as u64,
                messages: 1 + i as u64 % 3 + i as u64,
            })
        };
        let mut sequential = Assembly::new(40, 9);
        assemble(40, 1, &mut sequential, run).unwrap();
        let sequential = sequential.finish().unwrap();
        assert_eq!(sequential.max_instance_congestion, 39);
        assert_eq!(sequential.schedule.total_messages, sequential.total_messages);
        for threads in [2usize, 4, 7] {
            let mut parallel = Assembly::new(40, 9);
            assemble(40, threads, &mut parallel, run).unwrap();
            assert_eq!(parallel.finish().unwrap(), sequential, "{threads} threads");
        }
        // The orders threads happen to produce are near-sequential; force two
        // that are not: reversed, and a stride permutation.
        let orders: [Vec<u32>; 2] =
            [(0..40).rev().collect(), (0..40).map(|i| (i * 7 + 3) % 40).collect()];
        for order in orders {
            let mut shuffled = Assembly::new(40, 9);
            for i in order {
                shuffled.consume(i as usize, run(i).unwrap());
            }
            assert_eq!(shuffled.finish().unwrap(), sequential);
        }
    }

    #[test]
    fn a_horizon_past_u64_is_an_error_not_a_panic() {
        // Delays are drawn from 0..n, so only an instance of nearly
        // `u64::MAX` rounds reaches the end of the axis; force the case
        // directly.
        let mut assembly = Assembly::new(2, 0);
        assembly.delays = vec![0, u64::MAX - 1];
        for i in 0..2 {
            let run = InstanceRun {
                distances: Vec::new(),
                edge_totals: vec![1],
                rounds: 5,
                max_congestion: 1,
                messages: 1,
            };
            assembly.consume(i, run);
        }
        assert!(matches!(
            assembly.finish(),
            Err(AlgoError::Simulation(congest_sim::SimError::ScheduleHorizonOverflow { .. }))
        ));
    }

    #[test]
    fn composition_matches_the_reference() {
        // Budgets and delays other than the composition's own are checked
        // against the reference scheduler by the simulator's
        // `scheduler_equivalence` tests.
        for (n, extra, seed) in [(1u32, 0u64, 0u64), (2, 0, 3), (16, 24, 1), (24, 40, 2)] {
            let g = generators::with_random_weights(
                &generators::random_connected(n, extra, seed),
                9,
                seed,
            );
            let algo = AlgoConfig::default();
            for seed in [seed, seed + 17] {
                let cfg = ApspConfig { seed, threads: 1 };
                assert_eq!(
                    apsp(&g, &algo, &cfg).unwrap(),
                    apsp_reference(&g, &algo, &cfg).unwrap(),
                    "n {n}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn the_budget_is_one_more_than_the_ceiling_of_log2_n() {
        let cases = [(0, 2), (1, 2), (2, 2), (3, 3), (4, 3), (5, 4), (64, 7), (65, 8)];
        for (n, expected) in cases {
            assert_eq!(budget(n), expected, "n {n}");
        }
        assert_eq!(budget(u32::MAX), 33);
    }

    #[test]
    fn spread_trace_preserves_totals() {
        let trace = spread_trace(&[3, 0, 7], 5);
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.total_messages(), 10);
        let mut per_edge = [0u64; 3];
        for &(e, c) in trace.rounds.iter().flatten() {
            per_edge[e.index()] += u64::from(c);
        }
        assert_eq!(per_edge, [3, 0, 7]);
    }

    #[test]
    fn spread_trace_matches_the_per_message_partition() {
        // The direct per-round counts must equal assigning message k to round
        // floor(k * R / total) and coalescing — the pre-rework construction.
        for (total, rounds) in
            [(1u64, 1u64), (3, 5), (5, 3), (7, 7), (10, 4), (1, 9), (100, 13), (13, 100)]
        {
            let direct = spread_trace(&[total], rounds);
            let r = rounds.max(1) as usize;
            let mut naive = vec![0u32; r];
            for k in 0..total {
                let slot = ((k as u128 * r as u128) / total as u128) as usize;
                naive[slot.min(r - 1)] += 1;
            }
            let expected: Vec<Vec<(EdgeId, u32)>> = naive
                .into_iter()
                .map(|c| if c > 0 { vec![(EdgeId(0), c)] } else { Vec::new() })
                .collect();
            assert_eq!(
                direct.rounds, expected,
                "partition mismatch for total {total} over {rounds} rounds"
            );
            assert_eq!(direct.total_messages(), total);
        }
    }
}
