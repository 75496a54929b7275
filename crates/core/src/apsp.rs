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
//! `apsp` runs the `n` independent SSSP instances on `T` workers in one
//! `std::thread::scope`: worker `t` takes the sources `t, t + T, …` in
//! order and stops at its first error, and worker 0 is the calling thread,
//! so one thread spawns nothing and every instance runs in that thread's
//! warm engine buffers. A finished instance keeps its distances, its round
//! count and its per-edge totals (`n + m` words) and drops the rest of its
//! run. Its usage trace is a pure function of its totals and its round
//! count, so none is ever built: the composition is one call of
//! [`schedule_spread`], which generates the spread arrivals edge by edge
//! under delays drawn in source order. The split is fixed and the results
//! return in source order, so the whole `ApspRun` is **bit-identical for
//! every thread count** — threads change wall-clock time only. The
//! composition costs `O(messages)` time; peak memory beyond the `O(n²)`
//! distance matrix is `O(n · m + rounds)` — the per-edge totals plus the
//! scheduler's one count column, a word per round from the earliest delay to
//! the horizon.
//!
//! `apsp` is the one shipped driver, reached through the facade's
//! [`crate::Algorithm::Apsp`] and the oracle's exact fallback; this module
//! exports its configuration only. The pre-rework driver — sequential
//! instance loop, all traces materialized, round-by-round reference
//! scheduler — is kept test-only in `apsp/reference.rs`, as the oracle the
//! differential tests below hold `apsp` to.

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
    /// Maximum per-edge congestion of any single instance.
    pub max_instance_congestion: u64,
    /// The per-round per-edge message budget the schedule ran under.
    pub budget: u32,
    /// The scheduling outcome when all instances run concurrently with random
    /// delays (the paper's APSP): `schedule.makespan` is the APSP time,
    /// `schedule.total_messages` the instances' messages and
    /// `schedule.sequential_rounds` the sum of their rounds, the cost of the
    /// trivial sequential composition.
    pub schedule: ScheduleOutcome,
}

/// Configuration of the APSP scheduling experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApspConfig {
    /// Seed for the random delays (the only randomness in the whole APSP
    /// algorithm, as the paper emphasizes).
    pub seed: u64,
    /// Number of OS threads to run SSSP instances on, the calling thread
    /// among them: `0` uses the host's available parallelism, `1` spawns
    /// none. The result is bit-identical for every value — threads only
    /// change wall-clock time.
    pub threads: usize,
}

/// What one SSSP instance contributes to the APSP composition; the rest of
/// its run is dropped as soon as it finishes.
struct InstanceRun {
    distances: Vec<Distance>,
    /// Messages per edge (the instance's `Metrics::edge_congestion`, moved).
    edge_totals: Vec<u64>,
    rounds: u64,
}

/// Runs the SSSP instance for one source and keeps its contribution.
fn run_instance(g: &Graph, source: NodeId, config: &AlgoConfig) -> Result<InstanceRun, AlgoError> {
    let run = cssp(g, &[source], config)?;
    Ok(InstanceRun {
        distances: run.output.distances,
        edge_totals: run.metrics.edge_congestion,
        rounds: run.metrics.rounds,
    })
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
/// Propagates the SSSP failure of the smallest failing source, and reports
/// as [`AlgoError::Simulation`] a schedule whose horizon — a start delay
/// plus an instance's rounds — does not fit `u64`, or whose rounds are too
/// many to hold one count each in memory (at a huge `epsilon_inverse`, the
/// instances run that long).
pub(crate) fn apsp(
    g: &Graph,
    config: &AlgoConfig,
    apsp_config: &ApspConfig,
) -> Result<ApspRun, AlgoError> {
    let n = g.node_count();
    let threads = resolve_threads(apsp_config.threads, n as usize);
    let runs = fan_out(n, threads, |i| run_instance(g, NodeId(i), config))?;
    let mut rng = ChaCha8Rng::seed_from_u64(apsp_config.seed);
    let delays = (0..n).map(|_| draw_delay(&mut rng, u64::from(n)));
    compose(runs, delays, budget(n))
}

/// Composes the instances, in source order, under their start delays.
fn compose(
    runs: Vec<InstanceRun>,
    delays: impl IntoIterator<Item = u64>,
    budget: u32,
) -> Result<ApspRun, AlgoError> {
    let instances: Vec<SpreadInstance<'_>> = runs
        .iter()
        .zip(delays)
        .map(|(run, delay)| SpreadInstance {
            delay,
            rounds: run.rounds,
            edge_totals: &run.edge_totals,
        })
        .collect();
    let schedule = schedule_spread(&instances, budget)?;
    let max_instance_congestion =
        runs.iter().flat_map(|run| run.edge_totals.iter().copied()).max().unwrap_or(0);
    let distances = runs.into_iter().map(|run| run.distances).collect();
    Ok(ApspRun { distances, max_instance_congestion, budget, schedule })
}

/// Runs `run` on the indices `0..n` over `threads` workers and returns the
/// results in index order. Worker `t` takes `t, t + threads, …` in order and
/// stops at its first error; worker 0 is the calling thread, so one thread
/// spawns nothing. The error of the smallest failing index wins: the worker
/// that owns it met no error before it, and every other worker's first error
/// is larger. A panic reaches the caller through the join.
fn fan_out<T, F>(n: u32, threads: usize, run: F) -> Result<Vec<T>, AlgoError>
where
    T: Send,
    F: Fn(u32) -> Result<T, AlgoError> + Sync,
{
    let worker = |t: usize| -> Result<Vec<T>, (u32, AlgoError)> {
        (t as u32..n).step_by(threads).map(|i| run(i).map_err(|e| (i, e))).collect()
    };
    let lanes: Vec<_> = std::thread::scope(|scope| {
        let worker = &worker;
        let spawned: Vec<_> = (1..threads).map(|t| scope.spawn(move || worker(t))).collect();
        let first = worker(0);
        let joined = spawned
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        std::iter::once(first).chain(joined).collect()
    });
    let (lanes, failures): (Vec<_>, Vec<_>) = lanes.into_iter().partition(Result::is_ok);
    if let Some((_, e)) = failures.into_iter().filter_map(Result::err).min_by_key(|&(i, _)| i) {
        return Err(e);
    }
    let mut lanes: Vec<_> = lanes.into_iter().flatten().map(Vec::into_iter).collect();
    Ok((0..n as usize)
        .map(|i| lanes[i % threads].next().expect("lane `i % threads` holds index i"))
        .collect())
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
            run.schedule.makespan < run.schedule.sequential_rounds,
            "concurrent makespan {} should beat sequential {}",
            run.schedule.makespan,
            run.schedule.sequential_rounds
        );
    }

    #[test]
    fn per_instance_congestion_is_small() {
        let g = generators::random_connected(24, 48, 1);
        let run = apsp(&g, &AlgoConfig::default(), &ApspConfig::default()).unwrap();
        // Every instance has polylog congestion; far below n.
        assert!(run.max_instance_congestion < g.node_count() as u64 * 4);
        assert!(run.schedule.total_messages > 0);
        assert_eq!(run.schedule.delays.len(), g.node_count() as usize);
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
    fn fan_out_reports_the_smallest_failing_index_and_stops() {
        // Odd indices from 5 on fail, each with its own error: whatever the
        // split, the smallest failing index is the one reported, and no
        // worker runs past its first failure.
        use std::sync::atomic::{AtomicU32, Ordering};
        for threads in [1usize, 2, 3, 7] {
            let attempts = AtomicU32::new(0);
            let run = |i: u32| -> Result<u32, AlgoError> {
                attempts.fetch_add(1, Ordering::Relaxed);
                if i >= 5 && i % 2 == 1 {
                    return Err(AlgoError::SourceOutOfRange { node: NodeId(i) });
                }
                Ok(i)
            };
            assert_eq!(
                fan_out(64, threads, run),
                Err(AlgoError::SourceOutOfRange { node: NodeId(5) }),
                "{threads} threads"
            );
            assert!(attempts.load(Ordering::Relaxed) < 64, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "instance 7 exploded")]
    fn fan_out_propagates_instance_panics() {
        // A panicking instance brings the whole call down, with its own
        // payload, instead of being swallowed by the join.
        let run = |i: u32| -> Result<u32, AlgoError> {
            if i == 7 {
                panic!("instance 7 exploded");
            }
            Ok(i)
        };
        let _ = fan_out(64, 3, run);
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
    fn fan_out_returns_results_in_index_order() {
        let run = |i: u32| -> Result<u64, AlgoError> { Ok(u64::from(i) * 3 + 1) };
        let expected: Vec<u64> = (0..40).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 4, 7, 40] {
            assert_eq!(fan_out(40, threads, run).unwrap(), expected, "{threads} threads");
        }
        assert_eq!(fan_out(0, 1, run).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn the_schedule_totals_are_the_instances_sums() {
        // `ApspRun` keeps no message or round sums of its own: the
        // schedule's are the instances' `Metrics` sums, because every
        // instance runs at least one round (`rounds.max(1)` changes nothing)
        // and charges each message to an edge.
        let random =
            generators::with_random_weights(&generators::random_connected(14, 20, 3), 7, 5);
        let zero =
            generators::with_random_weights_zero(&generators::random_connected(12, 16, 8), 4, 2);
        assert!(zero.edges().iter().any(|e| e.w == 0), "the zero-weight case has a zero weight");
        let copies = generators::disjoint_copies(&generators::path(5, 2), 3);
        let single = generators::path(1, 1);
        for (name, g) in [("random", random), ("zero", zero), ("copies", copies), ("n = 1", single)]
        {
            let runs: Vec<_> =
                g.nodes().map(|s| cssp(&g, &[s], &AlgoConfig::default()).unwrap()).collect();
            let instances: Vec<SpreadInstance<'_>> = runs
                .iter()
                .enumerate()
                .map(|(i, run)| SpreadInstance {
                    delay: i as u64 % 3,
                    rounds: run.metrics.rounds,
                    edge_totals: &run.metrics.edge_congestion,
                })
                .collect();
            let schedule = schedule_spread(&instances, budget(g.node_count())).unwrap();
            let messages: u64 = runs.iter().map(|run| run.metrics.messages).sum();
            let rounds: u64 = runs.iter().map(|run| run.metrics.rounds).sum();
            assert!(runs.iter().all(|run| run.metrics.rounds >= 1), "{name}");
            assert_eq!(schedule.total_messages, messages, "{name}");
            assert_eq!(schedule.sequential_rounds, rounds, "{name}");
        }
    }

    #[test]
    fn a_horizon_past_u64_is_an_error_not_a_panic() {
        // Delays are drawn from 0..n, so only an instance of nearly
        // `u64::MAX` rounds reaches the end of the axis; force the case
        // directly.
        let runs = (0..2)
            .map(|_| InstanceRun { distances: Vec::new(), edge_totals: vec![1], rounds: 5 })
            .collect();
        assert!(matches!(
            compose(runs, [0, u64::MAX - 1], 2),
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
