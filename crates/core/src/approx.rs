//! The approximate cutter of Lemma 2.1: additive-error distance estimates via
//! Nanongkai's weight-rounding trick plus one waiting BFS.
//!
//! Given a threshold `W` and `ε = 1/epsilon_inverse`, the cutter rescales
//! every weight to `w' = ⌈w · ε⁻¹ · n / W⌉`, runs a waiting BFS on the
//! rescaled weights for `O(n/ε)` rounds, and converts the rescaled distances
//! back. The output `dist'` satisfies (Lemma 2.1, with integer-rounding slack
//! made explicit):
//!
//! * if `dist'(S, v) ≠ ∞` then `dist(S, v) ≤ dist'(S, v) ≤ dist(S, v) + err`
//!   where `err =` [`CutterOutcome::error_bound`] `= ⌈W/ε⁻¹⌉ + 2 ≈ εW`,
//! * if `dist'(S, v) = ∞` then `dist(S, v) > 2W`.
//!
//! The run takes `O(ε⁻¹ · n)` rounds and sends `O(1)` messages per edge.

use congest_graph::{Distance, Graph, Weight};
use congest_sim::Metrics;

use crate::error::check_sources;
use crate::result::SourceOffset;
use crate::weighted_bfs::waiting_bfs;
use crate::{AlgoConfig, AlgoError};

/// The result of one cutter invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CutterOutcome {
    /// Per-node distance estimates (infinite means `dist > 2W`).
    pub estimates: Vec<Distance>,
    /// The additive error bound of the finite estimates.
    pub error_bound: u64,
    /// Complexity measurements of the underlying waiting BFS.
    pub metrics: Metrics,
}

impl CutterOutcome {
    /// The threshold below which a node is included in `V₁` when cutting at
    /// distance `cut`: estimates `≤ cut + error_bound` (every node with true
    /// distance `≤ cut` qualifies).
    pub fn inclusion_threshold(&self, cut: u64) -> Distance {
        Distance::Finite(cut.saturating_add(self.error_bound))
    }
}

/// Runs the approximate cutter on `g` from `sources` with threshold `w_max`
/// (the `W` of Lemma 2.1). Edge weights must be positive.
///
/// # Errors
///
/// Returns an error for an empty or out-of-range source set, a zero `w_max`,
/// an `epsilon_inverse` whose round limit does not fit, a zero weight, or a
/// simulation failure.
pub fn approximate_cssp(
    g: &Graph,
    sources: &[SourceOffset],
    w_max: u64,
    config: &AlgoConfig,
) -> Result<CutterOutcome, AlgoError> {
    check_sources(g, sources.iter().map(|s| s.node))?;
    approximate_cssp_validated(g, sources.to_vec(), w_max, config)
}

/// [`approximate_cssp`] on a checked source list the caller built for this
/// call and hands over to be rescaled in place.
pub(crate) fn approximate_cssp_validated(
    g: &Graph,
    mut sources: Vec<SourceOffset>,
    w_max: u64,
    config: &AlgoConfig,
) -> Result<CutterOutcome, AlgoError> {
    if w_max == 0 {
        return Err(AlgoError::UnsupportedRequest {
            algorithm: "approx-cutter",
            reason: "a zero threshold",
        });
    }
    let n = g.node_count().max(2) as u128;
    let inv = config.epsilon_inverse.max(1) as u128;
    // Nodes with true (offset) distance <= 2W have scaled distance at most
    // 2*inv*n + n + 1 (one +1 per path edge plus one for the offset), so this
    // round limit retains all of them. A quarter of the `u64` range keeps
    // every sum the waiting BFS forms below `u64::MAX`.
    let limit = (2 * inv + 1) * n + 2;
    if limit > u128::from(u64::MAX / 4) {
        return Err(AlgoError::UnsupportedRequest {
            algorithm: "approx-cutter",
            reason: "an epsilon_inverse whose round limit exceeds u64::MAX / 4",
        });
    }
    let limit = limit as u64;
    // scaled = ceil(value * inv * n / w_max), clamped to `limit + 1`: exact,
    // as a weight or offset beyond the limit is never crossed within it.
    let scale = |value: Weight| -> Weight {
        let scaled = (value as u128 * inv * n).div_ceil(w_max as u128);
        scaled.min(u128::from(limit) + 1) as u64
    };
    let unscale = |scaled: Weight| -> Weight {
        // ceil(scaled * w_max / (inv * n)), saturated: `limit / (inv * n)`
        // is at most 4, so it passes `u64::MAX` only for a `w_max` above a
        // quarter of it.
        u64::try_from((scaled as u128 * w_max as u128).div_ceil(inv * n)).unwrap_or(u64::MAX)
    };
    let weights: Vec<Weight> = g.edges().iter().map(|e| scale(e.w)).collect();
    for source in &mut sources {
        source.offset = scale(source.offset);
    }
    let run = waiting_bfs(g, &sources, &weights, limit, config)?;
    let mut estimates = run.output.distances;
    for estimate in &mut estimates {
        if let Distance::Finite(scaled) = estimate {
            *scaled = unscale(*scaled);
        }
    }
    let error_bound = w_max.div_ceil(inv as u64).saturating_add(2);
    Ok(CutterOutcome { estimates, error_bound, metrics: run.metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential, NodeId};

    /// Checks the two Lemma 2.1 guarantees against sequential ground truth.
    fn check_cutter(g: &Graph, sources: &[NodeId], w_max: u64, cfg: &AlgoConfig) -> CutterOutcome {
        let offsets: Vec<SourceOffset> = sources.iter().map(|&s| SourceOffset::plain(s)).collect();
        let out = approximate_cssp(g, &offsets, w_max, cfg).unwrap();
        let truth = sequential::dijkstra(g, sources);
        for v in g.nodes() {
            match out.estimates[v.index()] {
                Distance::Finite(est) => {
                    let d = truth.distance(v);
                    assert!(
                        Distance::Finite(est) >= d,
                        "estimate {est} underestimates {d} at node {v}"
                    );
                    assert!(
                        est <= d.expect_finite() + out.error_bound,
                        "estimate {est} exceeds dist {} + err {} at node {v}",
                        d.expect_finite(),
                        out.error_bound
                    );
                }
                Distance::Infinite => {
                    assert!(
                        truth.distance(v) > Distance::Finite(2 * w_max),
                        "node {v} with dist {} was dropped despite being within 2W = {}",
                        truth.distance(v),
                        2 * w_max
                    );
                }
            }
        }
        out
    }

    #[test]
    fn cutter_guarantees_on_random_weighted_graphs() {
        let cfg = AlgoConfig::default();
        for seed in 0..4 {
            let g = generators::with_random_weights(
                &generators::random_connected(30, 50, seed),
                20,
                seed,
            );
            let w_max = g.distance_upper_bound() / 4 + 1;
            check_cutter(&g, &[NodeId(0)], w_max, &cfg);
        }
    }

    #[test]
    fn cutter_with_multiple_sources() {
        let cfg = AlgoConfig::default();
        let g = generators::with_random_weights(&generators::grid(5, 6, 1), 9, 3);
        check_cutter(&g, &[NodeId(0), NodeId(29), NodeId(14)], 20, &cfg);
    }

    #[test]
    fn cutter_with_small_threshold_drops_far_nodes() {
        let cfg = AlgoConfig::default();
        let g = generators::path(30, 10); // distances 0, 10, ..., 290
        let out = check_cutter(&g, &[NodeId(0)], 50, &cfg);
        // Nodes beyond distance 100 (= 2W) must be infinite.
        assert!(out.estimates[15].is_infinite());
        // Nodes within W are retained.
        assert!(out.estimates[4].is_finite());
    }

    #[test]
    fn cutter_congestion_is_constant() {
        let cfg = AlgoConfig::default();
        let g = generators::with_random_weights(&generators::random_connected(40, 120, 9), 50, 9);
        let offsets = [SourceOffset::plain(NodeId(0))];
        let out = approximate_cssp(&g, &offsets, g.distance_upper_bound() / 2 + 1, &cfg).unwrap();
        assert!(out.metrics.max_congestion() <= 2);
    }

    #[test]
    fn cutter_rounds_scale_with_n_over_eps_not_with_weights() {
        let cfg = AlgoConfig::default();
        let g = generators::path(20, 1_000_000);
        let out =
            approximate_cssp(&g, &[SourceOffset::plain(NodeId(0))], 20_000_000, &cfg).unwrap();
        // 5n + small slack rounds, despite the huge weighted diameter.
        assert!(out.metrics.rounds <= 5 * 20 + 10, "rounds = {}", out.metrics.rounds);
    }

    #[test]
    fn error_bound_halves_with_smaller_epsilon() {
        let g = generators::path(10, 5);
        let a = approximate_cssp(
            &g,
            &[SourceOffset::plain(NodeId(0))],
            100,
            &AlgoConfig::default().with_epsilon_inverse(2),
        )
        .unwrap();
        let b = approximate_cssp(
            &g,
            &[SourceOffset::plain(NodeId(0))],
            100,
            &AlgoConfig::default().with_epsilon_inverse(10),
        )
        .unwrap();
        assert!(b.error_bound < a.error_bound);
        assert!(b.metrics.rounds > a.metrics.rounds, "smaller epsilon costs more rounds");
    }

    #[test]
    fn source_offsets_are_respected() {
        let cfg = AlgoConfig::default();
        let g = generators::path(6, 4);
        let sources = [SourceOffset { node: NodeId(5), offset: 7 }];
        let out = approximate_cssp(&g, &sources, 60, &cfg).unwrap();
        // True offset distance of node 0 is 7 + 5*4 = 27.
        match out.estimates[0] {
            Distance::Finite(e) => {
                assert!(e >= 27 && e <= 27 + out.error_bound);
            }
            Distance::Infinite => panic!("node 0 is well within 2W"),
        }
    }

    #[test]
    fn a_huge_epsilon_inverse_is_exact_or_a_typed_error() {
        // Scaled weights used to wrap (at 2^24 the heavy edge became a zero
        // weight, a typed error on a valid graph; other values wrap to small
        // weights, which underestimate), and `2 * inv` overflowed at
        // `u64::MAX`.
        use crate::{Algorithm, Solver};
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, Graph::MAX_WEIGHT)]).unwrap();
        let expected = [Distance::ZERO, Distance::Finite(1), Distance::Infinite];
        let check = |inv: u64, outcome: Result<Vec<Distance>, AlgoError>| match outcome {
            Ok(estimates) => assert_eq!(estimates, expected, "inv = {inv}"),
            Err(e) => {
                assert!(inv > 1 << 59, "inv = {inv}: {e}");
                assert!(matches!(e, AlgoError::UnsupportedRequest { .. }), "inv = {inv}: {e}");
            }
        };
        for inv in [1, 2, 1 << 24, 1 << 40, 1 << 59, u64::MAX] {
            let cfg = AlgoConfig::default().with_epsilon_inverse(inv);
            let sources = [SourceOffset::plain(NodeId(0))];
            check(inv, approximate_cssp(&g, &sources, 1, &cfg).map(|out| out.estimates));
            let facade = Solver::on(&g)
                .algorithm(Algorithm::ApproximateCssp)
                .source(NodeId(0))
                .threshold(1)
                .config(cfg)
                .run();
            check(inv, facade.map(|run| run.output.distances));
        }
        // At `W = u64::MAX` an offset near it unscales past `u64::MAX` (it
        // wrapped to an underestimate) and the error bound overflowed.
        let far = [SourceOffset { node: NodeId(0), offset: u64::MAX - 1 }];
        let cfg = AlgoConfig::default().with_epsilon_inverse(1);
        let out = approximate_cssp(&generators::path(3, 1), &far, u64::MAX, &cfg).unwrap();
        assert_eq!(out.estimates, [Distance::Finite(u64::MAX); 3]);
        assert_eq!(out.error_bound, u64::MAX);
        // At `W = 0` the rescaling divided by zero (an assertion stopped it).
        let plain = [SourceOffset::plain(NodeId(0))];
        let zero = approximate_cssp(&generators::path(4, 3), &plain, 0, &cfg);
        assert!(matches!(zero, Err(AlgoError::UnsupportedRequest { .. })), "{zero:?}");
    }

    #[test]
    fn inclusion_threshold_adds_error_bound() {
        let out =
            CutterOutcome { estimates: vec![], error_bound: 13, metrics: Metrics::zero(0, 0) };
        assert_eq!(out.inclusion_threshold(100), Distance::Finite(113));
    }
}
