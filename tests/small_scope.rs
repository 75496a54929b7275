//! Small-scope exhaustive differential: every connected labelled graph on a
//! few nodes, with edge weights from {0, 1, 3}, through every registry
//! entrant that claims exact weighted distances.
//!
//! Enumeration reaches what a random draw may never make: a zero weight on
//! each edge in turn, every source set, every shape of a tiny graph. And it
//! reaches them smallest first, so the first failure is a smallest one. Each
//! single-source-set entrant is checked against `sequential::dijkstra`, and
//! the all-pairs entrant's whole matrix against `sequential::all_pairs`.
//!
//! Two more checks ride along on every case. A drop plan that drops nothing
//! changes nothing: every run is made again under a plan that drops one
//! message in a million, and every rerun that dropped none reports exactly
//! what the fault-free run reports — so splitting each step's send records
//! and rolling their fates moves no statistic. And on a graph with zero
//! weights, `cssp` charges the
//! contraction it solves through: the endpoints of a zero-weight edge, one
//! supernode, report equal energy, and the edge carries messages.
//!
//! The tier-1 test takes every graph on up to three nodes from every nonempty
//! source set, and every graph on four nodes from node 0. The full sweep,
//! every source set on four nodes too, is the same function in the ignored
//! test, which CI runs in release.

use congest_sssp_suite::graph::{properties, sequential, Graph, NodeId};
use congest_sssp_suite::sssp::cssp::cssp;
use congest_sssp_suite::sssp::{registry, AlgoConfig, FaultPlan, Solver, SolverRequest, SolverRun};

/// The edge weights of the sweep: zero (contracted by the exact solvers),
/// unit, and a weight a two-edge detour can beat.
const WEIGHTS: [u64; 3] = [0, 1, 3];

/// Every connected labelled simple graph on `n` nodes, each edge weighted from
/// [`WEIGHTS`]: by edge set, then by weights.
fn connected_graphs(n: u32) -> Vec<Graph> {
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
    let mut graphs = Vec::new();
    for mask in 0u32..1 << pairs.len() {
        let edges: Vec<(u32, u32)> =
            (0..pairs.len()).filter(|i| mask >> i & 1 == 1).map(|i| pairs[i]).collect();
        let unit = Graph::from_edges(n, edges.iter().map(|&(u, v)| (u, v, 1))).expect("simple");
        if !properties::is_connected(&unit) {
            continue;
        }
        for code in 0..WEIGHTS.len().pow(edges.len() as u32) {
            let weight = |i: usize| WEIGHTS[code / WEIGHTS.len().pow(i as u32) % WEIGHTS.len()];
            let weighted = edges.iter().enumerate().map(|(i, &(u, v))| (u, v, weight(i)));
            graphs.push(Graph::from_edges(n, weighted).expect("simple"));
        }
    }
    graphs
}

/// Runs `request` again under a plan that drops one message in a million,
/// seeded with `seed`; if the rerun drops nothing, its whole report must be
/// `run`'s. Returns whether it dropped nothing.
fn rerun_under_rare_drops(
    request: SolverRequest<'_>,
    run: &SolverRun,
    seed: u64,
    what: &str,
) -> bool {
    let plan = FaultPlan::none().with_seed(seed).with_drop_ppm(1);
    let rerun = request.config(AlgoConfig::default().with_faults(plan)).run();
    let rerun = rerun.unwrap_or_else(|e| panic!("{what}, drop plan: {e}"));
    if rerun.report.fault_drops > 0 {
        return false;
    }
    assert_eq!(rerun.report, run.report, "{what}: a plan that dropped nothing moved the report");
    true
}

/// Checks that `cssp` from `sources` charges every zero-weight edge of `g`:
/// its two endpoints report equal energy and it carries at least one message.
/// Returns the number of zero-weight edges checked.
fn check_zero_weight_charges(g: &Graph, sources: &[NodeId], what: &str) -> usize {
    let zero: Vec<_> = g.edge_ids().filter(|&e| g.edge(e).w == 0).collect();
    if zero.is_empty() {
        return 0;
    }
    let run = cssp(g, sources, &AlgoConfig::default()).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (energy, congestion) = (&run.metrics.node_energy, &run.metrics.edge_congestion);
    for &e in &zero {
        let edge = g.edge(e);
        let (u, v) = (edge.u.index(), edge.v.index());
        assert_eq!(energy[u], energy[v], "{what}: energy across zero-weight edge {e:?}");
        assert!(congestion[e.index()] > 0, "{what}: zero-weight edge {e:?} carried nothing");
    }
    zero.len()
}

/// Every nonempty subset of the nodes `0..n`.
fn source_sets(n: u32) -> Vec<Vec<NodeId>> {
    (1u32..1 << n).map(|set| (0..n).filter(|v| set >> v & 1 == 1).map(NodeId).collect()).collect()
}

/// Runs every exact weighted registry entrant on every connected graph of up
/// to `max_n` nodes: from every nonempty source set on graphs of up to
/// `every_source_set_to` nodes, and from node 0 on the larger ones. Each run
/// is made again by [`rerun_under_rare_drops`], and `cssp` is checked by
/// [`check_zero_weight_charges`] from every source set. Panics at the first
/// distance that differs from the sequential truth, the first report a plan
/// that dropped nothing moves, the first uncharged zero-weight edge or the
/// first error; returns the number of runs (not counting the reruns), the
/// number of reruns that dropped nothing and the number of zero-weight edges
/// checked.
fn sweep(max_n: u32, every_source_set_to: u32) -> (usize, usize, usize) {
    let exact: Vec<_> = registry().iter().filter(|i| i.weighted && i.exact()).collect();
    let (mut runs, mut undropped, mut zero_edges) = (0, 0, 0);
    for n in 1..=max_n {
        let sets = if n <= every_source_set_to { source_sets(n) } else { vec![vec![NodeId(0)]] };
        for g in connected_graphs(n) {
            let edges: Vec<_> = g.edges().iter().map(|e| (e.u.0, e.v.0, e.w)).collect();
            for info in exact.iter().filter(|i| i.all_pairs) {
                let what = format!("{} on {edges:?}", info.name);
                let request = Solver::on(&g).algorithm(info.algorithm).source(NodeId(0));
                let run = request.clone().run().unwrap_or_else(|e| panic!("{what}: {e}"));
                undropped += usize::from(rerun_under_rare_drops(request, &run, runs as u64, &what));
                let matrix = run.all_pairs.expect("an all-pairs entrant returns its matrix");
                assert_eq!(matrix, sequential::all_pairs(&g), "{what}");
                runs += 1;
            }
            for sources in &sets {
                let truth = sequential::dijkstra(&g, sources).distances;
                let entrants = exact.iter().filter(|i| !i.all_pairs);
                for info in entrants.filter(|i| i.multi_source || sources.len() == 1) {
                    let what = format!("{} on {edges:?} from {sources:?}", info.name);
                    let request = Solver::on(&g).algorithm(info.algorithm).sources(sources);
                    let run = request.clone().run().unwrap_or_else(|e| panic!("{what}: {e}"));
                    let seed = runs as u64;
                    undropped += usize::from(rerun_under_rare_drops(request, &run, seed, &what));
                    assert_eq!(run.output.distances, truth, "{what}");
                    runs += 1;
                }
                let what = format!("cssp on {edges:?} from {sources:?}");
                zero_edges += check_zero_weight_charges(&g, sources, &what);
            }
        }
    }
    (runs, undropped, zero_edges)
}

#[test]
fn every_exact_weighted_entrant_is_exact_on_every_tiny_graph() {
    // The connected labelled graphs on 1 to 4 nodes are 1, 1, 4 and 38 edge
    // sets; weighted, 1, 3, 54 and 3 834 graphs. Four entrants run on every
    // (graph, source set) — 1 + 3·3 + 54·7 + 3 834 of them —, and the
    // all-pairs entrant once a graph.
    let (runs, undropped, zero_edges) = sweep(4, 3);
    assert_eq!(runs, 4 * 4_222 + 3_892);
    assert!(undropped > 0, "some reruns drop nothing");
    assert!(zero_edges > 0, "the sweep has zero weights");
}

#[test]
#[ignore = "the full sweep, every source set on four nodes: run it in release"]
fn every_exact_weighted_entrant_is_exact_from_every_source_set_of_four_nodes() {
    let (runs, undropped, zero_edges) = sweep(4, 4);
    assert_eq!(runs, 4 * (4_222 + 14 * 3_834) + 3_892);
    assert!(undropped > 0, "some reruns drop nothing");
    assert!(zero_edges > 0, "the sweep has zero weights");
}
