//! Distributed maximal spanning forest via Boruvka-style fragment merging
//! (Theorem 2.2, and its low-energy adaptation, Theorem 3.1).
//!
//! The algorithm proceeds in `O(log n)` merge phases. In each phase every
//! fragment finds an arbitrary outgoing edge (we deterministically pick the
//! smallest edge id, mirroring the deterministic tie-breaking the paper needs)
//! by exchanging fragment identifiers across every edge and convergecasting
//! the candidates up the fragment tree; fragments connected by chosen edges
//! then merge. After `O(log n)` phases no outgoing edges remain and the chosen
//! edges form a maximal spanning forest.
//!
//! The merging itself is computed by the orchestrator (exactly the same object
//! a distributed execution would compute); the *costs* are charged per phase
//! following the paper's accounting:
//!
//! * **time**: `2 · (max fragment tree depth) + 4` rounds per phase
//!   (fragment-id exchange, convergecast up, broadcast down, merge
//!   announcements),
//! * **congestion**: 2 messages per edge for the id exchange plus 3 per tree
//!   edge for convergecast/broadcast/merge,
//! * **energy**: in the always-awake variant every node is awake for the whole
//!   phase; in the low-energy variant (Theorem 3.1) nodes follow a periodic
//!   convergecast schedule and are awake `O(1)` rounds per phase.
//!
//! What a run derives, and nothing more: per phase, one scan of the edges in
//! id order (an edge still crossing fragments is probed, and is its
//! fragments' choice if it is the first they see), the merges along the
//! marked choices in id order, and one orientation of the grown forest — the
//! post-merge depth the phase is charged, and the pre-merge depth of the
//! next. The edgeless start has depth 0 and is oriented only when no phase
//! runs, so the result is a rooted forest either way; node energy, the same
//! for every node, is written once after the last phase.

use congest_graph::{EdgeId, Graph, NodeId};
use congest_sim::Metrics;
use serde::{Deserialize, Serialize};

/// A rooted maximal spanning forest computed by the distributed algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedForest {
    /// The edges selected into the forest.
    pub tree_edges: Vec<EdgeId>,
    /// `parents[v]` in the rooted forest (`None` for roots).
    pub parents: Vec<Option<NodeId>>,
    /// `roots[v]` is the root of `v`'s tree (the smallest node id of its
    /// component, giving a deterministic orientation).
    pub roots: Vec<NodeId>,
    /// `depths[v]` in the rooted forest.
    pub depths: Vec<u64>,
    /// `component_of[v]` is a dense component label.
    pub component_of: Vec<usize>,
    /// Number of connected components.
    pub component_count: usize,
    /// Number of Boruvka merge phases executed.
    pub phases: u64,
}

impl DistributedForest {
    /// The maximum tree depth over all components.
    pub fn max_depth(&self) -> u64 {
        self.depths.iter().copied().max().unwrap_or(0)
    }
}

/// Computes a maximal spanning forest of `g` distributedly (Boruvka phases)
/// and returns it together with the charged complexity [`Metrics`].
///
/// With `low_energy = false` the accounting follows Theorem 2.2 (every node
/// awake for the whole run); with `low_energy = true` it follows Theorem 3.1
/// (periodic convergecast schedules, `O(1)` awake rounds per node per phase).
pub fn spanning_forest(g: &Graph, low_energy: bool) -> (DistributedForest, Metrics) {
    let mut scratch = ForestScratch::default();
    scratch.run(g, low_energy);
    // Every component is rooted at its smallest node id: the orientation of
    // the last phase (or of the edgeless start) is the result.
    let ForestScratch { tree_edges, rooted, metrics, phases, .. } = scratch;
    let RootedForest { parents, roots, depths, component_of, component_count, .. } = rooted;
    let forest = DistributedForest {
        tree_edges,
        parents,
        roots,
        depths,
        component_of,
        component_count,
        phases,
    };
    (forest, metrics)
}

/// "No choice yet" in [`ForestScratch::choice`].
const NO_EDGE: EdgeId = EdgeId(u32::MAX);

/// Every buffer a spanning-forest run works in. A caller that builds many
/// forests — the CSSP recursion builds one per subproblem — keeps one of
/// these and calls [`ForestScratch::run`] on it; after the first few runs
/// nothing is allocated any more.
#[derive(Debug, Default)]
pub(crate) struct ForestScratch {
    /// Fragment id per node (initially its own id).
    fragment: Vec<u32>,
    /// `merged_into[f]` is the fragment that absorbed fragment `f` (itself
    /// while `f` is still a fragment's label): within a phase the labels in
    /// `fragment` go stale merge by merge and are looked up through this,
    /// then rewritten once when the phase's merges are done.
    merged_into: Vec<u32>,
    /// The smallest-id outgoing edge of each fragment label this phase.
    choice: Vec<EdgeId>,
    /// `chosen[e]`: edge `e` is some fragment's choice this phase (all
    /// `false` between phases).
    chosen: Vec<bool>,
    tree_edges: Vec<EdgeId>,
    /// The edges still crossing fragments at the start of this phase, in id
    /// order.
    probed_edges: Vec<EdgeId>,
    /// The rooted forest over the tree edges chosen so far, re-derived once
    /// per phase. Its depth after one phase's merges is the depth the next
    /// phase starts from. The edgeless start is not oriented unless no phase
    /// runs: until the first phase, this holds the previous run's forest.
    rooted: RootedForest,
    metrics: Metrics,
    phases: u64,
}

impl ForestScratch {
    /// Runs the algorithm on `g`, leaving the forest in the buffers, and
    /// returns the charged metrics (all the CSSP recursion reads of a run).
    pub(crate) fn run(&mut self, g: &Graph, low_energy: bool) -> &Metrics {
        let n = g.node_count() as usize;
        let m = g.edge_count() as usize;
        let Self {
            fragment,
            merged_into,
            choice,
            chosen,
            tree_edges,
            probed_edges,
            rooted,
            metrics,
            phases,
        } = self;
        reset_metrics(metrics, n, m);
        fragment.clear();
        fragment.extend(0..n as u32);
        merged_into.clear();
        merged_into.extend(0..n as u32);
        choice.clear();
        choice.resize(n, NO_EDGE);
        chosen.clear();
        chosen.resize(m, false);
        tree_edges.clear();
        *phases = 0;
        rooted.resize(n);
        // The edgeless start forest: every node a root, depth 0.
        let mut depth_now = 0;

        loop {
            // Each fragment picks its smallest-id outgoing edge. Only edges that
            // still cross fragments are probed (an edge whose endpoints merged in
            // an earlier phase is known to be internal and stays silent). Edges
            // come in id order, so a fragment's first sighting is its choice.
            probed_edges.clear();
            for e in g.edge_ids() {
                let edge = g.edge(e);
                let (fu, fv) = (fragment[edge.u.index()], fragment[edge.v.index()]);
                if fu == fv {
                    continue;
                }
                probed_edges.push(e);
                for f in [fu, fv] {
                    if choice[f as usize] == NO_EDGE {
                        choice[f as usize] = e;
                    }
                }
            }
            if probed_edges.is_empty() {
                break;
            }
            *phases += 1;

            // Merge fragments along chosen edges, in id order (and add the
            // chosen edges to the forest, once each: an edge chosen by both
            // endpoints' fragments is marked once). Every choice is a probed
            // edge, so walking the probed edges finds the marks in order.
            for c in choice.iter_mut().filter(|c| **c != NO_EDGE) {
                chosen[std::mem::replace(c, NO_EDGE).index()] = true;
            }
            for &e in probed_edges.iter() {
                if !std::mem::take(&mut chosen[e.index()]) {
                    continue;
                }
                let edge = g.edge(e);
                let fu = current_label(merged_into, fragment[edge.u.index()]);
                let fv = current_label(merged_into, fragment[edge.v.index()]);
                if fu == fv {
                    continue; // already merged transitively within this phase
                }
                tree_edges.push(e);
                // The merged fragment takes the smaller of the two labels (any
                // deterministic rule works; a distributed implementation floods
                // the winning label through the merged fragment).
                let (winner, loser) = if fu < fv { (fu, fv) } else { (fv, fu) };
                merged_into[loser as usize] = winner;
            }
            for f in fragment.iter_mut() {
                *f = current_label(merged_into, *f);
            }

            // Charge the phase costs. The convergecast that finds the outgoing
            // edge runs over the pre-merge fragment trees; announcing and
            // installing the merge floods the post-merge fragment trees.
            let depth_after = rooted.orient(g, tree_edges);
            metrics.charge_rounds(2 * depth_now + 2 * depth_after + 4);
            // Fragment-id exchange across every still-crossing edge (both
            // directions); convergecast + broadcast + merge announcement on
            // tree edges.
            metrics.charge_messages(probed_edges.iter().copied(), 2);
            metrics.charge_messages(tree_edges.iter().copied(), 3);
            depth_now = depth_after;
        }
        if *phases == 0 {
            // The last phase oriented the result; without one, orient the
            // edgeless forest, so no previous run's forest is left behind.
            rooted.orient(g, tree_edges);
        }
        // Every node is awake for every round of a phase (Theorem 2.2), or
        // for 4 rounds of it (Theorem 3.1).
        metrics.charge_awake(g.nodes(), if low_energy { 4 * *phases } else { metrics.rounds });
        metrics
    }
}

/// Makes `metrics` the all-zero value for `n` nodes and `m` edges, keeping
/// its two vectors' storage.
fn reset_metrics(metrics: &mut Metrics, n: usize, m: usize) {
    let Metrics { mut edge_congestion, mut node_energy, .. } = std::mem::take(metrics);
    edge_congestion.clear();
    edge_congestion.resize(m, 0);
    node_energy.clear();
    node_energy.resize(n, 0);
    *metrics = Metrics { edge_congestion, node_energy, ..Metrics::default() };
}

/// The label fragment `f` goes by now: the end of its `merged_into` chain
/// (halved on the way, so later look-ups are short).
fn current_label(merged_into: &mut [u32], mut f: u32) -> u32 {
    while merged_into[f as usize] != f {
        let next = merged_into[f as usize];
        merged_into[f as usize] = merged_into[next as usize];
        f = next;
    }
    f
}

/// A forest rooted at the smallest node id of every component, with the
/// scratch space to re-derive it as the forest grows: the adjacency lives in
/// one flat buffer (`adjacent[first[v]..first[v + 1]]` are `v`'s tree
/// neighbours, in tree-edge order), reused by every [`RootedForest::orient`].
#[derive(Debug, Default)]
struct RootedForest {
    parents: Vec<Option<NodeId>>,
    roots: Vec<NodeId>,
    depths: Vec<u64>,
    component_of: Vec<usize>,
    component_count: usize,
    first: Vec<usize>,
    adjacent: Vec<NodeId>,
    queue: Vec<NodeId>,
}

impl RootedForest {
    /// Sizes the buffers for a forest on `n` nodes. Their contents are
    /// whatever the previous forest left: [`RootedForest::orient`] rewrites
    /// every entry.
    fn resize(&mut self, n: usize) {
        self.parents.resize(n, None);
        self.roots.resize(n, NodeId(0));
        self.depths.resize(n, 0);
        self.component_of.resize(n, usize::MAX);
        self.first.resize(n + 1, 0);
    }

    /// Roots the forest `tree_edges` (breadth-first from the smallest node id
    /// of every component, neighbours in tree-edge order) and returns its
    /// maximum depth.
    fn orient(&mut self, g: &Graph, tree_edges: &[EdgeId]) -> u64 {
        let n = self.parents.len();
        // Counting sort of the edge endpoints into the flat adjacency.
        self.first.fill(0);
        for &e in tree_edges {
            let edge = g.edge(e);
            self.first[edge.u.index() + 1] += 1;
            self.first[edge.v.index() + 1] += 1;
        }
        for v in 0..n {
            self.first[v + 1] += self.first[v];
        }
        self.adjacent.clear();
        self.adjacent.resize(2 * tree_edges.len(), NodeId(0));
        for &e in tree_edges {
            let edge = g.edge(e);
            for (from, to) in [(edge.u, edge.v), (edge.v, edge.u)] {
                self.adjacent[self.first[from.index()]] = to;
                self.first[from.index()] += 1;
            }
        }
        // Filling advanced every `first[v]` to the end of `v`'s run, which is
        // where `v + 1`'s begins: shift back.
        self.first.copy_within(0..n, 1);
        self.first[0] = 0;

        self.parents.fill(None);
        self.depths.fill(0);
        self.component_of.fill(usize::MAX);
        self.component_count = 0;
        let mut max_depth = 0;
        for start in 0..n {
            if self.component_of[start] != usize::MAX {
                continue;
            }
            let root = NodeId(start as u32);
            self.component_of[start] = self.component_count;
            self.roots[start] = root;
            self.queue.clear();
            self.queue.push(root);
            let mut head = 0;
            while let Some(&v) = self.queue.get(head) {
                head += 1;
                for &u in &self.adjacent[self.first[v.index()]..self.first[v.index() + 1]] {
                    if self.component_of[u.index()] == usize::MAX {
                        self.component_of[u.index()] = self.component_count;
                        self.parents[u.index()] = Some(v);
                        self.roots[u.index()] = root;
                        self.depths[u.index()] = self.depths[v.index()] + 1;
                        max_depth = max_depth.max(self.depths[u.index()]);
                        self.queue.push(u);
                    }
                }
            }
            self.component_count += 1;
        }
        max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential};

    /// The implementation as it was before the bookkeeping was tightened: two
    /// orientations per phase (plus one at the end), each over a freshly
    /// allocated `Vec<Vec<_>>` adjacency. Kept as the reference
    /// [`spanning_forest`] must stay bit-identical to.
    fn spanning_forest_reference(g: &Graph, low_energy: bool) -> (DistributedForest, Metrics) {
        let n = g.node_count() as usize;
        let m = g.edge_count() as usize;
        let mut metrics = Metrics::zero(n, m);
        if n == 0 {
            let forest = DistributedForest {
                tree_edges: vec![],
                parents: vec![],
                roots: vec![],
                depths: vec![],
                component_of: vec![],
                component_count: 0,
                phases: 0,
            };
            return (forest, metrics);
        }

        // Fragment id per node (initially its own id) and accumulated tree edges.
        let mut fragment: Vec<u32> = (0..n as u32).collect();
        let mut tree_edges: Vec<EdgeId> = Vec::new();
        let mut phases = 0u64;

        loop {
            // Current forest adjacency (for depth computation and convergecast
            // cost accounting).
            let depth_now = forest_max_depth(g, n, &tree_edges);

            // Each fragment picks its smallest-id outgoing edge. Only edges that
            // still cross fragments are probed (an edge whose endpoints merged in
            // an earlier phase is known to be internal and stays silent).
            let mut choice: std::collections::BTreeMap<u32, EdgeId> =
                std::collections::BTreeMap::new();
            let mut probed_edges: Vec<EdgeId> = Vec::new();
            for e in g.edge_ids() {
                let edge = g.edge(e);
                let (fu, fv) = (fragment[edge.u.index()], fragment[edge.v.index()]);
                if fu == fv {
                    continue;
                }
                probed_edges.push(e);
                for f in [fu, fv] {
                    let entry = choice.entry(f).or_insert(e);
                    if e < *entry {
                        *entry = e;
                    }
                }
            }
            if choice.is_empty() {
                break;
            }
            phases += 1;

            // Merge fragments along chosen edges (and add the chosen edges to the
            // forest, skipping duplicates chosen by both endpoints' fragments).
            let mut newly_chosen: Vec<EdgeId> = choice.values().copied().collect();
            newly_chosen.sort();
            newly_chosen.dedup();
            for &e in &newly_chosen {
                let edge = g.edge(e);
                let (fu, fv) = (fragment[edge.u.index()], fragment[edge.v.index()]);
                if fu == fv {
                    continue; // already merged transitively within this phase
                }
                tree_edges.push(e);
                // Relabel the smaller fragment-id group to the larger's label (any
                // deterministic rule works; a distributed implementation floods
                // the winning label through the merged fragment).
                let (winner, loser) = if fu < fv { (fu, fv) } else { (fv, fu) };
                for f in fragment.iter_mut() {
                    if *f == loser {
                        *f = winner;
                    }
                }
            }

            // Charge the phase costs. The convergecast that finds the outgoing
            // edge runs over the pre-merge fragment trees; announcing and
            // installing the merge floods the post-merge fragment trees.
            let depth_after = forest_max_depth(g, n, &tree_edges);
            let phase_rounds = 2 * depth_now + 2 * depth_after + 4;
            metrics.rounds += phase_rounds;
            for &e in &probed_edges {
                // Fragment-id exchange across every still-crossing edge (both
                // directions).
                metrics.edge_congestion[e.index()] += 2;
                metrics.messages += 2;
            }
            for &e in &tree_edges {
                // Convergecast + broadcast + merge announcement on tree edges.
                metrics.edge_congestion[e.index()] += 3;
                metrics.messages += 3;
            }
            for v in 0..n {
                metrics.node_energy[v] += if low_energy { 4 } else { phase_rounds };
            }
        }

        // Root every component at its smallest node id and orient the tree.
        let (parents, roots, depths, component_of, component_count) =
            orient_forest(g, n, &tree_edges);
        let forest = DistributedForest {
            tree_edges,
            parents,
            roots,
            depths,
            component_of,
            component_count,
            phases,
        };
        (forest, metrics)
    }

    /// Maximum depth of the current forest when each component is rooted at its
    /// smallest node id.
    fn forest_max_depth(g: &Graph, n: usize, tree_edges: &[EdgeId]) -> u64 {
        let (_, _, depths, _, _) = orient_forest(g, n, tree_edges);
        depths.iter().copied().max().unwrap_or(0)
    }

    #[allow(clippy::type_complexity)]
    fn orient_forest(
        g: &Graph,
        n: usize,
        tree_edges: &[EdgeId],
    ) -> (Vec<Option<NodeId>>, Vec<NodeId>, Vec<u64>, Vec<usize>, usize) {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &e in tree_edges {
            let edge = g.edge(e);
            adj[edge.u.index()].push(edge.v);
            adj[edge.v.index()].push(edge.u);
        }
        let mut parents = vec![None; n];
        let mut roots: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut depths = vec![0u64; n];
        let mut component_of = vec![usize::MAX; n];
        let mut count = 0usize;
        for start in 0..n {
            if component_of[start] != usize::MAX {
                continue;
            }
            let root = NodeId(start as u32);
            component_of[start] = count;
            roots[start] = root;
            let mut q = std::collections::VecDeque::from([root]);
            while let Some(v) = q.pop_front() {
                for &u in &adj[v.index()] {
                    if component_of[u.index()] == usize::MAX {
                        component_of[u.index()] = count;
                        parents[u.index()] = Some(v);
                        roots[u.index()] = root;
                        depths[u.index()] = depths[v.index()] + 1;
                        q.push_back(u);
                    }
                }
            }
            count += 1;
        }
        (parents, roots, depths, component_of, count)
    }

    #[test]
    fn forest_and_metrics_are_bit_identical_to_the_reference() {
        let mut graphs = vec![
            Graph::empty(0),
            Graph::empty(5),
            generators::path(40, 1),
            generators::star(30, 1),
            generators::grid(7, 9, 1),
            generators::disjoint_copies(&generators::random_connected(15, 20, 1), 4),
            generators::disjoint_copies(&generators::star(6, 1), 3),
        ];
        for seed in 0..6 {
            graphs.push(generators::random_connected(20 + 30 * seed as u32, 40 * seed, seed));
            graphs.push(generators::erdos_renyi_gnm(60, 50 + 10 * seed, seed));
        }
        // One scratch for the whole sequence, as the CSSP recursion holds it:
        // graphs of every size in turn, nothing carried over between runs.
        let mut scratch = ForestScratch::default();
        for (i, g) in graphs.iter().enumerate() {
            for low_energy in [false, true] {
                let reference = spanning_forest_reference(g, low_energy);
                assert_eq!(
                    spanning_forest(g, low_energy),
                    reference,
                    "graph {i}, low_energy {low_energy}"
                );
                let metrics = scratch.run(g, low_energy).clone();
                let in_buffers = DistributedForest {
                    tree_edges: scratch.tree_edges.clone(),
                    parents: scratch.rooted.parents.clone(),
                    roots: scratch.rooted.roots.clone(),
                    depths: scratch.rooted.depths.clone(),
                    component_of: scratch.rooted.component_of.clone(),
                    component_count: scratch.rooted.component_count,
                    phases: scratch.phases,
                };
                assert_eq!(
                    (in_buffers, metrics),
                    reference,
                    "reused scratch, graph {i}, low_energy {low_energy}"
                );
            }
        }
    }

    #[test]
    fn a_reused_scratch_cannot_leak_a_previous_forest() {
        // Unlike graphs in turn; an edgeless one runs no phase, so its
        // forest is oriented after the loop or not at all, over buffers that
        // hold the previous run's.
        let graphs = [
            generators::random_connected(512, 1024, 3),
            Graph::empty(5),
            generators::disjoint_copies(&generators::random_connected(15, 20, 1), 4),
            generators::path(40, 1),
            Graph::empty(5),
        ];
        let mut scratch = ForestScratch::default();
        for (i, g) in graphs.iter().enumerate() {
            for low_energy in [false, true] {
                let (fresh, fresh_metrics) = spanning_forest(g, low_energy);
                assert_eq!(scratch.run(g, low_energy), &fresh_metrics, "graph {i}");
                assert_eq!(scratch.phases, fresh.phases, "graph {i}");
                if g.edge_count() == 0 {
                    let rooted = &scratch.rooted;
                    assert_eq!(rooted.parents, fresh.parents, "graph {i}");
                    assert_eq!(rooted.roots, fresh.roots, "graph {i}");
                    assert_eq!(rooted.depths, fresh.depths, "graph {i}");
                    assert_eq!(rooted.component_of, fresh.component_of, "graph {i}");
                    assert_eq!(rooted.component_count, fresh.component_count, "graph {i}");
                }
            }
        }
    }

    fn check_forest(g: &Graph) -> (DistributedForest, Metrics) {
        let (forest, metrics) = spanning_forest(g, false);
        let expected = sequential::connected_components(g);
        assert_eq!(forest.component_count, expected.component_count);
        // The forest has exactly n - #components edges and spans components.
        assert_eq!(forest.tree_edges.len(), g.node_count() as usize - expected.component_count);
        for v in g.nodes() {
            assert!(expected.same_component(v, forest.roots[v.index()]));
            match forest.parents[v.index()] {
                Some(p) => {
                    assert!(g.has_edge(v, p));
                    assert_eq!(forest.depths[v.index()], forest.depths[p.index()] + 1);
                }
                None => {
                    assert_eq!(forest.roots[v.index()], v);
                    assert_eq!(forest.depths[v.index()], 0);
                }
            }
        }
        (forest, metrics)
    }

    #[test]
    fn forest_of_connected_random_graphs() {
        for seed in 0..4 {
            let g = generators::random_connected(50, 80, seed);
            let (forest, _) = check_forest(&g);
            assert_eq!(forest.component_count, 1);
        }
    }

    #[test]
    fn forest_of_disconnected_graph() {
        let g = generators::disjoint_copies(&generators::random_connected(15, 20, 1), 4);
        let (forest, _) = check_forest(&g);
        assert_eq!(forest.component_count, 4);
    }

    #[test]
    fn forest_of_edgeless_graph() {
        let g = Graph::empty(6);
        let (forest, metrics) = spanning_forest(&g, false);
        assert_eq!(forest.component_count, 6);
        assert_eq!(forest.tree_edges.len(), 0);
        assert_eq!(forest.phases, 0);
        assert_eq!(metrics.rounds, 0);
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let g = generators::random_connected(128, 300, 7);
        let (forest, _) = check_forest(&g);
        assert!(
            forest.phases <= 9,
            "Boruvka should finish in <= log2(n) + 2 phases, took {}",
            forest.phases
        );
    }

    #[test]
    fn congestion_is_polylogarithmic() {
        let g = generators::random_connected(200, 600, 5);
        let (forest, metrics) = spanning_forest(&g, false);
        // At most 5 messages per edge per phase.
        assert!(metrics.max_congestion() <= 5 * forest.phases);
        assert!(metrics.max_congestion() <= 5 * 10);
    }

    #[test]
    fn low_energy_variant_caps_node_energy_per_phase() {
        let g = generators::random_connected(100, 200, 3);
        let (forest_hi, hi) = spanning_forest(&g, false);
        let (forest_lo, lo) = spanning_forest(&g, true);
        assert_eq!(forest_hi.tree_edges, forest_lo.tree_edges, "same deterministic forest");
        assert!(lo.max_energy() <= 4 * forest_lo.phases);
        assert!(lo.max_energy() <= hi.max_energy());
    }

    #[test]
    fn deterministic_output() {
        let g = generators::random_connected(60, 90, 11);
        let (a, _) = spanning_forest(&g, false);
        let (b, _) = spanning_forest(&g, false);
        assert_eq!(a, b);
    }

    #[test]
    fn path_forest_depth_equals_length() {
        let g = generators::path(20, 1);
        let (forest, metrics) = check_forest(&g);
        assert_eq!(forest.max_depth(), 19);
        assert!(metrics.rounds >= forest.max_depth());
    }
}
