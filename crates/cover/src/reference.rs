//! What cover construction, statistics and validation did before the
//! bounded-BFS workspace: a whole-graph search, `O(n)` scans and map-built
//! trees per cluster. Compiled for tests only — the differential tests
//! compare the shipped code against these, output for output.

use std::collections::{BTreeMap, VecDeque};

use congest_graph::{Graph, NodeId};

use crate::cluster::{Cluster, ClusterId, ClusterTree};
use crate::decomposition::Decomposition;
use crate::layered::LayeredCover;
use crate::sparse_cover::{CoverStats, SparseCover};

/// Multi-source hop-distance BFS with parents over the whole graph.
pub(crate) fn hops_with_parents(
    g: &Graph,
    sources: &[NodeId],
    bound: u64,
) -> (Vec<Option<u64>>, Vec<Option<NodeId>>) {
    let mut dist = vec![None; g.node_count() as usize];
    let mut parent = vec![None; g.node_count() as usize];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s.index()].is_none() {
            dist[s.index()] = Some(0);
            q.push_back(s);
        }
    }
    while let Some(v) = q.pop_front() {
        let dv = dist[v.index()].expect("queued nodes have distances");
        if dv >= bound {
            continue;
        }
        for adj in g.neighbors(v) {
            if dist[adj.neighbor.index()].is_none() {
                dist[adj.neighbor.index()] = Some(dv + 1);
                parent[adj.neighbor.index()] = Some(v);
                q.push_back(adj.neighbor);
            }
        }
    }
    (dist, parent)
}

/// Multi-source hop distances over the whole graph.
pub(crate) fn multi_source_hops(g: &Graph, sources: &[NodeId]) -> Vec<Option<u64>> {
    hops_with_parents(g, sources, u64::MAX).0
}

/// Hangs every node of `members` not yet in `tree` below the first tree
/// node on its parent chain, each one level deeper than its parent.
pub(crate) fn grow_tree(
    tree: &mut BTreeMap<NodeId, (Option<NodeId>, u64)>,
    members: &[NodeId],
    parent: &[Option<NodeId>],
) {
    for &member in members {
        let mut chain = Vec::new();
        let mut v = member;
        while !tree.contains_key(&v) {
            chain.push(v);
            v = parent[v.index()].expect("new tree nodes have parents toward the tree");
        }
        for &node in chain.iter().rev() {
            let p = parent[node.index()].expect("non-root nodes have parents");
            let depth = tree[&p].1 + 1;
            tree.insert(node, (Some(p), depth));
        }
    }
}

pub(crate) fn tree_of(root: NodeId, tree: BTreeMap<NodeId, (Option<NodeId>, u64)>) -> ClusterTree {
    let mut rows: Vec<_> = tree.into_iter().map(|(v, (p, d))| (v, p, d)).collect();
    ClusterTree::from_rows(root, &mut rows)
}

pub(crate) fn separated_decomposition_reference(g: &Graph, k: u64) -> Decomposition {
    let n = g.node_count() as usize;
    let mut assigned = vec![false; n];
    let mut home = vec![ClusterId(0); n];
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut colors: Vec<Vec<ClusterId>> = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let color = colors.len() as u32;
        let mut this_color = Vec::new();
        let mut deferred = vec![false; n];
        for center_idx in 0..n {
            if assigned[center_idx] || deferred[center_idx] {
                continue;
            }
            let center = NodeId(center_idx as u32);
            let (dist, parent) = hops_with_parents(g, &[center], u64::MAX);
            let claimable: Vec<bool> =
                (0..n).map(|v| !assigned[v] && !deferred[v] && dist[v].is_some()).collect();
            let (claimable, dist) = (&claimable, &dist);
            let within =
                |r: u64| (0..n).filter(move |&v| claimable[v] && dist[v].is_some_and(|d| d <= r));
            let mut radius = 0u64;
            while within(radius.saturating_add(k)).count() > 2 * within(radius).count() {
                radius = radius.saturating_add(k);
            }
            let members: Vec<NodeId> = within(radius).map(|v| NodeId(v as u32)).collect();
            for v in within(radius.saturating_add(k)) {
                deferred[v] = dist[v].is_some_and(|d| d > radius);
            }
            let id = ClusterId(clusters.len() as u32);
            for &v in &members {
                assigned[v.index()] = true;
                home[v.index()] = id;
                remaining -= 1;
            }
            let mut tree = BTreeMap::from([(center, (None, 0))]);
            grow_tree(&mut tree, &members, &parent);
            let tree = tree_of(center, tree);
            clusters.push(Cluster { id, color, center, members, tree });
            this_color.push(id);
        }
        colors.push(this_color);
    }
    Decomposition { separation: k, clusters, colors, home }
}

/// The expansion this module shipped before the shared workspace: a fresh
/// whole-graph search and a cloned, map-probed tree per cluster.
pub(crate) fn expand_cluster_reference(
    g: &Graph,
    c: &Cluster,
    d: u64,
) -> (Vec<NodeId>, ClusterTree) {
    let (dist, parent) = hops_with_parents(g, &c.members, d);
    let members: Vec<NodeId> = g.nodes().filter(|v| dist[v.index()].is_some()).collect();
    let mut tree: BTreeMap<_, _> = c.tree.entries().map(|(v, p, depth)| (v, (p, depth))).collect();
    grow_tree(&mut tree, &members, &parent);
    (members, tree_of(c.tree.root, tree))
}

/// `SparseCover::construct` as it was: reference carving, reference
/// expansion, one membership list per node.
pub(crate) fn construct_reference(g: &Graph, d: u64) -> SparseCover {
    let decomposition = separated_decomposition_reference(g, d.saturating_mul(2).saturating_add(1));
    let mut clusters = Vec::new();
    let mut membership: Vec<Vec<ClusterId>> = vec![Vec::new(); g.node_count() as usize];
    for c in &decomposition.clusters {
        let (members, tree) = expand_cluster_reference(g, c, d);
        for &v in &members {
            membership[v.index()].push(c.id);
        }
        clusters.push(Cluster { members, tree, ..c.clone() });
    }
    let mut member_offsets = vec![0];
    for m in &membership {
        member_offsets.push(member_offsets.last().unwrap() + m.len());
    }
    SparseCover {
        d,
        clusters,
        member_offsets,
        member_clusters: membership.concat(),
        home: decomposition.home.clone(),
        colors: decomposition.color_count(),
    }
}

/// `stats().max_edge_tree_load` as it was tallied: one map entry per edge.
pub(crate) fn max_edge_tree_load_reference(cover: &SparseCover) -> usize {
    let mut load: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for c in &cover.clusters {
        for (child, parent) in c.tree.edges() {
            let key = if child < parent { (child, parent) } else { (parent, child) };
            *load.entry(key).or_insert(0) += 1;
        }
    }
    load.values().copied().max().unwrap_or(0)
}

/// `validate`'s ball-coverage check as it was: a whole-graph search per
/// node and a sweep over all nodes.
pub(crate) fn first_uncovered_ball_reference(
    g: &Graph,
    cover: &SparseCover,
) -> Option<(NodeId, NodeId)> {
    g.nodes().find_map(|v| {
        let dist = multi_source_hops(g, &[v]);
        g.nodes()
            .find(|u| {
                dist[u.index()].is_some_and(|x| x <= cover.d) && !cover.home_of(v).contains(*u)
            })
            .map(|u| (v, u))
    })
}

/// `SparseCover::stats` as it was: per-node membership counted off the member
/// lists, depths off the tree entries, edge load in a map.
pub(crate) fn stats_reference(cover: &SparseCover) -> CoverStats {
    let n = cover.home.len();
    let mut membership = vec![0usize; n];
    for v in cover.clusters.iter().flat_map(|c| &c.members) {
        membership[v.index()] += 1;
    }
    let depths = cover.clusters.iter().flat_map(|c| c.tree.entries().map(|(_, _, depth)| depth));
    CoverStats {
        d: cover.d,
        cluster_count: cover.clusters.len(),
        colors: cover.color_count(),
        max_membership: membership.iter().copied().max().unwrap_or(0),
        mean_membership: membership.iter().sum::<usize>() as f64 / n.max(1) as f64,
        max_tree_depth: depths.max().unwrap_or(0),
        max_edge_tree_load: max_edge_tree_load_reference(cover),
    }
}

/// `components_spanned` as it was: every component's member list rebuilt by a
/// scan over all labels.
pub(crate) fn components_spanned_reference(g: &Graph, cover: &SparseCover) -> bool {
    let components = congest_graph::sequential::connected_components(g);
    (0..components.component_count).all(|comp| {
        let members = components.members(comp);
        let home = cover.home_of(members[0]);
        members.iter().all(|&v| home.contains(v))
    })
}

/// `LayeredCover::construct` over the reference sparse covers and the
/// reference stopping rule (no overflow guards: small targets only).
pub(crate) fn layered_reference(g: &Graph, target: u64, base: u64) -> LayeredCover {
    let mut levels = Vec::new();
    let mut radius = 1;
    loop {
        levels.push(construct_reference(g, radius));
        if radius >= 2 * target || components_spanned_reference(g, levels.last().unwrap()) {
            break;
        }
        radius *= base;
    }
    let parents = levels
        .windows(2)
        .map(|w| w[0].clusters.iter().map(|c| w[1].home[c.center.index()]).collect())
        .collect();
    LayeredCover { base, target, levels, parents }
}
