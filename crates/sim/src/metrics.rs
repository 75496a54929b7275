//! Measurement of the complexity quantities the paper's theorems bound:
//! rounds (time), messages, per-edge congestion, and per-node energy.

use congest_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// Complexity measurements of one (or several composed) protocol executions.
///
/// * `rounds` — time complexity,
/// * `messages` — message complexity,
/// * `edge_congestion[e]` — messages sent over edge `e` (both directions),
/// * `node_energy[v]` — rounds in which node `v` was awake.
///
/// Metrics compose in one method, [`Metrics::merge_sequential_mapped`]: it
/// models running one phase after another — rounds add, and so do the
/// counters, per-edge congestion and per-node energy, because every message
/// and awake round still happens — with the phase's ids scattered through a
/// node map and an edge map (a subgraph's phase lands on the graph's ids).
/// [`Metrics::remap`] is that merge into [`Metrics::zero`].
///
/// # Charging
///
/// The engine measures; every other cost is *charged* by a closed form, and
/// only through these methods: [`Metrics::charge_rounds`],
/// [`Metrics::charge_awake`] (awake rounds to a set of nodes) and
/// [`Metrics::charge_messages`] (messages over a set of edges, counted on
/// each edge and in the total by the one call), beside the two whole-run
/// adjustments [`Metrics::charge_megaround`] and
/// [`Metrics::cap_energy_at_rounds`] (no node is awake longer than the
/// run). Every charge and every merge saturates at `u64::MAX` through one
/// sum, so a huge closed form or a sum of huge phases reads as `u64::MAX`,
/// never as a wrapped underestimate. Because a message only
/// ever lands on its edge and in the total together,
/// `messages == Σ edge_congestion` holds for every measured and every
/// charged run; only composed reports (APSP and the oracle, whose totals
/// come from a schedule, not from one `Metrics`) are not held to it.
/// `simlint`'s `direct-cost-write` rule keeps direct writes to the four
/// cost fields out of `crates/core`'s shipped code.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Number of rounds (time complexity).
    pub rounds: u64,
    /// Total number of messages sent (message complexity).
    pub messages: u64,
    /// Messages per edge, indexed by [`EdgeId`].
    pub edge_congestion: Vec<u64>,
    /// Awake rounds per node, indexed by [`NodeId`].
    pub node_energy: Vec<u64>,
    /// Number of messages lost to the **sleeping model**: sent, but never
    /// received because the recipient was sleeping or had halted at delivery
    /// time (including sends still undeliverable when the run terminated).
    /// This is a property of the protocol's wake schedule, *not* of fault
    /// injection — messages dropped by a [`crate::FaultPlan`] are counted in
    /// [`Metrics::fault_drops`] instead.
    /// Protocols that rely on precise wake schedules should see 0 here for
    /// wavefront traffic; a surprising non-zero value is usually a protocol
    /// bug, which is why the engine counts it instead of dropping messages
    /// silently.
    pub messages_lost: u64,
    /// Number of messages dropped in transit by fault injection, as rolled
    /// by the [`crate::FaultPlan`] fate stream. Disjoint from
    /// [`Metrics::messages_lost`]; both are subsets of [`Metrics::messages`].
    /// Always 0 without a fault plan.
    pub fault_drops: u64,
}

impl Metrics {
    /// An all-zero metrics value for a graph with `n` nodes and `m` edges.
    pub fn zero(n: usize, m: usize) -> Metrics {
        Metrics {
            rounds: 0,
            messages: 0,
            edge_congestion: vec![0; m],
            node_energy: vec![0; n],
            messages_lost: 0,
            fault_drops: 0,
        }
    }

    /// The maximum congestion over all edges (0 for an edgeless graph).
    pub fn max_congestion(&self) -> u64 {
        self.edge_congestion.iter().copied().max().unwrap_or(0)
    }

    /// The maximum energy over all nodes — the paper's *energy complexity*.
    pub fn max_energy(&self) -> u64 {
        self.node_energy.iter().copied().max().unwrap_or(0)
    }

    /// The mean energy over all nodes (node-averaged awake complexity).
    pub fn mean_energy(&self) -> f64 {
        if self.node_energy.is_empty() {
            0.0
        } else {
            // Summed wide: saturated energies must not wrap the total.
            let total: u128 = self.node_energy.iter().map(|&e| u128::from(e)).sum();
            total as f64 / self.node_energy.len() as f64
        }
    }

    /// Re-attributes metrics measured on a subgraph back to the original
    /// graph: `node_map[i]` / `edge_map[j]` give the original ids of subgraph
    /// node `i` / edge `j`, and `n`, `m` are the original graph's sizes: the
    /// subgraph's metrics merged, as one phase, into `Metrics::zero(n, m)`.
    ///
    /// # Panics
    ///
    /// Panics if the maps do not match the metric vector lengths or name ids
    /// outside `n`, `m`.
    pub fn remap(&self, node_map: &[NodeId], edge_map: &[EdgeId], n: usize, m: usize) -> Metrics {
        let mut out = Metrics::zero(n, m);
        out.merge_sequential_mapped(self, node_map, edge_map);
        out
    }

    /// Accumulates `phase` as a phase that runs *after* `self` (sequential
    /// composition), scattering its per-node and per-edge entries through
    /// the maps: `node_map[i]` / `edge_map[j]` are the ids in `self` of
    /// `phase`'s node `i` / edge `j` (identity maps when both are measured on
    /// one graph). Rounds add, and so do every counter, each node's energy
    /// and each edge's congestion; an id named twice receives both entries.
    /// Costs the phase's size, not the graph's.
    ///
    /// # Panics
    ///
    /// Panics if the maps do not match `phase`'s vector lengths or name ids
    /// outside `self`.
    pub fn merge_sequential_mapped(
        &mut self,
        phase: &Metrics,
        node_map: &[NodeId],
        edge_map: &[EdgeId],
    ) {
        assert_eq!(node_map.len(), phase.node_energy.len(), "node map length mismatch");
        assert_eq!(edge_map.len(), phase.edge_congestion.len(), "edge map length mismatch");
        add(&mut self.rounds, phase.rounds);
        add(&mut self.messages, phase.messages);
        add(&mut self.messages_lost, phase.messages_lost);
        add(&mut self.fault_drops, phase.fault_drops);
        for (&orig, &energy) in node_map.iter().zip(&phase.node_energy) {
            add(&mut self.node_energy[orig.index()], energy);
        }
        for (&orig, &load) in edge_map.iter().zip(&phase.edge_congestion) {
            add(&mut self.edge_congestion[orig.index()], load);
        }
    }

    /// Charges `rounds` more rounds of time, saturating.
    pub fn charge_rounds(&mut self, rounds: u64) {
        add(&mut self.rounds, rounds);
    }

    /// Charges `rounds` awake rounds to each of `nodes` (a node named twice
    /// is charged twice), saturating.
    pub fn charge_awake(&mut self, nodes: impl IntoIterator<Item = NodeId>, rounds: u64) {
        for v in nodes {
            add(&mut self.node_energy[v.index()], rounds);
        }
    }

    /// Charges `k` messages over each of `edges` (an edge named twice is
    /// charged twice): each edge's congestion and the message total grow
    /// together, saturating.
    pub fn charge_messages(&mut self, edges: impl IntoIterator<Item = EdgeId>, k: u64) {
        for e in edges {
            add(&mut self.edge_congestion[e.index()], k);
            add(&mut self.messages, k);
        }
    }

    /// Caps every node's energy at the run's rounds: closed-form awake bounds
    /// carry additive slack, but no node is awake longer than the run.
    pub fn cap_energy_at_rounds(&mut self) {
        let rounds = self.rounds;
        for e in &mut self.node_energy {
            *e = (*e).min(rounds);
        }
    }

    /// Multiplies the time and energy accounting by `factor`. Used to charge
    /// "megarounds" (Section 3.1.3 of the paper): when `k` subroutines share
    /// an edge, each simulated round stands for `k` model rounds and an awake
    /// node is awake for all `k` of them.
    pub fn charge_megaround(&mut self, factor: u64) {
        self.rounds = self.rounds.saturating_mul(factor);
        for e in &mut self.node_energy {
            *e = e.saturating_mul(factor);
        }
    }
}

/// Adds `amount` to `*total`, saturating at `u64::MAX`: the one sum every
/// charge and every merge makes, so a huge total reads as `u64::MAX`, never
/// as a wrapped underestimate.
fn add(total: &mut u64, amount: u64) {
    *total = total.saturating_add(amount);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, m: usize, rounds: u64) -> Metrics {
        let mut x = Metrics::zero(n, m);
        x.rounds = rounds;
        x.messages = 10;
        for e in x.edge_congestion.iter_mut() {
            *e = 2;
        }
        for v in x.node_energy.iter_mut() {
            *v = 3;
        }
        x
    }

    /// Merges `phase` after `a`, both measured on one graph: identity maps.
    fn merge_after(a: &mut Metrics, phase: &Metrics) {
        let nodes: Vec<NodeId> = (0..phase.node_energy.len() as u32).map(NodeId).collect();
        let edges: Vec<EdgeId> = (0..phase.edge_congestion.len() as u32).map(EdgeId).collect();
        a.merge_sequential_mapped(phase, &nodes, &edges);
    }

    /// Every scalar field, rounds first.
    fn scalars(x: &mut Metrics) -> [&mut u64; 4] {
        [&mut x.rounds, &mut x.messages, &mut x.messages_lost, &mut x.fault_drops]
    }

    #[test]
    fn zero_metrics() {
        let z = Metrics::zero(3, 4);
        assert_eq!(z.max_congestion(), 0);
        assert_eq!(z.max_energy(), 0);
        assert_eq!(z.mean_energy(), 0.0);
    }

    #[test]
    fn sequential_merge_adds_rounds() {
        let mut a = sample(2, 3, 5);
        a.messages_lost = 1;
        a.fault_drops = 4;
        let mut b = sample(2, 3, 7);
        b.messages_lost = 2;
        b.fault_drops = 5;
        merge_after(&mut a, &b);
        assert_eq!(a.rounds, 12);
        assert_eq!(a.messages, 20);
        assert_eq!(a.max_congestion(), 4);
        assert_eq!(a.max_energy(), 6);
        assert_eq!(a.messages_lost, 3);
        assert_eq!(a.fault_drops, 9);
    }

    #[test]
    #[should_panic]
    fn merging_mismatched_sizes_panics() {
        let mut a = sample(2, 3, 5);
        let b = sample(3, 3, 5);
        merge_after(&mut a, &b);
    }

    #[test]
    fn remap_attributes_to_original_ids() {
        let mut sub = Metrics::zero(2, 1);
        sub.rounds = 4;
        sub.messages = 6;
        sub.node_energy = vec![5, 7];
        sub.edge_congestion = vec![9];
        let out = sub.remap(&[NodeId(3), NodeId(1)], &[EdgeId(2)], 5, 4);
        assert_eq!(out.node_energy, vec![0, 7, 0, 5, 0]);
        assert_eq!(out.edge_congestion, vec![0, 0, 9, 0]);
        assert_eq!(out.rounds, 4);
        assert_eq!(out.messages, 6);
    }

    #[test]
    fn mapped_merge_is_remap_then_merge() {
        let mut sub = sample(3, 2, 4);
        sub.node_energy = vec![5, 7, 1];
        sub.edge_congestion = vec![9, 2];
        sub.messages_lost = 1;
        sub.fault_drops = 2;
        // A repeated target accumulates, as in `remap`.
        let (node_map, edge_map) = ([NodeId(3), NodeId(1), NodeId(3)], [EdgeId(2), EdgeId(0)]);
        let mut direct = sample(5, 4, 11);
        let mut via_remap = direct.clone();
        direct.merge_sequential_mapped(&sub, &node_map, &edge_map);
        merge_after(&mut via_remap, &sub.remap(&node_map, &edge_map, 5, 4));
        assert_eq!(direct, via_remap);
        assert_eq!(direct.node_energy, vec![3, 10, 3, 9, 3]);
    }

    #[test]
    fn sequential_merges_saturate_time_and_energy() {
        let huge = sample(2, 1, u64::MAX / 4 * 3);
        let mut merged = huge.clone();
        merged.node_energy = vec![u64::MAX - 1, 0];
        merge_after(&mut merged, &huge);
        assert_eq!(merged.rounds, u64::MAX);
        assert_eq!(merged.node_energy, vec![u64::MAX, 3]);
        assert_eq!(merged.mean_energy(), (u64::MAX as f64 + 3.0) / 2.0);
    }

    #[test]
    fn every_merge_saturates() {
        let mut near = Metrics::zero(2, 2);
        for field in scalars(&mut near) {
            *field = u64::MAX - 1;
        }
        near.node_energy = vec![u64::MAX - 1, 1];
        near.edge_congestion = vec![u64::MAX - 1, 1];
        let mut phase = Metrics::zero(2, 2);
        for field in scalars(&mut phase) {
            *field = 1;
        }
        phase.node_energy = vec![1, 1];
        phase.edge_congestion = vec![1, 1];
        // Node 0 and edge 0 named twice: each receives both entries.
        let (node_map, edge_map) = ([NodeId(0); 2], [EdgeId(0); 2]);
        let mut direct = near.clone();
        direct.merge_sequential_mapped(&phase, &node_map, &edge_map);
        // `remap` scatters `near` onto node 0 and edge 0 first.
        let mut via_remap = near.remap(&node_map, &edge_map, 2, 2);
        assert_eq!((via_remap.node_energy[0], via_remap.edge_congestion[0]), (u64::MAX, u64::MAX));
        via_remap.merge_sequential_mapped(&phase, &node_map, &edge_map);
        for mut merged in [direct, via_remap] {
            assert_eq!((merged.node_energy[0], merged.edge_congestion[0]), (u64::MAX, u64::MAX));
            assert!(scalars(&mut merged).iter().all(|field| **field == u64::MAX));
        }
    }

    #[test]
    fn every_charge_saturates() {
        let mut x = sample(2, 2, u64::MAX - 1);
        x.messages = u64::MAX - 1;
        x.node_energy = vec![u64::MAX - 1, 0];
        x.edge_congestion = vec![u64::MAX - 1, 0];
        x.charge_rounds(5);
        x.charge_awake([NodeId(0)], 5);
        x.charge_messages([EdgeId(0)], 5);
        assert_eq!(x.rounds, u64::MAX);
        assert_eq!(x.node_energy, vec![u64::MAX, 0]);
        assert_eq!(x.edge_congestion, vec![u64::MAX, 0]);
        assert_eq!(x.messages, u64::MAX);
        // The total saturates even where no edge does.
        let mut y = Metrics::zero(1, 2);
        y.charge_messages([EdgeId(0), EdgeId(1)], u64::MAX / 3 * 2);
        assert_eq!(y.edge_congestion, vec![u64::MAX / 3 * 2; 2]);
        assert_eq!(y.messages, u64::MAX);
    }

    #[test]
    fn a_message_charge_moves_its_edges_and_the_total_together() {
        let mut x = sample(3, 4, 5);
        x.charge_messages([EdgeId(1), EdgeId(3), EdgeId(1)], 7);
        assert_eq!(x.edge_congestion, vec![2, 16, 2, 9]);
        assert_eq!(x.messages, 10 + 21);
        assert_eq!((x.rounds, x.node_energy.clone()), (5, vec![3; 3]));
        let mut empty = Metrics::zero(2, 2);
        empty.charge_messages(std::iter::empty(), 9);
        assert_eq!(empty, Metrics::zero(2, 2));
    }

    #[test]
    fn an_awake_charge_touches_only_the_nodes_named() {
        let mut x = sample(4, 2, 5);
        x.charge_awake([NodeId(2), NodeId(0), NodeId(2)], 4);
        assert_eq!(x.node_energy, vec![7, 3, 11, 3]);
        assert_eq!((x.rounds, x.messages), (5, 10));
        assert_eq!(x.edge_congestion, vec![2, 2]);
        x.charge_rounds(6);
        assert_eq!(x.rounds, 11);
        assert_eq!(x.node_energy, vec![7, 3, 11, 3]);
    }

    #[test]
    fn the_energy_cap_is_the_run_length() {
        let mut x = sample(3, 1, 5);
        x.node_energy = vec![9, 5, 1];
        x.cap_energy_at_rounds();
        assert_eq!(x.node_energy, vec![5, 5, 1]);
        assert_eq!((x.rounds, x.messages, x.edge_congestion.clone()), (5, 10, vec![2]));
    }

    #[test]
    fn megaround_charging_scales_time_and_energy_not_messages() {
        let mut a = sample(2, 2, 5);
        a.charge_megaround(3);
        assert_eq!(a.rounds, 15);
        assert_eq!(a.max_energy(), 9);
        assert_eq!(a.messages, 10);
        assert_eq!(a.max_congestion(), 2);
    }
}
