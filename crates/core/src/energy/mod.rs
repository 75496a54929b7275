//! The sleeping-model ("energy") algorithms of Section 3 of the paper.
//!
//! * [`bfs`] — `D`-thresholded BFS with `poly(log n)` energy per node and
//!   `Õ(D)` time, coordinated through a layered sparse cover
//!   (Theorems 3.8, 3.13, 3.14).
//! * [`cssp`] — weighted closest-source shortest paths with `Õ(n)` time and
//!   `poly(log n)` energy (Theorem 3.15), obtained by plugging the low-energy
//!   BFS and the low-energy spanning forest into the Section-2 recursion.

use congest_cover::{ClusterSchedule, LayeredCover};

mod bfs;
mod cssp;
#[cfg(test)]
mod reference;

pub(crate) use bfs::low_energy_bfs;
pub(crate) use cssp::low_energy_cssp;

/// The wavefront's least slowdown, in rounds per hop, before the cover's
/// activation latency raises it (Lemma 3.7; the paper's `Θ(log³ n)`).
const MIN_BFS_SLOWDOWN: u64 = 2;
/// Safety factor on the slowdown the cover requires.
const SLOWDOWN_SAFETY_FACTOR: u64 = 2;
/// Rounds charged per level of layered-cover construction, as a multiple of
/// `B^j · log² n` (Theorem 3.12 charges `O(B^j log^15 n)`; see
/// `docs/COVERS.md`, "Energy accounting").
const COVER_BUILD_ROUND_FACTOR: u64 = 4;
/// Awake rounds charged to every node per level of layered-cover
/// construction, as a multiple of `log² n` (Theorem 3.12 charges
/// `O(log^25 n)`).
const COVER_BUILD_ENERGY_FACTOR: u64 = 4;

/// The BFS slowdown over `cover`: rounds per wavefront hop, slow enough that
/// an activation signal (the parent cluster's propagation latency) always
/// crosses the `B^{j+1}/2` buffer zone before the wavefront does
/// (Lemma 3.7).
fn slowdown(cover: &LayeredCover) -> u64 {
    let mut slowdown = MIN_BFS_SLOWDOWN;
    for j in 1..cover.level_count() {
        let latency = ClusterSchedule::new(cover.radius(j), cover.levels[j].max_tree_depth())
            .propagation_latency();
        slowdown = slowdown.max(latency.div_ceil((cover.radius(j) / 2).max(1)));
    }
    slowdown.saturating_mul(SLOWDOWN_SAFETY_FACTOR)
}

/// The cost of constructing `cover` on `n` nodes (Theorems 3.12/3.13),
/// charged from the measured level radii: `(rounds, awake rounds per node)`,
/// each level costing `B^j · log² n` rounds and `log² n` awake rounds times
/// its factor.
fn cover_build_charge(cover: &LayeredCover, n: usize) -> (u64, u64) {
    let log2n = (n.max(2) as f64).log2().ceil() as u64;
    let log2n_squared = log2n * log2n;
    let rounds = (0..cover.level_count()).fold(0u64, |rounds, j| {
        let level = COVER_BUILD_ROUND_FACTOR.saturating_mul(cover.radius(j));
        rounds.saturating_add(level.saturating_mul(log2n_squared))
    });
    let energy = COVER_BUILD_ENERGY_FACTOR * log2n_squared * cover.level_count() as u64;
    (rounds, energy)
}
