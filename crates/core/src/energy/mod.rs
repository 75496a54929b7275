//! The sleeping-model ("energy") algorithms of Section 3 of the paper.
//!
//! * [`bfs`] — `D`-thresholded BFS with `poly(log n)` energy per node and
//!   `Õ(D)` time, coordinated through a layered sparse cover
//!   (Theorems 3.8, 3.13, 3.14).
//! * [`cssp`] — weighted closest-source shortest paths with `Õ(n)` time and
//!   `poly(log n)` energy (Theorem 3.15), obtained by plugging the low-energy
//!   BFS and the low-energy spanning forest into the Section-2 recursion.

mod bfs;
mod cssp;
#[cfg(test)]
mod reference;

pub(crate) use bfs::low_energy_bfs;
pub(crate) use cssp::low_energy_cssp;

/// The `u64` constants of [`AlgoConfig`](crate::AlgoConfig)'s sleeping-model
/// block, for the tests that drive each of them to its extremes.
#[cfg(test)]
const SLEEPING_MODEL_FIELDS: [fn(&mut crate::AlgoConfig) -> &mut u64; 4] = [
    |c| &mut c.min_bfs_slowdown,
    |c| &mut c.slowdown_safety_factor,
    |c| &mut c.cover_build_round_factor,
    |c| &mut c.cover_build_energy_factor,
];
