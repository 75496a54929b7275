//! Allocation regression test for the batch-query hot path and the builder.
//!
//! A counting global allocator wraps [`std::alloc::System`] (the same probe
//! as `crates/sim/tests/alloc_regression.rs`). The contract of
//! [`DistanceOracle::query_into`]:
//!
//! * at `threads == 1` a batch of any size performs **zero** heap
//!   allocations — the kernel is a pure scan of two rows of the immutable
//!   table;
//! * at `threads > 1` the allocation count is `O(threads)` (the scoped
//!   thread handles) and **independent of the batch size**.
//!
//! And of the write side: [`LevelBuilder`] grows one table per level in place
//! and [`DistanceOracle::from_levels`] allocates the oracle's table once, so
//! assembling an oracle from clusters already in hand costs two buffers per
//! slot of row width plus three — whatever `n` is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::{Distance, NodeId};
use congest_oracle::{DistanceOracle, LevelBuilder};

/// Counts every allocation (alloc, alloc_zeroed, realloc); frees are not
/// interesting here — a free implies a matching earlier allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System::alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's `Layout` contract unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's `Layout` contract unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's pointer/layout contract unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer/layout contract unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations of one call of `run`: the least of three repeats. The counter
/// is process-global and libtest's own thread allocates now and then — in one
/// repeat, where a regression of `run` is in every one.
fn allocations_of<T>(mut run: impl FnMut() -> T) -> u64 {
    let once = |_| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = run();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        drop(out);
        after - before
    };
    (0..3).map(once).min().expect("three repeats")
}

/// The clusters of a synthetic two-level oracle over a unit-weight cycle of
/// `n` nodes: level d=1 has one radius-1 ball per node, the top level one
/// cluster spanning the cycle (center 0, tree distances along the shorter
/// arc). The shapes (overlapping memberships, multi-level scan) exercise
/// exactly what a cover-built oracle exercises; no solver runs are needed
/// here.
struct CycleClusters {
    n: u32,
    balls: Vec<([NodeId; 3], [Distance; 3])>,
    top: (Vec<NodeId>, Vec<Distance>),
}

impl CycleClusters {
    fn new(n: u32) -> Self {
        let balls = (0..n)
            .map(|c| {
                let mut members = [NodeId((c + n - 1) % n), NodeId(c), NodeId((c + 1) % n)];
                members.sort();
                let dist =
                    members
                        .map(|m| if m == NodeId(c) { Distance::ZERO } else { Distance::Finite(1) });
                (members, dist)
            })
            .collect();
        let members = (0..n).map(NodeId).collect();
        let dist = (0..n).map(|v| Distance::Finite(u64::from(v.min(n - v) % n))).collect();
        CycleClusters { n, balls, top: (members, dist) }
    }

    /// Everything the oracle crate does in a build, and nothing else.
    fn assemble(&self) -> DistanceOracle {
        let mut l1 = LevelBuilder::new(self.n, 1);
        for (members, dist) in &self.balls {
            l1.push_cluster(members, dist);
        }
        let mut top = LevelBuilder::new(self.n, u64::from(self.n));
        top.push_cluster(&self.top.0, &self.top.1);
        DistanceOracle::from_levels(self.n, vec![l1.finish(), top.finish()])
    }
}

fn random_pairs(n: u32, count: usize, mut state: u64) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (state >> 33) as u32 % n;
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (state >> 33) as u32 % n;
        pairs.push((NodeId(u), NodeId(v)));
    }
    pairs
}

/// One test body for every assertion: tests in one binary run on parallel
/// threads by default, and a concurrently running test would pollute the
/// process-global allocation counter.
#[test]
fn batch_queries_allocate_nothing_per_query() {
    let n = 96;
    let clusters = CycleClusters::new(n);
    let oracle = clusters.assemble();
    let small = random_pairs(n, 500, 7);
    let large = random_pairs(n, 20_000, 11);
    let mut out_small = vec![Distance::Infinite; small.len()];
    let mut out_large = vec![Distance::Infinite; large.len()];

    // Warm up once (lazy runtime initialization must not count against the
    // steady state), then measure.
    oracle.query_into(&small, &mut out_small, 1);

    // Sequential batches: zero allocations, whatever the batch size.
    for (pairs, out) in [(&small, &mut out_small), (&large, &mut out_large)] {
        let delta = allocations_of(|| oracle.query_into(pairs, out, 1));
        assert_eq!(delta, 0, "a sequential batch of {} queries allocated {delta}x", pairs.len());
    }

    // Threaded batches: the per-call allocation overhead is the scoped
    // thread machinery — it must not grow with the batch size.
    let threads = 4;
    oracle.query_into(&small, &mut out_small, threads); // warm-up
    let small_delta = allocations_of(|| oracle.query_into(&small, &mut out_small, threads));
    let large_delta = allocations_of(|| oracle.query_into(&large, &mut out_large, threads));
    assert!(
        large_delta <= small_delta.max(1) * 2,
        "a 40x larger batch allocated {large_delta}x vs {small_delta}x at {threads} threads: \
         the threaded path must allocate O(threads), not O(queries)"
    );

    // The builder: two buffers per slot of row width (each level's id and
    // distance columns, regrown in place when the level widens), the oracle's
    // two columns and the `Vec` of levels — not a list per node and level.
    // Ten times the nodes, the same count. (This is also what shows the probe
    // observes the allocator.)
    for clusters in [&clusters, &CycleClusters::new(10 * n)] {
        let delta = allocations_of(|| clusters.assemble());
        let rebuilt = clusters.assemble();
        let width = u64::from(rebuilt.stats().row_width);
        assert_eq!(width, 3 + 1, "three slots of radius-1 balls, one for the cycle");
        assert!(
            (1..=2 * width + 3).contains(&delta),
            "assembling {} nodes at row width {width} allocated {delta}x",
            clusters.n
        );
        assert_eq!(rebuilt.stats().bytes, 12 * u64::from(clusters.n) * width);
    }
    assert_eq!(clusters.assemble(), oracle);

    // And the threaded outputs agree with the sequential ones bit for bit.
    let mut seq = vec![Distance::Infinite; large.len()];
    oracle.query_into(&large, &mut seq, 1);
    assert_eq!(seq, out_large);
}
