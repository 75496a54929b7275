//! Calibrated timing: every time the ledger reports is wall time divided by
//! the wall time of a fixed arithmetic kernel run just before and just after.
//!
//! The hosts this ledger is read on switch, every ten to twenty seconds,
//! between a fast and a slow mode a quarter apart (a neighbour on the core).
//! Measured here over ten 12 s runs of `sssp-random`: the per-run minimum of
//! the batch wall times was 219 ms in seven runs and 232, 245 and 287 ms in
//! three; the per-run median moved 222..304 ms when the modes were mixed. The
//! kernel slows by nearly the same factor as the batch beside it, so the
//! *ratio* of the two holds still: over six 8 s runs per workload its per-run
//! median moved 0.7..4.3 % (interquartile, of the median) where the minimum
//! moved 8..24 % and the median 1..21 %. Times are therefore kept in kernel
//! units and scaled by the kernel's nominal time, so that they read as
//! milliseconds of a host that runs the kernel in exactly
//! [`KERNEL_NOMINAL_MS`]. Raw wall times are the per-layer `harness.*` metrics.

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes in the fast mode of the host the ledger was first
/// recorded on (2-core KVM guest).
const KERNEL_NOMINAL_MS: f64 = 3.0;

/// Wall milliseconds of a fixed piece of register arithmetic.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x = 88_172_645_463_325_252_u64;
    let mut sum = 0u64;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall time as the clock read it.
    pub wall_ms: f64,
    /// Wall time of the kernel: mean of the run before and the run after.
    pub kernel_ms: f64,
}

impl Timing {
    /// Times `timed`, which returns its result and its own wall milliseconds,
    /// between two kernel runs.
    pub fn around<T>(timed: impl FnOnce() -> (T, f64)) -> (T, Timing) {
        let before = kernel_ms();
        let (out, wall_ms) = timed();
        let after = kernel_ms();
        (out, Timing { wall_ms, kernel_ms: (before + after) / 2.0 })
    }

    pub fn of<T>(f: impl FnOnce() -> T) -> (T, Timing) {
        Timing::around(|| {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64() * 1e3)
        })
    }

    /// `wall_ms`, read beside this timing's kernel runs, as milliseconds on
    /// the nominal host.
    pub fn calibrate(self, wall_ms: f64) -> f64 {
        wall_ms / self.kernel_ms * KERNEL_NOMINAL_MS
    }

    pub fn calibrated_ms(self) -> f64 {
        self.calibrate(self.wall_ms)
    }
}
