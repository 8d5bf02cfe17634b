//! The calibration kernel and calibrated seconds.
//!
//! This box is a small virtual machine whose speed drifts by tens of
//! percent over minutes (steal, host frequency, cache neighbours), so a
//! raw wall-clock median cannot carry a claim.  Every timed region is
//! therefore bracketed by a fixed kernel that belongs to the benchmark —
//! it calls no function of the repo, so no later change can speed it up —
//! and the region's time is scaled by how slow the kernel ran next to it:
//!
//! `calibrated = raw × CAL_NOMINAL_S ÷ mean(kernel before, kernel after)`
//!
//! The kernel has a cache-resident part (a 5-point sweep, compute and L2
//! bound) and a memory part (a triad plus a gather over 16 MiB), because
//! the workloads slow down with both.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the box the benchmark was written on.
/// Fixed in source: it only sets the scale of calibrated seconds.
pub const CAL_NOMINAL_S: f64 = 0.0165;

const SIDE: usize = 256;
const SWEEPS: usize = 300;
const STREAM_LEN: usize = 1 << 20; // f64s: 8 MiB per array, two arrays
const GATHERS: usize = 1 << 20;

/// The kernel's arrays, allocated once per process.
pub struct Calibrator {
    a: Vec<f64>,
    b: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    index: Vec<u32>,
    /// Every kernel time measured so far (`harness.cal_s`, `cal_spread`).
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        // A fixed multiplicative-congruential walk: the gather indices are
        // the same in every process.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let index = (0..GATHERS)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as usize % STREAM_LEN) as u32
            })
            .collect();
        Calibrator {
            a: vec![0.0; SIDE * SIDE],
            b: vec![0.0; SIDE * SIDE],
            x: (0..STREAM_LEN).map(|i| (i % 1013) as f64).collect(),
            y: vec![1.0; STREAM_LEN],
            index,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        // Refilled on every run: sweeping the same field thousands of
        // times would smooth it into denormals, which run slowly.
        for (i, v) in self.a.iter_mut().enumerate() {
            *v = (i % 97) as f64 * 0.01;
        }
        for _ in 0..SWEEPS {
            for r in 1..SIDE - 1 {
                let (up, mid, down) = (
                    &self.a[(r - 1) * SIDE..r * SIDE],
                    &self.a[r * SIDE..(r + 1) * SIDE],
                    &self.a[(r + 1) * SIDE..(r + 2) * SIDE],
                );
                let out = &mut self.b[r * SIDE..(r + 1) * SIDE];
                for c in 1..SIDE - 1 {
                    out[c] = 0.2 * (mid[c] + mid[c - 1] + mid[c + 1] + up[c] + down[c]);
                }
            }
            std::mem::swap(&mut self.a, &mut self.b);
        }
        for (y, x) in self.y.iter_mut().zip(&self.x) {
            *y = 0.5 * *y + 0.25 * x;
        }
        let mut gathered = 0.0;
        for &i in &self.index {
            gathered += self.y[i as usize];
        }
        black_box((gathered, self.a[SIDE + 1]));
        let seconds = start.elapsed().as_secs_f64();
        self.samples.push(seconds);
        seconds
    }

    /// Times `f` between two kernel runs and returns its result with the
    /// raw and the calibrated seconds.  `before` is the kernel time that
    /// ended just before `f` starts: consecutive regions share a kernel
    /// run, so one kernel run is paid per region.
    pub fn timed<R>(&mut self, before: f64, f: impl FnOnce() -> R) -> (R, Timing) {
        let start = Instant::now();
        let result = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.run();
        (result, Timing { raw_s, scale: scale(before, after), cal_after: after })
    }
}

/// The factor that turns raw seconds next to these two kernel runs into
/// calibrated seconds.
pub fn scale(cal_before: f64, cal_after: f64) -> f64 {
    CAL_NOMINAL_S / ((cal_before + cal_after) / 2.0)
}

/// One timed region.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    /// Multiply any raw duration measured inside the region by this.
    pub scale: f64,
    /// The closing kernel time: the next region's `before`.
    pub cal_after: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nominal_machine_leaves_seconds_unchanged() {
        assert!((scale(CAL_NOMINAL_S, CAL_NOMINAL_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_machine_running_twice_as_slow_halves_the_reading() {
        let t = Timing { raw_s: 0.4, scale: scale(2.0 * CAL_NOMINAL_S, 2.0 * CAL_NOMINAL_S), cal_after: 0.0 };
        assert!((t.raw_s * t.scale - 0.2).abs() < 1e-12);
        // The two neighbours are averaged, not the nearer one taken.
        let mixed = scale(CAL_NOMINAL_S, 3.0 * CAL_NOMINAL_S);
        assert!((mixed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let (mut one, mut two) = (Calibrator::new(), Calibrator::new());
        one.run();
        let first = one.a.clone();
        one.run();
        two.run();
        assert_eq!(one.a, first);
        assert_eq!(one.a, two.a);
        assert_eq!(one.samples.len(), 2);
    }
}
