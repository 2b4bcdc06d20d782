//! Host-speed calibration.
//!
//! The host this benchmark runs on drifts by ±15–25% over periods of
//! about 30 s (a 2-vCPU VM sharing its machine). The drift slows every
//! kind of work alike: over 276 passes of `paper-grid`, each pass's time
//! correlated at 0.91 with the time of a fixed kernel run beside it.
//! Thread CPU time drifts just as much, so it does not help.
//!
//! So each timed sample is followed by calibration slices, a fixed
//! kernel of this crate that no change to the simulator touches. The
//! sample is then expressed in seconds of a host on which one slice
//! takes [`NOMINAL_SLICE_S`]: `time / factor` and `rate * factor`, with
//! `factor = slice time / NOMINAL_SLICE_S`. The raw medians and the
//! factors are printed on the line before the result.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words in the kernel's table: 512 KiB, larger than L1 and L2, so the
/// kernel feels cache contention as the simulator does.
const TABLE_WORDS: usize = 1 << 17;

/// Random table updates per slice (~2 ms).
const SLICE_STEPS: u32 = 200_000;

/// Seconds one slice takes on the reference host: the median slice time
/// of a 2-vCPU Intel Xeon VM, rounded. Normalised
/// metrics read as raw ones would on that host at that time.
pub const NOMINAL_SLICE_S: f64 = 1.8e-3;

/// The calibration kernel: a fixed xorshift walk of dependent loads and
/// stores over the table.
#[inline(never)]
fn kernel(table: &mut [u32], steps: u32) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x as usize ^ acc as usize) & (TABLE_WORDS - 1);
        let v = table[idx];
        if v & 1 == 0 {
            table[idx] = v.wrapping_add(i);
        } else {
            acc = acc.wrapping_add(u64::from(v));
        }
    }
    acc
}

fn slice_on(table: &mut [u32]) -> f64 {
    let t0 = Instant::now();
    table.fill(0);
    black_box(kernel(black_box(table), SLICE_STEPS));
    t0.elapsed().as_secs_f64() / NOMINAL_SLICE_S
}

/// Slices of ~3% of `sample`'s time, at least one.
fn slices_for(sample: Duration) -> usize {
    ((sample.as_secs_f64() * 0.03 / NOMINAL_SLICE_S) as usize).clamp(1, 32)
}

/// Runs calibration slices, on one thread or on several at once.
pub struct HostSpeed {
    tables: Vec<Vec<u32>>,
}

impl HostSpeed {
    /// Calibration for samples that run on up to `threads` threads.
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            tables: vec![vec![0; TABLE_WORDS]; threads.max(1)],
        }
    }

    /// Run one slice; returns its host-speed factor (1 on the reference
    /// host, 1.2 on a host 20% slower).
    pub fn slice(&mut self) -> f64 {
        slice_on(&mut self.tables[0])
    }

    /// The mean factor of enough slices to take ~3% of `sample`, so a
    /// long sample is calibrated as closely as a short one.
    pub fn factor_for(&mut self, sample: Duration) -> f64 {
        let n = slices_for(sample);
        (0..n).map(|_| self.slice()).sum::<f64>() / n as f64
    }

    /// [`factor_for`](Self::factor_for) for a sample that ran on every
    /// thread: each round runs one slice on each thread at once, so time
    /// the hypervisor steals from any of the processors shows.
    pub fn factor_for_parallel(&mut self, sample: Duration) -> f64 {
        let n = slices_for(sample);
        let mut sum = 0.0;
        for _ in 0..n {
            sum += std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .tables
                    .iter_mut()
                    .map(|t| s.spawn(move || slice_on(t)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration slice panicked"))
                    .sum::<f64>()
            }) / self.tables.len() as f64;
        }
        sum / n as f64
    }
}
