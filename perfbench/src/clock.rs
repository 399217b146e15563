//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark shares its host with other work, and that work slows
//! every repetition of a run by a similar factor for seconds to minutes
//! at a time. A fixed kernel that uses nothing from the repository is
//! therefore timed right before every measured interval and once after
//! the last; each interval is divided by the mean of the kernel times
//! on either side and multiplied by the kernel's nominal time. The
//! result is the interval in *calibrated seconds*: what it would have
//! taken with the kernel running at its nominal speed. A change to the
//! repository cannot change the kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on an otherwise idle host of the kind the
/// benchmark was tuned on (2-core x86-64 container).
pub const NOMINAL_S: f64 = 0.01;

/// Table size for the kernel: 2 MiB of `u64`, about the working set
/// of one simulated row.
const WORDS: usize = 1 << 18;
const STEPS: u64 = 200_000;
/// Kernel runs per sample; the sample is the fastest, so a momentary
/// stall does not count as a slow host.
const RUNS: usize = 3;

/// A small discrete-event-like loop: a 42-deep binary heap, random
/// reads and writes over `table`, and floating-point work. The table
/// is refilled, not reallocated, so sampling leaves the allocator (and
/// the peak-RSS figures) alone.
fn kernel(table: &mut [u64]) -> u64 {
    for (i, w) in table.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..42).map(|i| Reverse((i, i))).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0.0f64;
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse((at, id)) = heap.pop().expect("heap stays at 42");
        let slot = x as usize & (WORDS - 1);
        table[slot] = table[slot].wrapping_add(id ^ step);
        acc += (table[(slot * 7) & (WORDS - 1)] as f64).sqrt();
        heap.push(Reverse((at + (x & 1023), id)));
    }
    acc as u64 ^ table[x as usize & (WORDS - 1)]
}

/// One calibration sample: the fastest of [`RUNS`] rounds, each the
/// wall time of one kernel per table run at once, one per thread.
fn sample(tables: &mut [Vec<u64>]) -> f64 {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            if let [table] = tables {
                black_box(kernel(table));
            } else {
                std::thread::scope(|s| {
                    for table in tables.iter_mut() {
                        s.spawn(move || black_box(kernel(table)));
                    }
                });
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

enum Entry {
    Kernel(f64),
    Interval(usize, f64),
}

/// A run's sequence of kernel samples and measured intervals.
pub struct Clock {
    tables: Vec<Vec<u64>>,
    entries: Vec<Entry>,
}

impl Clock {
    /// Calibrates on `width` threads: as many as the measured work
    /// keeps busy.
    pub fn new(width: usize) -> Self {
        Clock {
            tables: vec![vec![0; WORDS]; width.max(1)],
            entries: Vec::new(),
        }
    }

    /// Runs `f` after a kernel sample and records its wall time in
    /// `series`; returns the result and the raw seconds.
    pub fn measure<T>(&mut self, series: usize, f: impl FnOnce() -> T) -> (T, f64) {
        self.entries.push(Entry::Kernel(sample(&mut self.tables)));
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.entries.push(Entry::Interval(series, secs));
        (out, secs)
    }

    /// Takes the closing kernel sample after the last interval.
    pub fn close(&mut self) {
        self.entries.push(Entry::Kernel(sample(&mut self.tables)));
    }

    /// Every interval of `series` in calibrated seconds. Call after
    /// [`close`](Self::close).
    pub fn calibrated(&self, series: usize) -> Vec<f64> {
        let kernel = |e: Option<&Entry>| match e {
            Some(Entry::Kernel(s)) => *s,
            _ => unreachable!("every interval sits between two kernel samples"),
        };
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Interval(s, secs) if *s == series => {
                    let around =
                        (kernel(self.entries.get(i - 1)) + kernel(self.entries.get(i + 1))) / 2.0;
                    Some(secs * NOMINAL_S / around)
                }
                _ => None,
            })
            .collect()
    }

    /// Median kernel time over the run, in seconds.
    pub fn kernel_median(&self) -> f64 {
        let samples: Vec<f64> = self
            .entries
            .iter()
            .filter_map(|e| match e {
                Entry::Kernel(s) => Some(*s),
                Entry::Interval(..) => None,
            })
            .collect();
        crate::median(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_with_the_kernel_around_them() {
        let mut clock = Clock::new(1);
        clock.measure(0, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        clock.measure(1, || ());
        clock.close();
        let raw = clock.calibrated(0)[0] * clock.kernel_median() / NOMINAL_S;
        assert!(raw >= 0.005, "{raw}");
        assert_eq!(clock.calibrated(1).len(), 1);
    }
}
