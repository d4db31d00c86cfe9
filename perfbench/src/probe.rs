//! Host memory-contention probe, a diagnostic printed beside the timings.
//!
//! On a shared host, other tenants' traffic through the shared last-level
//! cache and memory moves the speed of every job by up to 1.5× over tens
//! of seconds.  The probe times a dependent random walk through an 8 MiB
//! table after every job and reports the run's median latency per load,
//! so that a reader comparing two runs can see whether the host was
//! contended.  It is not a calibration: the walk continues where the last
//! sample stopped, so whether its entries are still cached depends on the
//! jobs run in between, and no timing is corrected by it.

use std::time::Instant;

/// Entries of the walk's table (8 MiB of `usize`).
const ENTRIES: usize = 1 << 20;
/// Dependent loads per sample (~10 ms).
const LOADS: usize = 100_000;

pub struct Probe {
    /// `next[i]` is the entry after `i` on one cycle through every entry.
    next: Vec<usize>,
    /// Where the walk stopped, so consecutive samples continue the cycle.
    at: usize,
    samples_ns: Vec<f64>,
}

impl Probe {
    /// Builds a single random cycle through the table (Sattolo's shuffle,
    /// seeded with a fixed xorshift so every run walks the same cycle).
    pub fn new() -> Self {
        let mut next: Vec<usize> = (0..ENTRIES).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..ENTRIES).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        Self {
            next,
            at: 0,
            samples_ns: Vec::new(),
        }
    }

    /// Times one sample of dependent loads and keeps its latency per load.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..LOADS {
            at = self.next[at];
        }
        self.at = std::hint::black_box(at);
        self.samples_ns
            .push(start.elapsed().as_nanos() as f64 / LOADS as f64);
    }

    /// The median latency per load over the run's samples, in ns.
    pub fn median_ns(&self) -> f64 {
        crate::median(&self.samples_ns)
    }
}
