//! Host-speed probe. The benchmark host is shared: its speed for this
//! single-threaded simulator drifts by tens of percent within seconds
//! and over minutes, while the process stays on the CPU the whole time
//! (neighbours contend for caches and memory, not for the CPU). A fixed
//! piece of work (allocate, fill and sort small vectors: allocator,
//! branches and caches, as in the simulator) runs between measured
//! blocks. Each block's host time is scaled by the speed the probes on
//! either side of it saw, relative to `NOMINAL_S`.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Probe time on an uncontended reference host. A round constant: it
/// only fixes the scale of normalised figures.
const NOMINAL_S: f64 = 0.008;
/// Block time per probe sample: a longer block gets more samples at its
/// boundary, so every block's speed is as well estimated and probing
/// costs about 5% of the run.
const SAMPLE_EVERY_S: f64 = 0.2;
/// Samples at one block boundary, at most.
const MAX_SAMPLES: usize = 9;

fn work() -> u64 {
    let mut acc = 0u64;
    for i in 0..200u32 {
        let mut v: Vec<u32> = (0..4096u32)
            .map(|x| x.wrapping_mul(2_654_435_761) ^ i)
            .collect();
        v.sort_unstable();
        acc = acc.wrapping_add(black_box(&v)[100] as u64);
    }
    acc
}

fn sample() -> f64 {
    let t = Instant::now();
    black_box(work());
    t.elapsed().as_secs_f64()
}

/// Median of `n` fresh samples.
fn boundary(n: usize) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| sample()).collect();
    median(&v)
}

pub struct Probe {
    last: f64,
    samples: Vec<f64>,
}

impl Probe {
    /// Start probing; takes the first boundary now.
    pub fn new() -> Self {
        let last = sample();
        Probe {
            last,
            samples: vec![last],
        }
    }

    /// Host speed over a block of `block_s` seconds that ended just now,
    /// relative to the reference host (above 1 is faster): the mean of
    /// the probe times at the block's two boundaries. Multiply the
    /// block's times by it, and divide its rates by it, to normalise
    /// them.
    pub fn speed(&mut self, block_s: f64) -> f64 {
        let n = ((block_s / SAMPLE_EVERY_S).ceil() as usize).clamp(1, MAX_SAMPLES);
        let now = boundary(n);
        let speed = NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        self.samples.push(now);
        speed
    }

    pub fn summary(&self) -> String {
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        format!(
            "{} probe boundaries, mean {:.3} ms, host speed {:.4}",
            self.samples.len(),
            mean * 1e3,
            NOMINAL_S / mean
        )
    }
}
