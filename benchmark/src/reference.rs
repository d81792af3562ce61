//! Reference speed: every time the benchmark reports is scaled by how
//! fast the box was while it was measured.
//!
//! On a shared 2-core sandbox the same instructions take 115 ms one
//! second and 165 ms a few seconds later, and whole minutes run 30–40 %
//! slower than the next (host contention; the guest sees no steal time,
//! and CPU time slows down with wall time). No statistic inside a run
//! removes a drift that outlasts the run. So the benchmark owns a small
//! **reference kernel** — fixed work that shares no code with the program —
//! times it right before and right after each thing it measures, and
//! reports `measured × NOMINAL_MS ÷ (the kernel's time around it)`: the
//! time the operation would have taken had the box run at the speed at
//! which the kernel takes `NOMINAL_MS`. A slower or busier box reports the
//! same numbers; a change to the program moves them. Run-to-run spread of
//! a submit p50 drops from ≈0.23 to ≈0.06 (README, calibration record).

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's time on the calibration box in its quieter moments, ms (the
/// lowest tenth of 3000 samples; their median was 2.6). Only a scale: it
/// makes reference-speed numbers read like that box's.
pub const NOMINAL_MS: f64 = 2.0;

const SERIAL_ROUNDS: u64 = 3;
const STEPS: u64 = 1_000;
/// A kernel sample this fresh (ms) is reused as the next "before".
const FRESH_MS: f64 = 0.2;

/// Something timed by a [`Clock`].
pub struct Timed<T> {
    pub value: T,
    /// Wall time as measured, ms.
    pub raw_ms: f64,
    /// Wall time at reference speed, ms.
    pub ms: f64,
}

fn kernel_round(round: u64) -> u64 {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut buffers: Vec<Vec<u8>> = Vec::new();
    for i in round..round + STEPS {
        let key = format!("key-{}-{}", i % 700, i.wrapping_mul(2_654_435_761) % 97);
        *counts.entry(key).or_insert(0) += i;
        if i % 8 == 0 {
            buffers.push(vec![i as u8; 256 + (i as usize % 1024)]);
        }
    }
    let mut sum = 0u64;
    for (key, n) in &counts {
        sum = sum.wrapping_add(*n).wrapping_add(key.len() as u64);
    }
    for b in &buffers {
        sum = sum.wrapping_add(u64::from(b[b.len() / 2]));
    }
    sum
}

/// Half a kernel sample, timed: rounds on this thread, then two side by
/// side — the program forks and joins a thread per core in every CBO
/// round, and a box that is slow to run two threads at once slows that
/// most.
fn kernel_half() -> f64 {
    let t = Instant::now();
    let serial: u64 = (0..SERIAL_ROUNDS).map(kernel_round).sum();
    let (left, right) = std::thread::scope(|scope| {
        let left = scope.spawn(|| kernel_round(SERIAL_ROUNDS));
        let right = scope.spawn(|| kernel_round(SERIAL_ROUNDS + 1));
        (left.join(), right.join())
    });
    std::hint::black_box((serial, left.ok(), right.ok()));
    t.elapsed().as_secs_f64() * 1e3
}

pub struct Clock {
    /// When the last kernel sample ended, and what it read.
    last: Option<(Instant, f64)>,
    samples: Vec<f64>,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            last: None,
            samples: Vec::new(),
        }
    }

    /// Sample the kernel; returns its time in ms. It builds, fills, walks
    /// and drops a map of formatted strings and a pile of small buffers —
    /// the allocator, hashing and string traffic the program's
    /// interpreter, matcher and stores are made of. The mix matters:
    /// while the box's speed swung by more than 2×, this kernel moved
    /// 0.8–1.2× as much as a fixed batch of submissions did, a pure
    /// integer-mixing loop only half as much, and a loop of random DRAM
    /// reads less than that.
    pub fn sample(&mut self) -> f64 {
        // The kernel runs as two halves and the sample is twice the faster
        // one. A slow box slows both halves; a hiccup (a late thread
        // start, an interrupt) hits one, and a sample ten times too long
        // would make whatever it brackets read ten times too fast.
        let ms = 2.0 * kernel_half().min(kernel_half());
        self.last = Some((Instant::now(), ms));
        self.samples.push(ms);
        ms
    }

    /// Run `f` between two kernel samples (the one a previous call just
    /// took serves as "before"); returns its value and what a raw time
    /// taken inside it is multiplied by.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some((at, ms)) if at.elapsed().as_secs_f64() * 1e3 < FRESH_MS => ms,
            _ => self.sample(),
        };
        let value = f();
        let after = self.sample();
        (value, Clock::speed(before, after))
    }

    /// Time `f`, bracketed by kernel samples.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Timed<T> {
        let ((value, raw_ms), speed) = self.bracket(|| {
            let t = Instant::now();
            let value = f();
            (value, t.elapsed().as_secs_f64() * 1e3)
        });
        Timed {
            value,
            raw_ms,
            ms: raw_ms * speed,
        }
    }

    /// What a raw time is multiplied by when the kernel read `before` ms
    /// just before it and `after` ms just after.
    pub fn speed(before: f64, after: f64) -> f64 {
        NOMINAL_MS / ((before + after) / 2.0)
    }

    /// The median of `n` samples: for a measurement that hangs on a single
    /// bracket, like a whole pass of concurrent tickets.
    pub fn steady_sample(&mut self, n: usize) -> f64 {
        let samples: Vec<f64> = (0..n).map(|_| self.sample()).collect();
        crate::stats::median(&samples)
    }

    /// Reference speed ÷ the box's speed over every sample so far: what a
    /// raw time taken somewhere in between is multiplied by.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        NOMINAL_MS / crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timed_kernel_reads_nominal() {
        // Timing the kernel itself must give NOMINAL_MS whatever the box
        // is doing — give or take what changes between three samples.
        let mut clock = Clock::new();
        let mut scratch = Clock::new();
        let timed = clock.time(|| scratch.sample());
        assert!(timed.raw_ms > 0.0);
        let off = (timed.ms / NOMINAL_MS - 1.0).abs();
        assert!(off < 0.5, "kernel timed at {} ms", timed.ms);
        assert!(clock.factor() > 0.0);
    }
}
