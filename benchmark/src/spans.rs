//! Wall-clock spans recorded from the benchmark's side of each layer
//! boundary: name, start, end, the span that caused it, and the
//! submission it belongs to. Spans stay in memory until the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Submission id: every span of one submission shares it.
    pub submission: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Spans {
    epoch: Instant,
    recs: Vec<Span>,
    open: Vec<u32>,
    submission: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            submission: 0,
        }
    }

    /// Record a span that was timed elsewhere and has just ended.
    pub fn record(&mut self, name: &'static str, ms: f64) {
        let id = self.enter(name);
        let span = &mut self.recs[id as usize];
        span.start_ns = span.end_ns.saturating_sub((ms * 1e6) as u64);
        self.open.pop();
    }

    /// Start attributing spans to the next submission.
    pub fn next_submission(&mut self) {
        self.submission += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.recs.len() as u32;
        let now = self.now_ns();
        self.recs.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            submission: self.submission,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` — and any span still open inside it, which an early
    /// error return leaves behind; returns its duration in ms.
    pub fn exit(&mut self, id: u32) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.recs[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        self.recs[id as usize].ms()
    }

    /// Run `f` inside a span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total duration (ms) of the current submission's spans called `name`.
    pub fn current_total(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .rev()
            .take_while(|s| s.submission == self.submission)
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    pub fn all(&self) -> &[Span] {
        &self.recs
    }
}
