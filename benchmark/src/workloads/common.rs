//! What the workloads share: pass timing, the quality tally, counter
//! bookkeeping, the durability check, and the per-layer arithmetic.

use std::collections::BTreeMap;
use std::path::Path;

use profiler::JobProfile;
use pstorm::ProfileStore;

use crate::corpus::Entry;
use crate::metrics::Outcome;
use crate::pipeline::Digest;
use crate::reference::Clock;
use crate::spans::Spans;
use crate::stats::{geomean, median, percentile, ratio};

/// One pass: each submission's latency (corpus index, ms) and the time
/// the pass kept the submitter busy — all at reference speed.
struct Pass {
    lat_ms: Vec<(usize, f64)>,
    busy_ms: f64,
}

/// Submission latencies, pass by pass. Every pass holds the same jobs, so
/// a submission has one latency per pass and per-pass percentiles are
/// comparable. `submit_per_s` counts every pass in full, so time the
/// program loses now and then (a stall, a slow first pass) shows there;
/// how the latency percentiles are taken depends on the workload — see
/// [`Latency`].
#[derive(Default)]
pub struct Passes {
    passes: Vec<Pass>,
}

/// What a submission's latency is, when it ran once in every pass.
#[derive(Clone, Copy)]
pub enum Latency {
    /// One client, so a latency is the work of that submission and
    /// nothing else. What disturbs a shared box only ever adds to it, and
    /// comes and goes faster than a run, so the fastest of a submission's
    /// executions is its least disturbed measurement; the percentiles are
    /// over the job mix.
    FastestPass,
    /// Concurrent tickets: a latency is work plus queueing behind
    /// whatever else was in flight, which differs from pass to pass by
    /// design. Every ticket of every pass counts.
    EveryTicket,
}

impl Passes {
    pub fn push(&mut self, lat_ms: Vec<(usize, f64)>, busy_ms: f64) {
        self.passes.push(Pass { lat_ms, busy_ms });
    }

    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Each submission's fastest latency over the passes.
    fn best_ms(&self) -> Vec<f64> {
        let mut best: BTreeMap<usize, f64> = BTreeMap::new();
        for (sub, ms) in self.passes.iter().flat_map(|p| &p.lat_ms) {
            let slot = best.entry(*sub).or_insert(f64::INFINITY);
            *slot = slot.min(*ms);
        }
        best.into_values().collect()
    }

    /// Submissions per second the submitter was kept busy, over every pass.
    pub fn per_s(&self) -> f64 {
        let ops: usize = self.passes.iter().map(|p| p.lat_ms.len()).sum();
        let busy_ms: f64 = self.passes.iter().map(|p| p.busy_ms).sum();
        ratio(ops as f64, busy_ms / 1e3)
    }

    fn latencies(&self, rule: Latency) -> Vec<f64> {
        match rule {
            Latency::FastestPass => self.best_ms(),
            Latency::EveryTicket => self
                .passes
                .iter()
                .flat_map(|p| p.lat_ms.iter().map(|(_, ms)| *ms))
                .collect(),
        }
    }

    pub fn p50(&self, rule: Latency) -> f64 {
        median(&self.latencies(rule))
    }

    pub fn emit(&self, rule: Latency, out: &mut Outcome) {
        let lat = self.latencies(rule);
        out.set("submit_per_s", self.per_s());
        out.set("submit_p50_ms", median(&lat));
        out.set("submit_p95_ms", percentile(&lat, 0.95));
        let ops: usize = self.passes.iter().map(|p| p.lat_ms.len()).sum();
        out.samples.insert("submit_per_s", ops);
        out.samples.insert("submit_p50_ms", lat.len());
        out.samples.insert("submit_p95_ms", lat.len());
        let per_pass = |f: &dyn Fn(&[f64], f64) -> f64| -> Vec<f64> {
            self.passes
                .iter()
                .map(|p| {
                    let lat: Vec<f64> = p.lat_ms.iter().map(|(_, ms)| *ms).collect();
                    f(&lat, p.busy_ms)
                })
                .collect()
        };
        out.set_rounds(
            "submit_per_s",
            per_pass(&|lat, busy_ms| ratio(lat.len() as f64, busy_ms / 1e3)),
        );
        out.set_rounds("submit_p50_ms", per_pass(&|lat, _| median(lat)));
        out.set_rounds("submit_p95_ms", per_pass(&|lat, _| percentile(lat, 0.95)));
    }
}

/// Whether a tuned submission matched the submitted job: the exact
/// `<job>@<dataset>` profile when the store holds nothing else, any
/// profile of the job when it also holds variants.
pub fn is_accurate(entry: &Entry, digest: &Digest, exact: bool) -> bool {
    if exact {
        digest.source_job == entry.profile.job_id
    } else {
        digest.source_job.split('@').next() == Some(entry.job_id().as_str())
    }
}

/// The guard against fast-but-wrong, over the first pass — a fixed set of
/// submissions, so the three numbers repeat exactly for a seed however
/// many passes the measuring time allowed.
#[derive(Default)]
pub struct Quality {
    total: usize,
    tuned: usize,
    accurate: usize,
    speedups: Vec<f64>,
}

impl Quality {
    /// Tally one submission (`None`: it did not resolve `Tuned`); returns
    /// whether it matched the submitted job.
    pub fn record(&mut self, entry: &Entry, digest: Option<&Digest>, exact: bool) -> bool {
        self.total += 1;
        let Some(digest) = digest else {
            return false;
        };
        self.tuned += 1;
        self.speedups.push(entry.baseline_ms / digest.runtime_ms());
        let accurate = is_accurate(entry, digest, exact);
        self.accurate += usize::from(accurate);
        accurate
    }

    pub fn emit(&self, out: &mut Outcome) {
        out.set("tuned_frac", ratio(self.tuned as f64, self.total as f64));
        out.set(
            "match_accuracy",
            ratio(self.accurate as f64, self.tuned as f64),
        );
        out.set("tuned_speedup_geomean", geomean(&self.speedups));
        out.samples.insert("tuned_speedup_geomean", self.tuned);
    }
}

/// Take everything the registry counted since the last drain.
pub fn drain(reg: &obs::Registry) -> obs::TraceSnapshot {
    let snapshot = reg.snapshot();
    reg.reset();
    snapshot
}

/// Counters of the program, summed over the first traced pass — a fixed
/// set of operations, so on a single-client workload each repeats exactly
/// for a seed.
#[derive(Default)]
pub struct Counters {
    by_name: BTreeMap<String, u64>,
    pub submits: u64,
    pub ingests: u64,
    pub wal_bytes: u64,
}

impl Counters {
    pub fn absorb(&mut self, snapshot: obs::TraceSnapshot) {
        for (name, n) in snapshot.counters {
            *self.by_name.entry(name).or_default() += n;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0) as f64
    }
}

/// Set-up behind `setup_s`: `build` populates and opens the store under
/// `dir`, `reps` times over (the previous store is closed and removed
/// first); the last one built is returned. Profiling the suite
/// (`collect_s`) is 58 independent simulations, steady as a sum, and is
/// done once; the store part is what repeats.
pub fn set_up<T>(
    reps: usize,
    dir: &Path,
    collect_s: f64,
    clock: &mut Clock,
    out: &mut Outcome,
    mut build: impl FnMut() -> T,
) -> T {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let _ = std::fs::remove_dir_all(dir);
        let opened = clock.time(&mut build);
        setup_s.push(collect_s + opened.ms / 1e3);
        built = Some(opened.value);
    }
    out.set("setup_s", median(&setup_s));
    out.set_rounds("setup_s", setup_s);
    built.expect("at least one set-up")
}

/// Reopening is timed for at least this long in total: a 58-profile store
/// reopens in milliseconds, and a handful of those is no measurement.
const REOPEN_FLOOR_MS: f64 = 300.0;
const REOPEN_MAX_CYCLES: usize = 40;

/// The close/reopen cycles behind `reopen_s`: at least `cycles` of them,
/// each `open` timed and its result dropped (closed) before the next;
/// `first` gets what the first cycle opened. `reopen_s` is the median cycle.
pub fn reopen_cycles<T>(
    cycles: usize,
    clock: &mut Clock,
    spans: &mut Spans,
    out: &mut Outcome,
    mut open: impl FnMut() -> T,
    first: impl FnOnce(T, &mut Outcome),
) {
    let mut first = Some(first);
    let mut reopen_s = Vec::new();
    let mut raw_ms = 0.0;
    while reopen_s.len() < cycles
        || (raw_ms < REOPEN_FLOOR_MS && reopen_s.len() < REOPEN_MAX_CYCLES)
    {
        let opened = clock.time(&mut open);
        spans.record("store.reopen", opened.raw_ms);
        raw_ms += opened.raw_ms;
        reopen_s.push(opened.ms / 1e3);
        if let Some(first) = first.take() {
            first(opened.value, out);
        }
    }
    out.set("reopen_s", median(&reopen_s));
    out.samples.insert("reopen_s", reopen_s.len());
    out.set_rounds("reopen_s", reopen_s);
}

/// After a clean reopen: the store holds exactly the profiles that were
/// acknowledged, and each ingested one reads back as it was written.
pub fn verify_durable(
    store: &ProfileStore,
    expected_len: usize,
    acked: impl Iterator<Item = JobProfile>,
    out: &mut Outcome,
) {
    match store.len() {
        Ok(len) => out.check(len == expected_len, || {
            format!("after reopen the store holds {len} profiles, expected {expected_len}")
        }),
        Err(e) => out.fail(format!("len() after reopen: {e}")),
    }
    for profile in acked {
        match store.get_profile(&profile.job_id) {
            Ok(Some(read)) => out.check(read == profile, || {
                format!("{} changed across the reopen", profile.job_id)
            }),
            Ok(None) => out.fail(format!(
                "acked profile {} is missing after reopen",
                profile.job_id
            )),
            Err(e) => out.fail(format!("get_profile({}): {e}", profile.job_id)),
        }
    }
}

/// The replica's spans directly under `daemon.submit`.
pub const PIPELINE_SPANS: [&str; 5] = [
    "profiler.sample",
    "staticanalysis.extract",
    "matcher.match",
    "optimizer.optimize",
    "mrsim.simulate",
];

/// The probes that re-time what one `matcher.match` calls.
pub const MATCH_PROBES: [&str; 5] = [
    "store.is_empty",
    "store.normalization_bounds",
    "store.columnar_index",
    "matcher.stage1_sweep",
    "store.get_profile",
];

/// One traced submission's ledger rows, ms.
pub struct Ledger {
    /// The whole submission.
    pub whole_ms: f64,
    /// Its pipeline spans.
    pub children_ms: f64,
    pub match_ms: f64,
    /// The probes of what the match called.
    pub match_children_ms: f64,
}

/// The ledger of the current submission, from its spans. `whole_ms` is
/// the daemon's own submit where one was timed on the same store state,
/// else the replica's root span; `rebuilt` adds the index rebuild to
/// what the match is expected to contain.
pub fn ledger(spans: &Spans, whole_ms: Option<f64>, rebuilt: bool) -> Ledger {
    let total = |names: &[&str]| -> f64 { names.iter().map(|n| spans.current_total(n)).sum() };
    Ledger {
        whole_ms: whole_ms.unwrap_or_else(|| spans.current_total("daemon.submit")),
        children_ms: total(&PIPELINE_SPANS),
        match_ms: spans.current_total("matcher.match"),
        match_children_ms: total(&MATCH_PROBES)
            + if rebuilt {
                spans.current_total("store.index_rebuild")
            } else {
                0.0
            },
    }
}

/// Every per-layer metric that comes from the replica's spans, the probes
/// and the program's counters. Spans hold raw times; `speed` (see
/// [`crate::reference::Clock::factor`]) brings what is reported from them
/// to reference speed. The ledger fractions are ratios and need none.
pub fn emit_layers(
    spans: &Spans,
    speed: f64,
    counts: &Counters,
    ledger: &[Ledger],
    wif_calls: usize,
    tasks: usize,
    out: &mut Outcome,
) {
    let p50 = |name: &str| median(&spans.durations(name)) * speed;
    let total_s = |name: &str| spans.durations(name).iter().sum::<f64>() * speed / 1e3;
    let replicas = spans.durations("optimizer.optimize").len() as f64;

    let unattributed = |whole: fn(&Ledger) -> f64, parts: fn(&Ledger) -> f64| {
        let fracs: Vec<f64> = ledger
            .iter()
            .map(|l| ratio(whole(l) - parts(l), whole(l)))
            .collect();
        median(&fracs)
    };
    out.set(
        "daemon.unattributed_frac",
        unattributed(|l| l.whole_ms, |l| l.children_ms),
    );
    out.set(
        "matcher.unattributed_frac",
        unattributed(|l| l.match_ms, |l| l.match_children_ms),
    );

    out.set(
        "staticanalysis.extract_us",
        p50("staticanalysis.extract") * 1e3,
    );
    out.set("profiler.sample_ms", p50("profiler.sample"));
    out.set("mrsim.simulate_ms", p50("mrsim.simulate"));
    out.set("mrsim.analyze_ms", p50("mrsim.analyze"));
    out.set(
        "mrsim.tasks_per_s",
        ratio(tasks as f64, total_s("mrsim.simulate")),
    );
    out.set("optimizer.optimize_ms", p50("optimizer.optimize"));
    out.set("optimizer.wif_calls", ratio(wif_calls as f64, replicas));
    out.set(
        "optimizer.memo_hit_frac",
        ratio(counts.get("cbo.memo_hits"), counts.get("cbo.wif_calls")),
    );
    out.set(
        "optimizer.candidates_per_s",
        ratio(wif_calls as f64, total_s("optimizer.optimize")),
    );
    out.set("whatif.plan_us", p50("whatif.plan") * 1e3);
    out.set("whatif.predict_us", p50("whatif.predict") * 1e3);

    out.set("matcher.match_ms", p50("matcher.match"));
    out.set("matcher.stage1_sweep_us", p50("matcher.stage1_sweep") * 1e3);
    let stage1 = counts.get("matcher.stage1.survivors");
    let stage2 = counts.get("matcher.stage2.survivors");
    out.set(
        "matcher.stage1_pass_frac",
        ratio(stage1, counts.get("matcher.stage1.candidates_in")),
    );
    out.set("matcher.stage2_pass_frac", ratio(stage2, stage1));
    out.set(
        "matcher.stage3_pass_frac",
        ratio(counts.get("matcher.stage3.survivors"), stage2),
    );

    out.set("store.is_empty_ms", p50("store.is_empty"));
    out.set(
        "store.normalization_bounds_us",
        p50("store.normalization_bounds") * 1e3,
    );
    out.set("store.columnar_index_us", p50("store.columnar_index") * 1e3);
    out.set("store.index_rebuild_ms", p50("store.index_rebuild"));
    out.set("store.index_rebuilds", counts.get("store.index_rebuilds"));
    out.set("store.get_profile_us", p50("store.get_profile") * 1e3);
    out.set("store.tenant_view_us", p50("store.tenant_view") * 1e3);

    out.set("cfstore.get_us", p50("cfstore.get") * 1e3);
    out.set("cfstore.scan_prefix_ms", p50("cfstore.scan_prefix"));
    let scanned = counts.get("cfstore.rows_scanned");
    out.set(
        "cfstore.rows_scanned_per_submit",
        ratio(scanned, counts.submits as f64),
    );
    out.set(
        "cfstore.scan_read_amp",
        ratio(scanned, counts.get("cfstore.rows_returned")),
    );
    let hits = counts.get("cfstore.block_cache.hits");
    out.set(
        "cfstore.block_cache_hit_rate",
        ratio(hits, hits + counts.get("cfstore.block_cache.misses")),
    );
    out.set(
        "cfstore.block_cache_evictions",
        counts.get("cfstore.block_cache.evictions"),
    );
    out.set(
        "cfstore.block_cache_fill_bytes",
        counts.get("cfstore.block_cache.fill_bytes"),
    );

    for name in [
        "matcher.match_ms",
        "optimizer.optimize_ms",
        "mrsim.simulate_ms",
    ] {
        out.samples.insert(name, replicas as usize);
    }
}

/// The per-layer metrics of the write path: every `store.put_profile`
/// span, the WAL bytes per ingest, and the final flush with the counters
/// it moved.
pub fn emit_write_layers(
    spans: &Spans,
    speed: f64,
    wal_bytes_per_ingest: f64,
    flush_ms: f64,
    flush_counts: &BTreeMap<String, u64>,
    out: &mut Outcome,
) {
    let put_ms: Vec<f64> = spans
        .durations("store.put_profile")
        .iter()
        .map(|ms| ms * speed)
        .collect();
    out.set("store.put_profile_p50_ms", median(&put_ms));
    out.set("store.put_profile_p95_ms", percentile(&put_ms, 0.95));
    // No background flusher is configured, so a stall is an ingest.
    out.set("cfstore.flush_stall_max_ms", crate::stats::max(&put_ms));
    out.set("cfstore.wal_bytes_per_ingest", wal_bytes_per_ingest);
    out.set("cfstore.flush_ms", flush_ms);
    let flush_count = |name: &str| flush_counts.get(name).copied().unwrap_or(0) as f64;
    out.set(
        "cfstore.segments_written",
        flush_count("cfstore.flush.segments_written"),
    );
    out.set(
        "cfstore.segments_reused",
        flush_count("cfstore.flush.segments_reused"),
    );
}
