//! Golden serving-path transcripts (DESIGN.md §9, §14).
//!
//! `property_tenants.rs` and `property_faults.rs` hold the service and the
//! daemon to invariants: clean tenants bit-identical to solo, faults never
//! surfacing raw. This suite pins the same paths *by value*.
//!
//! **Service scripts.** One small `TuningService` per configuration, every
//! ticket awaited before the next is submitted, so the transcript is a
//! function of the script alone: profile → tune; the queue-full shed
//! (`queue_depth: 0`, tenants that are only ever shed); the admission shed
//! (`max_in_flight: 0`); and a breaker's whole life — two hard
//! failures trip it, its fast-fails, a half-open trial that closes it, a
//! second trip, a half-open trial that fails and re-opens it, the
//! dead-letter queue overflowing at `dlq_capacity: 2` — beside a healthy
//! tenant. Per ticket: the outcome variant, the reason text, and the bits
//! of `runtime_ms`, `sampling_ms` and `predicted_ms`. At the end: every
//! `service.*`, `tenant.*` and `daemon.*` counter and gauge, every
//! `service.*` event, and `dead_letters()` of every tenant.
//!
//! **Degraded exits.** `PStorM` on a seeded table of (job, dataset,
//! faults, seed, store crash point) that reaches every exit resolving as
//! `SubmissionOutcome::Degraded` — the probe exhausted, the tuned run
//! died, profiling kept faulting, the store rejected the collected
//! profile, `submit_untuned`, and the service's queue-full shed — pinning
//! the reason, the configuration served, the bits of the run's and the
//! sampling time, and the canonical JSON of the `daemon.*` spans, events
//! and counters an enabled registry recorded.
//!
//! A diff in these literals means a ticket resolved differently, a
//! counter or gauge moved at a different moment, or a degraded submission
//! walked its ladder differently. They are never regenerated for a
//! refactor.

use cfstore::{CrashSpec, StoreOptions};
use datagen::corpus;
use mrjobs::{jobs, Dataset, JobSpec};
use mrsim::{ClusterSpec, FaultSpec};
use pstorm::{
    PStorM, ProfileStore, ServiceConfig, ServiceOutcome, SubmissionOutcome, SubmissionReport,
    TuningService,
};

struct Transcript {
    out: String,
}

impl Transcript {
    fn new() -> Self {
        Transcript { out: String::new() }
    }

    fn note(&mut self, line: impl AsRef<str>) {
        self.out.push_str(line.as_ref());
        self.out.push('\n');
    }

    fn check(self, name: &str, want: &str) {
        if self.out.trim() != want.trim() {
            eprintln!("==== {name}: actual transcript ====\n{}", self.out);
            panic!("{name}: serving-path transcript diverged from its golden literal");
        }
    }
}

/// Everything a caller can read off one served submission.
fn report_line(report: &SubmissionReport) -> String {
    let times = format!(
        "runtime {:#018x} sampling {:#018x}",
        report.run.runtime_ms.to_bits(),
        report.sampling_ms.to_bits()
    );
    match &report.outcome {
        SubmissionOutcome::Tuned {
            matched,
            tuned_config,
            predicted_ms,
        } => format!(
            "tuned from {} {times} predicted {:#018x} {tuned_config:?}",
            matched.map.source_job,
            predicted_ms.to_bits()
        ),
        SubmissionOutcome::ProfiledAndStored { failure } => {
            format!("profiled ({failure:?}) {times}")
        }
        SubmissionOutcome::Degraded { config, reason } => {
            format!("degraded [{reason}] {times} {config:?}")
        }
    }
}

fn outcome_line(outcome: &ServiceOutcome) -> String {
    match outcome {
        ServiceOutcome::Served(report) => {
            format!("served {}: {}", report.job_id, report_line(report))
        }
        ServiceOutcome::Failed { job_id, error } => format!("failed {job_id}: {error}"),
        ServiceOutcome::Rejected { job_id, reason } => format!("rejected {job_id}: {reason}"),
    }
}

fn hostile() -> FaultSpec {
    FaultSpec {
        node_loss_prob: 1.0,
        ..FaultSpec::default()
    }
}

/// A scripted service: each step submits one ticket and waits for it.
struct Script {
    svc: TuningService,
    t: Transcript,
    tenants: Vec<&'static str>,
}

impl Script {
    fn new(cluster: ClusterSpec, cfg: ServiceConfig) -> Self {
        Script {
            svc: TuningService::with_obs(
                ProfileStore::new().unwrap(),
                cluster,
                cfg,
                obs::Registry::new(),
            ),
            t: Transcript::new(),
            tenants: Vec::new(),
        }
    }

    fn step(
        &mut self,
        tenant: &'static str,
        spec: &JobSpec,
        ds: &Dataset,
        seed: u64,
        faults: Option<FaultSpec>,
    ) {
        if !self.tenants.contains(&tenant) {
            self.tenants.push(tenant);
        }
        let label = if faults.is_some() { " (hostile)" } else { "" };
        let outcome = self
            .svc
            .submit_with_faults(tenant, spec, ds, seed, faults)
            .expect("a valid tenant id")
            .wait();
        self.t.note(format!(
            "{tenant} seed {seed}{label}: {}",
            outcome_line(&outcome)
        ));
    }

    /// The registry's service, tenant and daemon state, and every DLQ.
    fn finish(mut self, name: &str, want: &str) {
        self.svc.quiesce();
        let pinned = |name: &str| {
            ["service.", "tenant.", "daemon."]
                .iter()
                .any(|p| name.starts_with(p))
        };
        let snap = self.svc.obs().snapshot();
        self.t.note("-- counters");
        for (name, value) in snap.counters.iter().filter(|(n, _)| pinned(n)) {
            self.t.note(format!("{name} = {value}"));
        }
        self.t.note("-- gauges");
        for (name, value) in snap.gauges.iter().filter(|(n, _)| pinned(n)) {
            self.t.note(format!("{name} = {value}"));
        }
        self.t.note("-- service events");
        for e in snap
            .events
            .iter()
            .filter(|e| e.name.starts_with("service."))
        {
            self.t.note(format!("{} {:?}", e.name, e.attrs));
        }
        self.t.note("-- dead letters");
        for tenant in self.tenants.iter().chain(&["never-seen"]) {
            self.t
                .note(format!("{tenant}: {:?}", self.svc.dead_letters(tenant)));
        }
        self.t.check(name, want);
    }
}

#[test]
fn profile_then_tune_is_pinned() {
    let mut s = Script::new(ClusterSpec::ec2_c1_medium_16(), ServiceConfig::default());
    let (wc, ds) = (jobs::word_count(), corpus::random_text_1g());
    let (sort, tera) = (jobs::sort(), corpus::teragen_1g());
    s.step("acme", &wc, &ds, 1, None);
    s.step("acme", &wc, &ds, 2, None);
    s.step("zen", &sort, &tera, 3, None);
    s.step("zen", &sort, &tera, 4, None);
    s.step("acme", &sort, &tera, 5, None);
    s.finish("PROFILE_THEN_TUNE", PROFILE_THEN_TUNE);
}

/// `queue_depth: 0`: every submission is shed on the caller's thread,
/// against the *service* cluster — a per-request fault override is not
/// consulted, the flaky service cluster is.
#[test]
fn queue_full_shed_is_pinned() {
    let mut cluster = ClusterSpec::ec2_c1_medium_16();
    cluster.faults = FaultSpec {
        task_failure_prob: 0.3,
        ..FaultSpec::default()
    };
    let mut s = Script::new(
        cluster,
        ServiceConfig {
            queue_depth: 0,
            ..ServiceConfig::default()
        },
    );
    let (wc, ds) = (jobs::word_count(), corpus::random_text_1g());
    let (sort, tera) = (jobs::sort(), corpus::teragen_1g());
    s.step("shed-only", &wc, &ds, 1, None);
    s.step("shed-only", &wc, &ds, 2, None);
    s.step("shed-only", &wc, &ds, 3, Some(hostile()));
    s.step("shed-too", &sort, &tera, 4, None);
    s.finish("QUEUE_FULL_SHED", QUEUE_FULL_SHED);
}

/// `max_in_flight: 0`: every claimed submission is shed through its
/// tenant's daemon — with the request's faults, so a hostile one fails
/// hard and is dead-lettered.
#[test]
fn admission_shed_is_pinned() {
    let mut s = Script::new(
        ClusterSpec::ec2_c1_medium_16(),
        ServiceConfig {
            workers: 2,
            max_in_flight: 0,
            ..ServiceConfig::default()
        },
    );
    let (wc, ds) = (jobs::word_count(), corpus::random_text_1g());
    s.step("acme", &wc, &ds, 7, None);
    s.step("acme", &wc, &ds, 8, Some(hostile()));
    s.step("acme", &wc, &ds, 9, None);
    s.step("zen", &jobs::sort(), &corpus::teragen_1g(), 10, None);
    s.finish("ADMISSION_SHED", ADMISSION_SHED);
}

#[test]
fn breaker_life_cycle_is_pinned() {
    let mut s = Script::new(
        ClusterSpec::ec2_c1_medium_16(),
        ServiceConfig {
            workers: 2,
            breaker_max_failures: 2,
            breaker_cooldown: 2,
            dlq_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let (wc, ds) = (jobs::word_count(), corpus::random_text_1g());
    s.step("good", &wc, &ds, 1, None);
    // Two hard failures trip the breaker.
    s.step("bad", &wc, &ds, 0, Some(hostile()));
    s.step("bad", &wc, &ds, 1, Some(hostile()));
    s.step("good", &wc, &ds, 2, None);
    // Two fast-fails (the DLQ overflows), then a healthy half-open trial.
    s.step("bad", &wc, &ds, 2, None);
    s.step("bad", &wc, &ds, 3, Some(hostile()));
    s.step("bad", &wc, &ds, 4, None);
    // Closed again: it takes two more failures to trip it.
    s.step("bad", &wc, &ds, 5, Some(hostile()));
    s.step("bad", &wc, &ds, 6, None);
    s.step("bad", &wc, &ds, 7, Some(hostile()));
    s.step("bad", &wc, &ds, 8, Some(hostile()));
    // Two fast-fails, then a half-open trial that fails and re-opens it.
    s.step("bad", &wc, &ds, 9, None);
    s.step("bad", &wc, &ds, 10, None);
    s.step("bad", &wc, &ds, 11, Some(hostile()));
    s.step("bad", &wc, &ds, 12, None);
    s.step("good", &wc, &ds, 3, None);
    s.finish("BREAKER_LIFE_CYCLE", BREAKER_LIFE_CYCLE);
}

// ---- The degraded exits -------------------------------------------------

/// The six places a submission resolves as `Degraded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Exit {
    ProbeExhausted,
    TunedRunDied,
    ProfilingKeptFaulting,
    StoreRejectedProfile,
    Untuned,
    QueueFull,
}

fn exit_of(reason: &str) -> Exit {
    if reason.starts_with("sampling probe failed") {
        Exit::ProbeExhausted
    } else if reason.starts_with("tuned run failed") {
        Exit::TunedRunDied
    } else if reason.starts_with("profiling run kept faulting") {
        Exit::ProfilingKeptFaulting
    } else if reason.starts_with("job served, but the profile store rejected") {
        Exit::StoreRejectedProfile
    } else if reason.starts_with("request queue full") {
        Exit::QueueFull
    } else {
        Exit::Untuned
    }
}

/// How a row of the table enters the daemon.
enum Entry {
    /// `PStorM::submit`, on an empty store.
    Submit,
    /// `PStorM::submit` after a clean submission of the same job stored
    /// its profile.
    SubmitAfterProfile,
    /// `PStorM::submit` on a durable store that crashes after this many
    /// more WAL bytes.
    SubmitOnCrashingStore(u64),
    /// `PStorM::submit_untuned`.
    Untuned(&'static str),
    /// A `TuningService` with `queue_depth: 0` over the row's cluster.
    QueueFull,
}

struct Row {
    entry: Entry,
    spec: JobSpec,
    ds: Dataset,
    faults: FaultSpec,
    seed: u64,
}

fn task_failures(p: f64) -> FaultSpec {
    FaultSpec {
        task_failure_prob: p,
        ..FaultSpec::default()
    }
}

fn table() -> Vec<Row> {
    let row = |entry, spec: JobSpec, ds: Dataset, faults, seed| Row {
        entry,
        spec,
        ds,
        faults,
        seed,
    };
    let text = corpus::random_text_1g;
    let lossy = FaultSpec {
        task_failure_prob: 0.5,
        node_loss_prob: 0.05,
        ..FaultSpec::default()
    };
    let (wc, ii) = (jobs::word_count, jobs::inverted_index);
    vec![
        // The probe exhausted; served by the last rung, by the first, by none.
        row(Entry::Submit, wc(), text(), task_failures(0.9), 2),
        row(Entry::SubmitAfterProfile, ii(), text(), lossy.clone(), 9),
        row(
            Entry::Submit,
            jobs::sort(),
            corpus::teragen_1g(),
            task_failures(0.9),
            0,
        ),
        // The tuned run died; one row per rung that can serve it.
        row(
            Entry::SubmitAfterProfile,
            wc(),
            text(),
            task_failures(0.5),
            3,
        ),
        row(
            Entry::SubmitAfterProfile,
            wc(),
            corpus::wikipedia_35g(),
            task_failures(0.2),
            1001,
        ),
        row(
            Entry::SubmitAfterProfile,
            wc(),
            text(),
            task_failures(0.5),
            0,
        ),
        row(Entry::SubmitAfterProfile, ii(), text(), lossy, 3),
        // Profiling kept faulting.
        row(Entry::Submit, wc(), text(), task_failures(0.5), 8),
        row(Entry::Submit, wc(), text(), task_failures(0.5), 0),
        row(Entry::Submit, ii(), text(), task_failures(0.6), 3),
        // The store rejected the collected profile.
        row(
            Entry::SubmitOnCrashingStore(0),
            wc(),
            text(),
            FaultSpec::default(),
            1,
        ),
        row(
            Entry::SubmitOnCrashingStore(700),
            jobs::sort(),
            corpus::teragen_1g(),
            FaultSpec::flaky(),
            2,
        ),
        // Untuned on request, and the service's two sheds.
        row(
            Entry::Untuned("operator asked for an untuned run"),
            wc(),
            text(),
            FaultSpec::default(),
            1,
        ),
        row(
            Entry::Untuned("admission control: no free tuning slot; shed under overload"),
            jobs::word_cooccurrence_pairs(2),
            text(),
            task_failures(0.5),
            9,
        ),
        row(Entry::QueueFull, wc(), text(), task_failures(0.4), 3),
    ]
}

/// The `daemon.*` part of a trace, as canonical JSON.
fn daemon_trace(reg: &obs::Registry) -> String {
    let snap = reg.snapshot();
    obs::TraceSnapshot {
        clock_ns: snap.clock_ns,
        spans: snap
            .spans
            .into_iter()
            .filter(|s| s.name.starts_with("daemon."))
            .collect(),
        events: snap
            .events
            .into_iter()
            .filter(|e| e.name.starts_with("daemon."))
            .collect(),
        counters: snap
            .counters
            .into_iter()
            .filter(|(n, _)| n.starts_with("daemon."))
            .collect(),
        ..obs::TraceSnapshot::default()
    }
    .to_json()
}

/// Run one row: the `daemon.*` trace it left, and how it resolved.
fn run_row(i: usize, row: &Row) -> (String, Result<SubmissionReport, String>) {
    let mut cluster = ClusterSpec::ec2_c1_medium_16();
    let reg = obs::Registry::new();
    let (store, dir) = match row.entry {
        Entry::SubmitOnCrashingStore(wal_bytes) => {
            let dir = std::env::temp_dir().join(format!(
                "pstorm-golden-serving-{i}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // The budget counts from the start of the log: lay the schema
            // down first, then allow `wal_bytes` more.
            drop(ProfileStore::reopen(&dir).expect("create"));
            let wal = std::fs::metadata(dir.join(cfstore::wal::WAL_FILE)).expect("WAL");
            let opts = StoreOptions {
                crash: CrashSpec::after_wal_bytes(wal.len() + wal_bytes),
                ..StoreOptions::default()
            };
            let (store, _) = ProfileStore::reopen_with_opts(&dir, opts).expect("open");
            (store, Some(dir))
        }
        _ => (ProfileStore::new().unwrap(), None),
    };
    if let Entry::QueueFull = row.entry {
        cluster.faults = row.faults.clone();
        let cfg = ServiceConfig {
            queue_depth: 0,
            ..ServiceConfig::default()
        };
        let svc = TuningService::with_obs(store, cluster, cfg, reg);
        let ticket = svc.submit("acme", &row.spec, &row.ds, row.seed).unwrap();
        let resolved = match ticket.wait() {
            ServiceOutcome::Served(report) => Ok(report),
            other => Err(outcome_line(&other)),
        };
        return (daemon_trace(svc.obs()), resolved);
    }
    let mut daemon = PStorM::with_store(store, cluster);
    if let Entry::SubmitAfterProfile = row.entry {
        let first = daemon.submit(&row.spec, &row.ds, 1).expect("clean run");
        assert!(matches!(
            first.outcome,
            SubmissionOutcome::ProfiledAndStored { .. }
        ));
    }
    daemon.set_obs(reg);
    daemon.cluster.faults = row.faults.clone();
    let resolved = match row.entry {
        Entry::Untuned(why) => daemon.submit_untuned(&row.spec, &row.ds, row.seed, why),
        _ => daemon.submit(&row.spec, &row.ds, row.seed),
    };
    let trace = daemon_trace(daemon.obs());
    drop(daemon);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    (trace, resolved.map_err(|e| e.to_string()))
}

#[test]
fn every_degraded_exit_is_pinned() {
    let mut t = Transcript::new();
    let mut reached = Vec::new();
    for (i, row) in table().iter().enumerate() {
        t.note(format!(
            "-- row {i}: {}@{} seed {} {:?}",
            row.spec.job_id(),
            row.ds.name,
            row.seed,
            row.faults
        ));
        let (trace, resolved) = run_row(i, row);
        match resolved {
            Ok(report) => {
                if let SubmissionOutcome::Degraded { reason, .. } = &report.outcome {
                    reached.push(exit_of(reason));
                }
                t.note(report_line(&report));
            }
            Err(e) => t.note(format!("error {e}")),
        }
        t.note(format!("trace {trace}"));
    }
    reached.sort();
    reached.dedup();
    assert_eq!(
        reached,
        [
            Exit::ProbeExhausted,
            Exit::TunedRunDied,
            Exit::ProfilingKeptFaulting,
            Exit::StoreRejectedProfile,
            Exit::Untuned,
            Exit::QueueFull,
        ],
        "the table must reach all six degraded exits\n{}",
        t.out
    );
    t.check("DEGRADED_EXITS", DEGRADED_EXITS);
}

const PROFILE_THEN_TUNE: &str = r#"
acme seed 1: served word-count: profiled (EmptyStore) runtime 0x40e2b05735d7ab48 sampling 0x40e093a14c35acca
acme seed 2: served word-count: tuned from word-count runtime 0x40e015961f66d4c2 sampling 0x40df78b00adb5114 predicted 0x40dd45f77a9dcca1 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
zen seed 3: served sort: profiled (EmptyStore) runtime 0x40d0852c51a94bcd sampling 0x40cdf4e17a18e444
zen seed 4: served sort: tuned from sort runtime 0x40cb6df5fdd3932a sampling 0x40c87fc45ba2a1bf predicted 0x40c9a7485f840cc1 JobConfig { io_sort_mb: 128, io_sort_record_percent: 0.13384251850717857, io_sort_spill_percent: 0.7389107116160876, io_sort_factor: 17, use_combiner: false, min_num_spills_for_combine: 8, compress_map_output: false, reduce_slowstart: 0.1794812580388071, num_reduce_tasks: 30, shuffle_input_buffer_percent: 0.5681867935238692, shuffle_merge_percent: 0.8633892352666968, inmem_merge_threshold: 10, reduce_input_buffer_percent: 0.0594857932018342, compress_output: true, max_map_attempts: 4, max_reduce_attempts: 4 }
acme seed 5: served sort: profiled (NoDynamicMatch { side: Map }) runtime 0x40d1e5387af1b98a sampling 0x40c8d35572d77033
-- counters
daemon.profiled = 3
daemon.tuned = 2
service.queue.enqueued = 5
tenant.acme.profiled = 2
tenant.acme.submissions = 3
tenant.acme.tuned = 1
tenant.zen.profiled = 1
tenant.zen.submissions = 2
tenant.zen.tuned = 1
-- gauges
service.admission.tasks_in_flight = 0
service.queue.depth = 0
service.queue.peak_depth = 1
service.tenants = 2
-- service events
-- dead letters
acme: []
zen: []
never-seen: []
"#;

const QUEUE_FULL_SHED: &str = r#"
shed-only seed 1: served word-count: degraded [request queue full; shed without tuning; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e21080fbbc4ed0 sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
shed-only seed 2: served word-count: degraded [request queue full; shed without tuning; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e4ba65c5cb4c90 sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
shed-only seed 3 (hostile): served word-count: degraded [request queue full; shed without tuning; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e332f88361c2ed sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
shed-too seed 4: served sort: degraded [request queue full; shed without tuning; served by rule-based optimizer settings after 2 fallback run attempt(s)] runtime 0x40d2b38d97439de3 sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
-- counters
service.queue.shed = 4
tenant.shed-only.shed = 3
tenant.shed-too.shed = 1
-- gauges
-- service events
-- dead letters
shed-only: []
shed-too: []
never-seen: []
"#;

const ADMISSION_SHED: &str = r#"
acme seed 7: served word-count: degraded [admission control: no free tuning slot; shed under overload; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e29ab483ed210a sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
acme seed 8 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
acme seed 9: served word-count: degraded [admission control: no free tuning slot; shed under overload; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e2b706868a8cfc sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
zen seed 10: served sort: degraded [admission control: no free tuning slot; shed under overload; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40d04bf7934dba72 sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
-- counters
daemon.degraded = 3
service.admission.shed = 4
service.queue.enqueued = 4
tenant.acme.degraded = 2
tenant.acme.dlq.enqueued = 1
tenant.acme.failed = 1
tenant.acme.shed = 3
tenant.acme.submissions = 3
tenant.zen.degraded = 1
tenant.zen.shed = 1
tenant.zen.submissions = 1
-- gauges
service.admission.tasks_in_flight = 0
service.queue.depth = 0
service.queue.peak_depth = 1
service.tenants = 2
tenant.acme.dlq.depth = 1
-- service events
-- dead letters
acme: [DeadLetter { seq: 0, job_id: "word-count", seed: 8, reason: "job simulation failed: job `word-count`: all worker nodes lost before completion" }]
zen: []
never-seen: []
"#;

const BREAKER_LIFE_CYCLE: &str = r#"
good seed 1: served word-count: profiled (EmptyStore) runtime 0x40e2b05735d7ab48 sampling 0x40e093a14c35acca
bad seed 0 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
bad seed 1 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
good seed 2: served word-count: tuned from word-count runtime 0x40e015961f66d4c2 sampling 0x40df78b00adb5114 predicted 0x40dd45f77a9dcca1 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
bad seed 2: rejected word-count: circuit breaker open; submission dead-lettered
bad seed 3 (hostile): rejected word-count: circuit breaker open; submission dead-lettered
bad seed 4: served word-count: profiled (EmptyStore) runtime 0x40e26047f510d384 sampling 0x40d5b7cb2cc2d54b
bad seed 5 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
bad seed 6: served word-count: tuned from word-count runtime 0x40e068b0cb3e68b0 sampling 0x40de1a9f686a01a3 predicted 0x40de0cc785522d92 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
bad seed 7 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
bad seed 8 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
bad seed 9: rejected word-count: circuit breaker open; submission dead-lettered
bad seed 10: rejected word-count: circuit breaker open; submission dead-lettered
bad seed 11 (hostile): failed word-count: job simulation failed: job `word-count`: all worker nodes lost before completion
bad seed 12: rejected word-count: circuit breaker open; submission dead-lettered
good seed 3: served word-count: tuned from word-count runtime 0x40e1ed29b154a4f9 sampling 0x40e058f1b58c9693 predicted 0x40dd45f77a9dcca1 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
-- counters
daemon.profiled = 2
daemon.tuned = 3
service.queue.enqueued = 16
tenant.bad.breaker.closed = 1
tenant.bad.breaker.fast_fail = 5
tenant.bad.breaker.trips = 3
tenant.bad.dlq.dropped = 9
tenant.bad.dlq.enqueued = 11
tenant.bad.failed = 6
tenant.bad.profiled = 1
tenant.bad.rejected = 5
tenant.bad.submissions = 13
tenant.bad.tuned = 1
tenant.good.profiled = 1
tenant.good.submissions = 3
tenant.good.tuned = 2
-- gauges
service.admission.tasks_in_flight = 0
service.queue.depth = 0
service.queue.peak_depth = 1
service.tenants = 2
tenant.bad.dlq.depth = 2
-- service events
service.breaker.open [("tenant", Str("bad")), ("cooldown", U64(2))]
service.breaker.open [("tenant", Str("bad")), ("cooldown", U64(2))]
service.breaker.open [("tenant", Str("bad")), ("cooldown", U64(2))]
-- dead letters
good: []
bad: [DeadLetter { seq: 9, job_id: "word-count", seed: 11, reason: "job simulation failed: job `word-count`: all worker nodes lost before completion" }, DeadLetter { seq: 10, job_id: "word-count", seed: 12, reason: "circuit breaker open" }]
never-seen: []
"#;

const DEGRADED_EXITS: &str = r#"
-- row 0: word-count@random-text-1g seed 2 FaultSpec { task_failure_prob: 0.9, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [sampling probe failed 4 times (last: job `word-count`: reduce-0 failed all 4 attempts); skipped matching; served by submitted configuration with lenient attempt caps after 7 fallback run attempt(s)] runtime 0x40f34d49ebba3775 sampling 0x40bb580000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 30, max_reduce_attempts: 30 }
trace {"clock_ns":86060620051,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":86060620051,"attrs":{"job_id":"word-count","dataset":"random-text-1g","seed":2,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":7000000000,"attrs":{"attempts":4,"sampling_ms":7000,"ok":false}},{"id":3,"parent":1,"name":"daemon.degrade","start_ns":7000000000,"end_ns":86060620051,"attrs":{"served_by":"submitted configuration with lenient attempt caps","attempts":7}}],"events":[{"ts_ns":0,"name":"daemon.sample.retry","attrs":{"attempt":1,"backoff_ms":1000}},{"ts_ns":1000000000,"name":"daemon.sample.retry","attrs":{"attempt":2,"backoff_ms":2000}},{"ts_ns":3000000000,"name":"daemon.sample.retry","attrs":{"attempt":3,"backoff_ms":4000}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":2}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":3}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":4}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":5}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":6}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration with lenient attempt caps","attempt":7}},{"ts_ns":7000000000,"name":"daemon.degrade.served","attrs":{"rung":"submitted configuration with lenient attempt caps","attempts":7}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 1: inverted-index@random-text-1g seed 9 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.05, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [sampling probe failed 4 times (last: job `inverted-index`: map-0 failed all 4 attempts); skipped matching; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40ed6729ce1fa762 sampling 0x40bb580000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":67217306412,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":67217306412,"attrs":{"job_id":"inverted-index","dataset":"random-text-1g","seed":9,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":7000000000,"attrs":{"attempts":4,"sampling_ms":7000,"ok":false}},{"id":3,"parent":1,"name":"daemon.degrade","start_ns":7000000000,"end_ns":67217306412,"attrs":{"served_by":"rule-based optimizer settings","attempts":1}}],"events":[{"ts_ns":0,"name":"daemon.sample.retry","attrs":{"attempt":1,"backoff_ms":1000}},{"ts_ns":1000000000,"name":"daemon.sample.retry","attrs":{"attempt":2,"backoff_ms":2000}},{"ts_ns":3000000000,"name":"daemon.sample.retry","attrs":{"attempt":3,"backoff_ms":4000}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":7000000000,"name":"daemon.degrade.served","attrs":{"rung":"rule-based optimizer settings","attempts":1}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 2: sort@teragen-1g seed 0 FaultSpec { task_failure_prob: 0.9, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
error job simulation failed: job `sort`: reduce-13 failed all 30 attempts
trace {"clock_ns":7000000000,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":7000000000,"attrs":{"job_id":"sort","dataset":"teragen-1g","seed":0}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":7000000000,"attrs":{"attempts":4,"sampling_ms":7000,"ok":false}},{"id":3,"parent":1,"name":"daemon.degrade","start_ns":7000000000,"end_ns":7000000000,"attrs":{"served_by":"none"}}],"events":[{"ts_ns":0,"name":"daemon.sample.retry","attrs":{"attempt":1,"backoff_ms":1000}},{"ts_ns":1000000000,"name":"daemon.sample.retry","attrs":{"attempt":2,"backoff_ms":2000}},{"ts_ns":3000000000,"name":"daemon.sample.retry","attrs":{"attempt":3,"backoff_ms":4000}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":2}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":3}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":4}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":5}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":6}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration with lenient attempt caps","attempt":7}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration with lenient attempt caps","attempt":8}},{"ts_ns":7000000000,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration with lenient attempt caps","attempt":9}}],"counters":{},"histograms":{}}
-- row 3: word-count@random-text-1g seed 3 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [tuned run failed (job `word-count`: map-1 failed all 4 attempts); served by CBO-tuned settings after 1 fallback run attempt(s)] runtime 0x40e1891859c1134c sampling 0x40dcf2799cf98f63 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":65554661162,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":65554661162,"attrs":{"job_id":"word-count","dataset":"random-text-1g","seed":3,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":29641900206,"attrs":{"attempts":1,"sampling_ms":29641.90020598414,"ok":true}},{"id":12,"parent":1,"name":"daemon.degrade","start_ns":29641900206,"end_ns":65554661162,"attrs":{"served_by":"CBO-tuned settings","attempts":1}}],"events":[{"ts_ns":29641900206,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":1}},{"ts_ns":29641900206,"name":"daemon.degrade.served","attrs":{"rung":"CBO-tuned settings","attempts":1}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 4: word-count@wikipedia-35g seed 1001 FaultSpec { task_failure_prob: 0.2, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [tuned run failed (job `word-count`: map-9 failed all 4 attempts); served by rule-based optimizer settings after 4 fallback run attempt(s)] runtime 0x4124c9a3a18c7002 sampling 0x40df67772e538636 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":713327677728,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":713327677728,"attrs":{"job_id":"word-count","dataset":"wikipedia-35g","seed":1001,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":32157862203,"attrs":{"attempts":1,"sampling_ms":32157.862202530923,"ok":true}},{"id":12,"parent":1,"name":"daemon.degrade","start_ns":32157862203,"end_ns":713327677728,"attrs":{"served_by":"rule-based optimizer settings","attempts":4}}],"events":[{"ts_ns":32157862203,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":1}},{"ts_ns":32157862203,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":2}},{"ts_ns":32157862203,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":3}},{"ts_ns":32157862203,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":4}},{"ts_ns":32157862203,"name":"daemon.degrade.served","attrs":{"rung":"rule-based optimizer settings","attempts":4}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 5: word-count@random-text-1g seed 0 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [tuned run failed (job `word-count`: map-7 failed all 4 attempts); served by submitted configuration after 8 fallback run attempt(s)] runtime 0x40e15ccce96f1674 sampling 0x40da1724fa123352 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":62274981258,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":62274981258,"attrs":{"job_id":"word-count","dataset":"random-text-1g","seed":0,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":26716577763,"attrs":{"attempts":1,"sampling_ms":26716.577763128393,"ok":true}},{"id":12,"parent":1,"name":"daemon.degrade","start_ns":26716577763,"end_ns":62274981258,"attrs":{"served_by":"submitted configuration","attempts":8}}],"events":[{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":1}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":2}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":3}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":4}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":5}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":6}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":7}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":8}},{"ts_ns":26716577763,"name":"daemon.degrade.served","attrs":{"rung":"submitted configuration","attempts":8}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 6: inverted-index@random-text-1g seed 3 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.05, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [tuned run failed (job `inverted-index`: map-1 failed all 4 attempts); served by submitted configuration with lenient attempt caps after 10 fallback run attempt(s)] runtime 0x40e9ea8ff88e6f0d sampling 0x40e865900d970026 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 30, max_reduce_attempts: 30 }
trace {"clock_ns":103041000750,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":103041000750,"attrs":{"job_id":"inverted-index","dataset":"random-text-1g","seed":3,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":49964501659,"attrs":{"attempts":1,"sampling_ms":49964.50165891675,"ok":true}},{"id":12,"parent":1,"name":"daemon.degrade","start_ns":49964501659,"end_ns":103041000750,"attrs":{"served_by":"submitted configuration with lenient attempt caps","attempts":10}}],"events":[{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":1}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":2}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"CBO-tuned settings","attempt":3}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":4}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":5}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":6}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":7}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":8}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":9}},{"ts_ns":49964501659,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration with lenient attempt caps","attempt":10}},{"ts_ns":49964501659,"name":"daemon.degrade.served","attrs":{"rung":"submitted configuration with lenient attempt caps","attempts":10}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 7: word-count@random-text-1g seed 8 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [profiling run kept faulting (last: job `word-count`: map-1 failed all 4 attempts); no profile stored; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e27c02ebbc3ed0 sampling 0x40df457dd09aaf3f JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":69878057133,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":69878057133,"attrs":{"job_id":"word-count","dataset":"random-text-1g","seed":8,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":32021965857,"attrs":{"attempts":1,"sampling_ms":32021.965857192172,"ok":true}},{"id":4,"parent":1,"name":"daemon.degrade","start_ns":32021965857,"end_ns":69878057133,"attrs":{"served_by":"rule-based optimizer settings","attempts":1}}],"events":[{"ts_ns":32021965857,"name":"daemon.profile.retry","attrs":{"attempt":0,"fault":"job `word-count`: map-0 failed all 4 attempts"}},{"ts_ns":32021965857,"name":"daemon.profile.retry","attrs":{"attempt":1,"fault":"job `word-count`: map-2 failed all 4 attempts"}},{"ts_ns":32021965857,"name":"daemon.profile.retry","attrs":{"attempt":2,"fault":"job `word-count`: map-1 failed all 4 attempts"}},{"ts_ns":32021965857,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":32021965857,"name":"daemon.degrade.served","attrs":{"rung":"rule-based optimizer settings","attempts":1}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 8: word-count@random-text-1g seed 0 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [profiling run kept faulting (last: job `word-count`: map-5 failed all 4 attempts); no profile stored; served by submitted configuration after 6 fallback run attempt(s)] runtime 0x40e1d3a876719d78 sampling 0x40da1724fa123352 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":63225842221,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":63225842221,"attrs":{"job_id":"word-count","dataset":"random-text-1g","seed":0,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":26716577763,"attrs":{"attempts":1,"sampling_ms":26716.577763128393,"ok":true}},{"id":4,"parent":1,"name":"daemon.degrade","start_ns":26716577763,"end_ns":63225842221,"attrs":{"served_by":"submitted configuration","attempts":6}}],"events":[{"ts_ns":26716577763,"name":"daemon.profile.retry","attrs":{"attempt":0,"fault":"job `word-count`: map-5 failed all 4 attempts"}},{"ts_ns":26716577763,"name":"daemon.profile.retry","attrs":{"attempt":1,"fault":"job `word-count`: map-11 failed all 4 attempts"}},{"ts_ns":26716577763,"name":"daemon.profile.retry","attrs":{"attempt":2,"fault":"job `word-count`: map-5 failed all 4 attempts"}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":2}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":3}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":4}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":5}},{"ts_ns":26716577763,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":6}},{"ts_ns":26716577763,"name":"daemon.degrade.served","attrs":{"rung":"submitted configuration","attempts":6}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 9: inverted-index@random-text-1g seed 3 FaultSpec { task_failure_prob: 0.6, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [profiling run kept faulting (last: job `inverted-index`: map-7 failed all 4 attempts); no profile stored; served by submitted configuration with lenient attempt caps after 7 fallback run attempt(s)] runtime 0x40ea6583ef3b8eb8 sampling 0x40e29652b399a4f5 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 30, max_reduce_attempts: 30 }
trace {"clock_ns":92126707377,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":92126707377,"attrs":{"job_id":"inverted-index","dataset":"random-text-1g","seed":3,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":38066584424,"attrs":{"attempts":2,"sampling_ms":38066.58442384928,"ok":true}},{"id":4,"parent":1,"name":"daemon.degrade","start_ns":38066584424,"end_ns":92126707377,"attrs":{"served_by":"submitted configuration with lenient attempt caps","attempts":7}}],"events":[{"ts_ns":0,"name":"daemon.sample.retry","attrs":{"attempt":1,"backoff_ms":1000}},{"ts_ns":38066584424,"name":"daemon.profile.retry","attrs":{"attempt":0,"fault":"job `inverted-index`: map-0 failed all 4 attempts"}},{"ts_ns":38066584424,"name":"daemon.profile.retry","attrs":{"attempt":1,"fault":"job `inverted-index`: map-1 failed all 4 attempts"}},{"ts_ns":38066584424,"name":"daemon.profile.retry","attrs":{"attempt":2,"fault":"job `inverted-index`: map-7 failed all 4 attempts"}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":2}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":3}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":4}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":5}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":6}},{"ts_ns":38066584424,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration with lenient attempt caps","attempt":7}},{"ts_ns":38066584424,"name":"daemon.degrade.served","attrs":{"rung":"submitted configuration with lenient attempt caps","attempts":7}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 10: word-count@random-text-1g seed 1 FaultSpec { task_failure_prob: 0.0, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [job served, but the profile store rejected the collected profile (store crashed (injected crash point); reopen to recover); nothing persisted] runtime 0x40e2b05735d7ab48 sampling 0x40e093a14c35acca JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":72223765876,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":72223765876,"attrs":{"job_id":"word-count","dataset":"random-text-1g","seed":1,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":33949040553,"attrs":{"attempts":1,"sampling_ms":33949.040552937964,"ok":true}}],"events":[{"ts_ns":72223765876,"name":"daemon.store_unavailable","attrs":{"error":"store crashed (injected crash point); reopen to recover"}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 11: sort@teragen-1g seed 2 FaultSpec { task_failure_prob: 0.02, node_loss_prob: 0.01, speculation: true, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [job served, but the profile store rejected the collected profile (store crashed (injected crash point); reopen to recover); nothing persisted] runtime 0x40d0276a124457bb sampling 0x40c9d7d3e74c14c8 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":29773312861,"spans":[{"id":1,"parent":null,"name":"daemon.submit","start_ns":0,"end_ns":29773312861,"attrs":{"job_id":"sort","dataset":"teragen-1g","seed":2,"outcome":"degraded"}},{"id":2,"parent":1,"name":"daemon.sample","start_ns":0,"end_ns":13231655496,"attrs":{"attempts":1,"sampling_ms":13231.65549613013,"ok":true}}],"events":[{"ts_ns":29773312861,"name":"daemon.store_unavailable","attrs":{"error":"store crashed (injected crash point); reopen to recover"}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 12: word-count@random-text-1g seed 1 FaultSpec { task_failure_prob: 0.0, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [operator asked for an untuned run; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e32f3e68154f90 sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":39289950205,"spans":[{"id":1,"parent":null,"name":"daemon.degrade","start_ns":0,"end_ns":39289950205,"attrs":{"served_by":"rule-based optimizer settings","attempts":1}}],"events":[{"ts_ns":0,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":0,"name":"daemon.degrade.served","attrs":{"rung":"rule-based optimizer settings","attempts":1}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 13: word-cooccurrence-pairs[window=2]@random-text-1g seed 9 FaultSpec { task_failure_prob: 0.5, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [admission control: no free tuning slot; shed under overload; served by submitted configuration after 5 fallback run attempt(s)] runtime 0x413a62d16b292688 sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.05, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 1, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":1729233418597,"spans":[{"id":1,"parent":null,"name":"daemon.degrade","start_ns":0,"end_ns":1729233418597,"attrs":{"served_by":"submitted configuration","attempts":5}}],"events":[{"ts_ns":0,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":1}},{"ts_ns":0,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":2}},{"ts_ns":0,"name":"daemon.degrade.attempt","attrs":{"rung":"rule-based optimizer settings","attempt":3}},{"ts_ns":0,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":4}},{"ts_ns":0,"name":"daemon.degrade.attempt","attrs":{"rung":"submitted configuration","attempt":5}},{"ts_ns":0,"name":"daemon.degrade.served","attrs":{"rung":"submitted configuration","attempts":5}}],"counters":{"daemon.degraded":1},"histograms":{}}
-- row 14: word-count@random-text-1g seed 3 FaultSpec { task_failure_prob: 0.4, node_loss_prob: 0.0, speculation: false, speculation_threshold: 1.5, speculation_cap: 0.1 }
degraded [request queue full; shed without tuning; served by rule-based optimizer settings after 1 fallback run attempt(s)] runtime 0x40e26a4c5c7e7f8e sampling 0x0000000000000000 JobConfig { io_sort_mb: 100, io_sort_record_percent: 0.15, io_sort_spill_percent: 0.8, io_sort_factor: 10, use_combiner: true, min_num_spills_for_combine: 3, compress_map_output: false, reduce_slowstart: 0.05, num_reduce_tasks: 27, shuffle_input_buffer_percent: 0.7, shuffle_merge_percent: 0.66, inmem_merge_threshold: 1000, reduce_input_buffer_percent: 0.0, compress_output: false, max_map_attempts: 4, max_reduce_attempts: 4 }
trace {"clock_ns":0,"spans":[],"events":[],"counters":{},"histograms":{}}
"#;
