//! The three single-client workloads: one `PStorM` daemon on one durable
//! store, one submitter.

use std::path::Path;
use std::time::Instant;

use cfstore::StoreOptions;
use pstorm::daemon::PStorM;
use pstorm::ProfileStore;

use super::common::{self, Counters, Latency, Passes, Quality};
use super::{dir_bytes, RunArgs, MIN_PASSES};
use crate::corpus::{Corpus, Entry};
use crate::gen;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::pipeline::{self, Digest};
use crate::reference::Clock;
use crate::spans::Spans;
use crate::stats::{median, ratio};

pub struct Spec {
    /// Submit only the cheap jobs (the store and matcher are the subject)
    /// or the whole suite (the simulator is).
    pub cheap_only: bool,
    /// Profiles in the store; `None` = exactly the corpus's real ones.
    pub store_profiles: Option<usize>,
    pub block_cache_bytes: u64,
    /// Ingest a fresh profile before every submission.
    pub churn: bool,
}

struct Bench<'a> {
    spec: &'a Spec,
    args: &'a RunArgs,
    corpus: Corpus,
    bases: Vec<profiler::JobProfile>,
    /// Population size after set-up; ingested variants continue from it.
    stored: usize,
    /// Variants ingested (and acknowledged) so far.
    ingested: usize,
}

impl Bench<'_> {
    fn open(&self, dir: &Path) -> (ProfileStore, cfstore::RecoveryReport) {
        let opts = StoreOptions {
            block_cache_bytes: self.spec.block_cache_bytes,
            ..StoreOptions::default()
        };
        ProfileStore::reopen_with_opts(dir, opts).expect("open the store")
    }

    /// Load the population into a new store at `dir`, flush, close, and
    /// reopen it cleanly: the state a long-running deployment is in.
    fn populate_and_open(&self, dir: &Path) -> PStorM {
        let (store, _) = self.open(dir);
        for i in 0..self.stored {
            let (base, profile) = gen::population_profile(&self.bases, i, self.args.seed);
            store
                .put_profile(&self.corpus.entries[base].statics, &profile)
                .expect("load the population");
        }
        store.flush().expect("flush the population");
        drop(store);
        PStorM::with_store(self.open(dir).0, self.corpus.cluster.clone())
    }

    /// Ingest the next fresh variant through the daemon. Returns the raw
    /// time of `load_profile`, ms, and the WAL bytes it cost.
    fn ingest(&mut self, daemon: &PStorM) -> (f64, Result<u64, String>) {
        let i = self.stored + self.ingested;
        let (base, profile) = gen::population_profile(&self.bases, i, self.args.seed);
        let statics = &self.corpus.entries[base].statics;
        let wal = daemon.store.inner().wal_bytes_written();
        let t = Instant::now();
        let acked = daemon.load_profile(statics, &profile);
        let raw_ms = super::ms(t.elapsed());
        let value = match acked {
            Ok(()) => {
                self.ingested += 1;
                Ok(daemon.store.inner().wal_bytes_written() - wal)
            }
            Err(e) => Err(format!("ingest {}: {e}", profile.job_id)),
        };
        (raw_ms, value)
    }

    fn submit(&self, daemon: &PStorM, op: gen::SubmitOp) -> Result<Digest, String> {
        let e = &self.corpus.entries[op.sub];
        let report = daemon
            .submit(&e.sub.spec, &e.sub.dataset, op.seed)
            .map_err(|err| format!("{}: {err}", e.job_id()))?;
        pipeline::digest(&report)
    }

    /// While nothing writes to the store, the source job of every match
    /// is known in advance and any other answer is a failed op. Under
    /// churn a fresh variant may legitimately win; `match_accuracy`
    /// records how often.
    fn expect_accurate(&self, e: &Entry, digest: &Digest) -> Result<(), String> {
        if self.spec.churn || common::is_accurate(e, digest, self.exact()) {
            Ok(())
        } else {
            Err(format!(
                "{} matched {}, not its own profile",
                e.job_id(),
                digest.source_job
            ))
        }
    }

    /// Whether the store holds nothing but the corpus's own profiles.
    fn exact(&self) -> bool {
        self.spec.store_profiles.is_none()
    }
}

pub fn run(spec: &Spec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = Clock::new();

    // ---- Set-up: profile the suite, then populate and open the store.
    let (corpus, collect_s) = Corpus::collect(args.scale.corpus_limit, &mut clock);
    let bases = corpus.profiles();
    let mut bench = Bench {
        spec,
        args,
        stored: spec.store_profiles.unwrap_or(bases.len()),
        ingested: 0,
        corpus,
        bases,
    };
    let dir = args.tmp.join("store");
    let reps = if args.trace { 1 } else { args.scale.setup_reps };
    let mut daemon = common::set_up(reps, &dir, collect_s, &mut clock, &mut out, || {
        bench.populate_and_open(&dir)
    });

    let subs = if spec.cheap_only {
        bench.corpus.cheap()
    } else {
        bench.corpus.all()
    };
    let mut spans = Spans::new();
    let reg = if args.trace {
        obs::Registry::new()
    } else {
        obs::Registry::disabled()
    };
    let mut counts = Counters::default();
    let mut ingest_ms = Vec::new();
    if args.trace {
        let mut traced = Traced {
            reg: &reg,
            clock: &mut clock,
            spans: &mut spans,
            counts: &mut counts,
        };
        traced_phase(&mut bench, &mut daemon, &subs, &mut traced, &mut out);
    } else {
        measured_phase(
            &mut bench,
            &daemon,
            &subs,
            &mut clock,
            &mut ingest_ms,
            &mut out,
        );
    }

    // ---- Tail: ingest (if the measured phase did not), flush, reopen.
    daemon.set_obs(reg.clone());
    if !spec.churn {
        for _ in 0..args.scale.tail_ingests {
            let ((raw_ms, acked), speed) = clock.bracket(|| bench.ingest(&daemon));
            spans.record("store.put_profile", raw_ms);
            ingest_ms.push(raw_ms * speed);
            if let Ok(wal) = &acked {
                counts.wal_bytes += wal;
                counts.ingests += 1;
            }
            out.op(acked.map(|_| ()));
        }
    }
    common::drain(&reg);
    let flushed = clock.time(|| daemon.store.flush());
    spans.record("cfstore.flush", flushed.raw_ms);
    out.check(flushed.value.is_ok(), || {
        format!("final flush: {:?}", flushed.value)
    });
    let flush_counts = common::drain(&reg).counters;
    let disk = dir_bytes(&dir);
    drop(daemon);

    let expected_len = bench.stored + bench.ingested;
    let mut report = None;
    common::reopen_cycles(
        args.scale.reopen_cycles,
        &mut clock,
        &mut spans,
        &mut out,
        || bench.open(&dir),
        |(store, first_report), out| {
            report = Some(first_report);
            let acked = (bench.stored..expected_len)
                .map(|i| gen::population_profile(&bench.bases, i, args.seed).1);
            common::verify_durable(&store, expected_len, acked, out);
        },
    );
    let report = report.expect("at least one reopen");

    if args.trace {
        common::emit_write_layers(
            &spans,
            clock.factor(),
            ratio(counts.wal_bytes as f64, counts.ingests as f64),
            flushed.ms,
            &flush_counts,
            &mut out,
        );
        out.set(
            "cfstore.reopen_records_replayed",
            report.records_replayed as f64,
        );
        out.set(
            "cfstore.reopen_blocks_read",
            report.segment_blocks_read as f64,
        );
        out.spans = spans.all().to_vec();
    } else {
        out.set("ingest_p50_ms", median(&ingest_ms));
        out.samples.insert("ingest_p50_ms", ingest_ms.len());
        out.set("disk_bytes_per_profile", disk as f64 / expected_len as f64);
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// Whole passes with tracing off: at least [`MIN_PASSES`], and until the
/// measuring time is used up.
fn measured_phase(
    bench: &mut Bench<'_>,
    daemon: &PStorM,
    subs: &[usize],
    clock: &mut Clock,
    ingest_ms: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let mut passes = Passes::default();
    let mut quality = Quality::default();
    let started = Instant::now();
    for pass in 0.. {
        let mut lat = Vec::new();
        let mut busy_ms = 0.0;
        for op in gen::pass(subs, bench.args.seed, pass) {
            if bench.spec.churn {
                let ((raw_ms, acked), speed) = clock.bracket(|| bench.ingest(daemon));
                busy_ms += raw_ms * speed;
                ingest_ms.push(raw_ms * speed);
                out.op(acked.map(|_| ()));
            }
            let timed = clock.time(|| bench.submit(daemon, op));
            busy_ms += timed.ms;
            lat.push((op.sub, timed.ms));
            let e = &bench.corpus.entries[op.sub];
            if passes.len() < MIN_PASSES {
                quality.record(e, timed.value.as_ref().ok(), bench.exact());
            }
            out.op(timed.value.and_then(|d| bench.expect_accurate(e, &d)));
        }
        passes.push(lat, busy_ms);
        if passes.len() >= MIN_PASSES && started.elapsed() >= bench.args.measure {
            break;
        }
    }
    passes.emit(Latency::FastestPass, out);
    quality.emit(out);
}

/// How much of a read-only submission the layer spans may leave
/// unaccounted for.
const LEDGER_BOUND: f64 = 0.10;

/// What a traced phase records into.
struct Traced<'a> {
    reg: &'a obs::Registry,
    clock: &'a mut Clock,
    spans: &'a mut Spans,
    counts: &'a mut Counters,
}

/// The three ways a traced pass runs each submission.
#[derive(Clone, Copy)]
enum Way {
    /// The daemon, tracing off.
    Untraced,
    /// The daemon, an enabled registry attached.
    Traced,
    /// The replica, the same registry attached.
    Replica,
}

/// Whole passes in which every submission runs three ways — daemon
/// untraced, daemon traced, replica — on the same store state, then the
/// layer probes. On a read-only workload the order rotates, so no way
/// always finds the caches warm; after an ingest the replica goes first,
/// so that its `matcher.match` span holds the index rebuild the write
/// forced. Counts are taken over the first pass only: a fixed set of
/// operations, so they repeat exactly for a seed.
fn traced_phase(
    bench: &mut Bench<'_>,
    daemon: &mut PStorM,
    subs: &[usize],
    traced: &mut Traced<'_>,
    out: &mut Outcome,
) {
    use Way::{Replica, Traced as WithObs, Untraced};
    const ROTATION: [[Way; 3]; 3] = [
        [Replica, Untraced, WithObs],
        [Untraced, WithObs, Replica],
        [WithObs, Replica, Untraced],
    ];
    let Traced {
        reg,
        clock,
        spans,
        counts,
    } = traced;
    let reg = *reg;
    let churn = bench.spec.churn;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut ledger = Vec::new();
    let mut wif_calls = 0;
    let mut tasks = 0;

    let started = Instant::now();
    'passes: for pass in 0.. {
        let ops = gen::pass(subs, bench.args.seed, pass);
        for (k, op) in ops.into_iter().enumerate() {
            spans.next_submission();
            if churn {
                daemon.set_obs(reg.clone());
                let (raw_ms, acked) = bench.ingest(daemon);
                spans.record("store.put_profile", raw_ms);
                if let (Ok(wal), 0) = (&acked, pass) {
                    counts.wal_bytes += wal;
                    counts.ingests += 1;
                }
                out.op(acked.map(|_| ()));
            }
            clock.sample();
            let e = &bench.corpus.entries[op.sub];
            let order = if churn { ROTATION[0] } else { ROTATION[k % 3] };
            let mut digests = Vec::new();
            let mut replica = None;
            let mut whole_ms = 0.0;
            for way in order {
                match way {
                    Untraced => {
                        daemon.set_obs(obs::Registry::disabled());
                        let t = Instant::now();
                        digests.push(bench.submit(daemon, op));
                        untraced_ms.push(super::ms(t.elapsed()));
                    }
                    WithObs => {
                        daemon.set_obs(reg.clone());
                        let t = Instant::now();
                        digests.push(bench.submit(daemon, op));
                        whole_ms = super::ms(t.elapsed());
                        traced_ms.push(whole_ms);
                    }
                    Replica => {
                        daemon.set_obs(reg.clone());
                        common::drain(reg);
                        let r = pipeline::replica_submit(
                            spans,
                            daemon,
                            reg,
                            &e.sub.spec,
                            &e.sub.dataset,
                            op.seed,
                        );
                        if pass == 0 {
                            counts.absorb(common::drain(reg));
                            counts.submits += 1;
                        }
                        digests.push(r.as_ref().map(|r| r.digest.clone()).map_err(Clone::clone));
                        replica = r.ok();
                    }
                }
                common::drain(reg);
            }
            daemon.set_obs(obs::Registry::disabled());

            out.check(
                digests.iter().all(|d| d.is_ok() && *d == digests[0]),
                || format!("{}: daemon and replica disagree: {digests:?}", e.job_id()),
            );
            let Some(replica) = replica else {
                out.op(Err(format!("{}: the replica failed", e.job_id())));
                break 'passes;
            };
            out.op(bench.expect_accurate(e, &replica.digest));
            wif_calls += replica.wif_calls;
            tasks += replica.tasks;
            pipeline::probe_layers(spans, daemon, &e.sub.spec, &e.sub.dataset, &replica);
            // The whole submission is the daemon's own traced submit where
            // it saw the same store state as the replica; after an ingest
            // only the replica paid for the rebuild, so its root span is.
            ledger.push(common::ledger(spans, (!churn).then_some(whole_ms), churn));
        }
        if started.elapsed() >= bench.args.measure {
            break;
        }
    }

    common::emit_layers(
        spans,
        clock.factor(),
        counts,
        &ledger,
        wif_calls,
        tasks,
        out,
    );
    if !churn {
        // Same store state for the daemon and the replica: the layer spans
        // must account for the daemon's submit, or the ledger is wrong.
        let frac = out.metrics["daemon.unattributed_frac"];
        out.check(frac.abs() < LEDGER_BOUND, || {
            format!("the ledger does not add up: daemon.unattributed_frac = {frac}")
        });
    }
    out.set(
        "obs.trace_overhead_frac",
        ratio(median(&traced_ms), median(&untraced_ms)) - 1.0,
    );
}
