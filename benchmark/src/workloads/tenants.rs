//! `tenants_sharded`: a `TuningService` over a sharded, replicated store,
//! four tenants, one generator thread keeping `2·nproc` tickets
//! outstanding, one op in eight an ingest.

use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use pstorm::daemon::PStorM;
use pstorm::{ProfileStore, ServiceConfig, ServiceOutcome, Ticket, TuningService};

use super::common::{self, Counters, Latency, Passes, Quality};
use super::{dir_bytes, ms, nproc, RunArgs, MIN_PASSES};
use crate::corpus::Corpus;
use crate::gen;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::pipeline::{self, Digest};
use crate::reference::Clock;
use crate::spans::Spans;
use crate::stats::{median, ratio};

const TENANTS: [&str; 4] = ["acme", "birch", "cobalt", "delta"];
/// One op in eight is an ingest: seven submissions, then a profile.
const SUBMITS_PER_INGEST: usize = 7;
const STREAM_TENANT: u64 = 3;
/// Kernel samples between two passes: a pass has no other measure of the
/// box's speed.
const BOUNDARY_SAMPLES: usize = 5;

struct Bench<'a> {
    args: &'a RunArgs,
    corpus: Corpus,
    bases: Vec<profiler::JobProfile>,
    /// Profiles per tenant after set-up.
    stored: usize,
    /// Variants ingested (and acknowledged) per tenant.
    ingested: [usize; TENANTS.len()],
    /// Submissions and ingests issued so far; they pick the tenant.
    submits: usize,
    ingests: usize,
}

impl Bench<'_> {
    fn profile(&self, tenant: usize, i: usize) -> (usize, profiler::JobProfile) {
        let seed = gen::derive(self.args.seed, STREAM_TENANT, tenant as u64);
        gen::population_profile(&self.bases, i, seed)
    }

    fn open(
        &self,
        dir: &Path,
        reg: &obs::Registry,
    ) -> (ProfileStore, cfstore::ShardedRecoveryReport) {
        ProfileStore::reopen_sharded_traced(dir, cfstore::ShardOptions::default(), reg.clone())
            .expect("open the sharded store")
    }

    /// Load every tenant's population into a new store at `dir`, flush and
    /// close it.
    fn populate(&self, dir: &Path) {
        let (store, _) = self.open(dir, &obs::Registry::disabled());
        for (t, tenant) in TENANTS.iter().enumerate() {
            let view = store.tenant_view(tenant).expect("tenant view");
            for i in 0..self.stored {
                let (base, profile) = self.profile(t, i);
                view.put_profile(&self.corpus.entries[base].statics, &profile)
                    .expect("load the population");
            }
        }
        store.flush().expect("flush the population");
    }

    /// Reopen the store at `dir` under a service with `workers` workers.
    fn service(&self, dir: &Path, workers: usize, reg: &obs::Registry) -> TuningService {
        let (store, _) = self.open(dir, reg);
        let cfg = ServiceConfig {
            workers,
            max_in_flight: workers,
            ..ServiceConfig::default()
        };
        TuningService::with_obs(store, self.corpus.cluster.clone(), cfg, reg.clone())
    }

    /// Count one submission: returns the tenant it goes to (round-robin)
    /// and whether an ingest is due before it.
    fn next_submit(&mut self) -> (usize, bool) {
        let n = self.submits;
        self.submits += 1;
        (
            n % TENANTS.len(),
            n % SUBMITS_PER_INGEST == SUBMITS_PER_INGEST - 1,
        )
    }

    /// Ingest the next fresh variant of the next tenant through a fresh
    /// view of its namespace (`view_of`), as an operator's loader would.
    /// Returns the raw time of `put_profile`, ms, and the WAL bytes it
    /// cost over all shards.
    fn ingest(
        &mut self,
        view_of: impl Fn(&str) -> ProfileStore,
        spans: &mut Spans,
    ) -> (f64, Result<u64, String>) {
        let t = self.ingests % TENANTS.len();
        self.ingests += 1;
        let (base, profile) = self.profile(t, self.stored + self.ingested[t]);
        let statics = &self.corpus.entries[base].statics;
        let view = spans.timed("store.tenant_view", || view_of(TENANTS[t]));
        let wal = shard_wal_bytes(&view);
        let started = Instant::now();
        let acked = view.put_profile(statics, &profile);
        let raw_ms = ms(started.elapsed());
        spans.record("store.put_profile", raw_ms);
        let value = match acked {
            Ok(()) => {
                self.ingested[t] += 1;
                Ok(shard_wal_bytes(&view) - wal)
            }
            Err(e) => Err(format!("ingest {}/{}: {e}", TENANTS[t], profile.job_id)),
        };
        (raw_ms, value)
    }
}

fn shard_wal_bytes(store: &ProfileStore) -> u64 {
    let sharded = store.sharded().expect("a sharded backend");
    (0..sharded.shard_count())
        .map(|s| sharded.shard_wal_bytes_written(s))
        .sum()
}

/// A resolved ticket, stamped by the thread that waited on it.
struct Done {
    sub: usize,
    latency_ms: f64,
    digest: Result<Digest, String>,
}

fn resolve(outcome: ServiceOutcome) -> Result<Digest, String> {
    match outcome {
        ServiceOutcome::Served(report) => pipeline::digest(&report),
        ServiceOutcome::Failed { job_id, error } => Err(format!("{job_id}: failed: {error}")),
        ServiceOutcome::Rejected { job_id, reason } => Err(format!("{job_id}: rejected: {reason}")),
    }
}

/// What driving the service for a while produced.
#[derive(Default)]
struct Driven {
    passes: Passes,
    quality: Quality,
    ingest_ms: Vec<f64>,
    enqueue_us: Vec<f64>,
    /// Counters and gauges of the first pass (traced service only).
    first_pass: Option<obs::TraceSnapshot>,
    /// WAL bytes and count of the first pass's ingests.
    wal_bytes: u64,
    wal_ingests: u64,
}

/// Drive `svc` with whole passes — at least [`MIN_PASSES`], and until
/// `budget` is used up. The calling thread generates every op and keeps
/// `2·nproc` tickets in flight; one waiter thread per slot blocks on a
/// ticket and stamps its resolution, so no completion is observed late.
/// Each pass drains before the next starts; the reference kernel is timed
/// in those gaps (running it after every ticket or ingest would take a
/// core from the workers, and be slowed by them), and a pass's latencies
/// are scaled by the two samples around it.
fn drive(
    bench: &mut Bench<'_>,
    svc: &TuningService,
    subs: &[usize],
    budget: Duration,
    clock: &mut Clock,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Driven {
    let outstanding = 2 * nproc();
    let mut driven = Driven::default();
    let (ticket_tx, ticket_rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let ticket_rx = Mutex::new(ticket_rx);
    let (done_tx, done_rx) = mpsc::channel::<Done>();

    std::thread::scope(|scope| {
        for _ in 0..outstanding {
            let done_tx = done_tx.clone();
            let ticket_rx = &ticket_rx;
            scope.spawn(move || loop {
                let next = ticket_rx.lock().expect("waiter lock").recv();
                let Ok((sub, issued, ticket)) = next else {
                    return;
                };
                let outcome = ticket.wait();
                let latency_ms = ms(issued.elapsed());
                let _ = done_tx.send(Done {
                    sub,
                    latency_ms,
                    digest: resolve(outcome),
                });
            });
        }

        let started = Instant::now();
        let mut before = clock.steady_sample(BOUNDARY_SAMPLES);
        for pass in 0.. {
            let pass_started = Instant::now();
            let mut settled: Vec<Done> = Vec::new();
            let mut ingest_raw_ms = Vec::new();
            let mut in_flight = 0;
            for op in gen::pass(subs, bench.args.seed, pass) {
                let (t, ingest_due) = bench.next_submit();
                if ingest_due {
                    let view_of = |tenant: &str| svc.store_view(tenant).expect("tenant view");
                    let (raw_ms, acked) = bench.ingest(view_of, spans);
                    ingest_raw_ms.push(raw_ms);
                    if let (Ok(wal), 0) = (&acked, pass) {
                        driven.wal_bytes += wal;
                        driven.wal_ingests += 1;
                    }
                    out.op(acked.map(|_| ()));
                }
                if in_flight == outstanding {
                    settled.push(done_rx.recv().expect("a waiter resolves"));
                    in_flight -= 1;
                }
                let e = &bench.corpus.entries[op.sub];
                let issued = Instant::now();
                match svc.submit(TENANTS[t], &e.sub.spec, &e.sub.dataset, op.seed) {
                    Ok(ticket) => {
                        driven.enqueue_us.push(ms(issued.elapsed()) * 1e3);
                        ticket_tx
                            .send((op.sub, issued, ticket))
                            .expect("a waiter takes the ticket");
                        in_flight += 1;
                    }
                    Err(err) => out.op(Err(format!("{}: not accepted: {err}", e.job_id()))),
                }
            }
            settled.extend((0..in_flight).map(|_| done_rx.recv().expect("a waiter resolves")));
            let wall_ms = ms(pass_started.elapsed());
            let after = clock.steady_sample(BOUNDARY_SAMPLES);
            let speed = Clock::speed(before, after);
            before = after;

            let scaled = ingest_raw_ms.iter().map(|raw_ms| raw_ms * speed);
            driven.ingest_ms.extend(scaled);
            let mut lat = Vec::new();
            for done in settled {
                lat.push((done.sub, done.latency_ms * speed));
                if driven.passes.len() < MIN_PASSES {
                    let digest = done.digest.as_ref().ok();
                    driven
                        .quality
                        .record(&bench.corpus.entries[done.sub], digest, false);
                }
                out.op(done.digest.map(|_| ()));
            }
            driven.passes.push(lat, wall_ms * speed);
            if pass == 0 && svc.obs().is_enabled() {
                driven.first_pass = Some(common::drain(svc.obs()));
            }
            if driven.passes.len() >= MIN_PASSES && started.elapsed() >= budget {
                break;
            }
        }
        drop(ticket_tx);
    });
    driven
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = Clock::new();
    let off = obs::Registry::disabled();

    // ---- Set-up: profile the suite, then populate and open the store.
    let (corpus, collect_s) = Corpus::collect(args.scale.corpus_limit, &mut clock);
    let bases = corpus.profiles();
    let mut bench = Bench {
        args,
        stored: args.scale.tenant_store,
        ingested: [0; TENANTS.len()],
        submits: 0,
        ingests: 0,
        corpus,
        bases,
    };
    let subs = bench.corpus.cheap();
    let dir = args.tmp.join("store");
    let mut spans = Spans::new();

    if args.trace {
        bench.populate(&dir);
        traced(&mut bench, &dir, &subs, &mut clock, &mut spans, &mut out);
    } else {
        let reps = args.scale.setup_reps;
        let svc = common::set_up(reps, &dir, collect_s, &mut clock, &mut out, || {
            bench.populate(&dir);
            bench.service(&dir, nproc(), &off)
        });

        let budget = args.measure;
        let driven = drive(
            &mut bench, &svc, &subs, budget, &mut clock, &mut spans, &mut out,
        );
        driven.passes.emit(Latency::EveryTicket, &mut out);
        driven.quality.emit(&mut out);
        out.set("ingest_p50_ms", median(&driven.ingest_ms));
        out.samples.insert("ingest_p50_ms", driven.ingest_ms.len());

        let flushed = svc.flush();
        out.check(flushed.is_ok(), || format!("final flush: {flushed:?}"));
        let disk = dir_bytes(&dir);
        drop(svc);
        let profiles = TENANTS.len() * bench.stored + bench.ingested.iter().sum::<usize>();
        out.set("disk_bytes_per_profile", disk as f64 / profiles as f64);
    }

    // ---- Tail: reopen, and check that nothing acknowledged was lost. A
    // sharded open reads no rows until a tenant asks for its index, so
    // the cycle runs until every tenant can serve a match again.
    let reg = if args.trace {
        obs::Registry::new()
    } else {
        off
    };
    common::reopen_cycles(
        args.scale.reopen_cycles,
        &mut clock,
        &mut spans,
        &mut out,
        || {
            let (store, report) = bench.open(&dir, &reg);
            let views: Vec<ProfileStore> = TENANTS
                .iter()
                .map(|t| store.tenant_view(t).expect("tenant view"))
                .collect();
            for view in &views {
                view.columnar_index().expect("rebuild a tenant's index");
            }
            (views, report)
        },
        |(views, report), out| {
            verify(&bench, &views, &report, out);
            if args.trace {
                out.set(
                    "cfstore.reopen_records_replayed",
                    report.total.records_replayed as f64,
                );
                out.set(
                    "cfstore.reopen_blocks_read",
                    report.total.segment_blocks_read as f64,
                );
                let heals = common::drain(&reg).counters;
                let repairs = heals.get("cfstore.shard.heal.repairs").copied();
                out.set("cfstore.heal_repairs", repairs.unwrap_or(0) as f64);
            }
        },
    );
    if args.trace {
        out.spans = spans.all().to_vec();
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// After a clean reopen every tenant holds exactly what was acknowledged,
/// and recovery had nothing to repair.
fn verify(
    bench: &Bench<'_>,
    views: &[ProfileStore],
    report: &cfstore::ShardedRecoveryReport,
    out: &mut Outcome,
) {
    out.check(
        report.lost_shards.is_empty() && report.healed_rows == 0 && report.aborted_batches == 0,
        || format!("a clean reopen had repairs to do: {}", report.render_text()),
    );
    for (t, view) in views.iter().enumerate() {
        let expected = bench.stored + bench.ingested[t];
        let acked = (bench.stored..expected).map(|i| bench.profile(t, i).1);
        common::verify_durable(view, expected, acked, out);
    }
}

/// The traced run, four phases over the same op stream, each a quarter of
/// the measuring time (and at least [`MIN_PASSES`] passes):
/// 1. the service with an enabled registry — counters, gauges, enqueue
///    and ingest timings, WAL bytes;
/// 2. the service untraced with one worker, and
/// 3. with `nproc` workers — `service.scaling_x`, and the untraced ticket
///    latency that phase 1 (tracing overhead) and phase 4 (what the
///    service adds to a daemon) are compared against;
/// 4. one solo daemon per tenant view: the daemon, then the replica and
///    the layer probes, per submission.
fn traced(
    bench: &mut Bench<'_>,
    dir: &Path,
    subs: &[usize],
    clock: &mut Clock,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let budget = bench.args.measure / 4;
    let off = obs::Registry::disabled();

    let reg = obs::Registry::new();
    let svc = bench.service(dir, nproc(), &reg);
    common::drain(&reg);
    let with_obs = drive(bench, &svc, subs, budget, clock, spans, out);
    common::drain(&reg);
    let svc_flush = clock.time(|| svc.flush());
    spans.record("cfstore.flush", svc_flush.raw_ms);
    out.check(svc_flush.value.is_ok(), || {
        format!("flush: {:?}", svc_flush.value)
    });
    let flush_counts = common::drain(&reg).counters;
    drop(svc);

    let svc = bench.service(dir, 1, &off);
    let one_worker = drive(bench, &svc, subs, budget, clock, spans, out);
    drop(svc);
    let svc = bench.service(dir, nproc(), &off);
    let all_workers = drive(bench, &svc, subs, budget, clock, spans, out);
    drop(svc);

    // Phase 4. The registry is attached before any view exists, so the
    // backend's counters land in it too.
    let (mut store, _) = bench.open(dir, &off);
    store.set_obs(reg.clone());
    let daemons: Vec<PStorM> = TENANTS
        .iter()
        .map(|t| {
            let view = store.tenant_view(t).expect("tenant view");
            let mut daemon = PStorM::with_store(view, bench.corpus.cluster.clone());
            daemon.set_obs(reg.clone());
            daemon
        })
        .collect();
    let mut solo_counts = Counters::default();
    let mut solo_ms = Vec::new();
    let mut ledger = Vec::new();
    let mut wif_calls = 0;
    let mut tasks = 0;
    let started = Instant::now();
    'passes: for pass in 0.. {
        let ops = gen::pass(subs, bench.args.seed, pass);
        for (n, op) in ops.into_iter().enumerate() {
            spans.next_submission();
            let (t, ingest_due) = bench.next_submit();
            if ingest_due {
                let view_of = |tenant: &str| store.tenant_view(tenant).expect("tenant view");
                let (_, acked) = bench.ingest(view_of, spans);
                out.op(acked.map(|_| ()));
            }
            let e = &bench.corpus.entries[op.sub];
            let daemon = &daemons[t];
            // Alternate which goes first, so neither always finds the
            // block cache warmed by the other.
            let mut solo = None;
            let mut replica = None;
            for step in 0..2 {
                if (step == 0) == (n % 2 == 0) {
                    let timed = clock.time(|| daemon.submit(&e.sub.spec, &e.sub.dataset, op.seed));
                    solo = Some((
                        timed.raw_ms,
                        timed
                            .value
                            .map_err(|err| format!("{}: {err}", e.job_id()))
                            .and_then(|r| pipeline::digest(&r)),
                    ));
                    solo_ms.push(timed.ms);
                    common::drain(&reg);
                } else {
                    common::drain(&reg);
                    let r = pipeline::replica_submit(
                        spans,
                        daemon,
                        &reg,
                        &e.sub.spec,
                        &e.sub.dataset,
                        op.seed,
                    );
                    if pass == 0 {
                        solo_counts.absorb(common::drain(&reg));
                    }
                    replica = Some(r);
                }
            }
            let ((whole_ms, solo), replica) = (solo.expect("ran"), replica.expect("ran"));
            let replica = match replica {
                Ok(replica) => replica,
                Err(why) => {
                    out.op(Err(format!("{}: the replica failed: {why}", e.job_id())));
                    break 'passes;
                }
            };
            out.check(solo.as_ref().ok() == Some(&replica.digest), || {
                format!(
                    "{}: daemon and replica disagree: {solo:?} vs {:?}",
                    e.job_id(),
                    replica.digest
                )
            });
            out.op(solo.map(|_| ()));
            wif_calls += replica.wif_calls;
            tasks += replica.tasks;
            pipeline::probe_layers(spans, daemon, &e.sub.spec, &e.sub.dataset, &replica);
            common::drain(&reg);
            ledger.push(common::ledger(spans, Some(whole_ms), false));
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    drop(daemons);
    let flushed = store.flush();
    out.check(flushed.is_ok(), || format!("flush: {flushed:?}"));
    drop(store);

    // The matcher, store and cfstore counts are the traced service's, so
    // that they include what concurrency and the ingests do to them; a
    // run whose service phase recorded nothing falls back to the solo
    // daemons'.
    let mut counts = solo_counts;
    if let Some(first) = with_obs.first_pass {
        let peak = first.gauges.get("service.queue.peak_depth").copied();
        out.set("service.peak_queue_depth", peak.unwrap_or(0.0));
        counts = Counters::default();
        counts.absorb(first);
        out.set(
            "service.shed",
            counts.get("service.queue.shed") + counts.get("service.admission.shed"),
        );
    }
    counts.submits = subs.len() as u64;
    let speed = clock.factor();
    common::emit_layers(spans, speed, &counts, &ledger, wif_calls, tasks, out);

    let wal = ratio(with_obs.wal_bytes as f64, with_obs.wal_ingests as f64);
    common::emit_write_layers(spans, speed, wal, svc_flush.ms, &flush_counts, out);
    let shards = cfstore::ShardOptions::default().shards;
    out.set(
        "cfstore.shard_wal_bytes_per_ingest",
        wal / f64::from(shards),
    );

    out.set("service.enqueue_us", median(&with_obs.enqueue_us) * speed);
    let ticket_ms = all_workers.passes.p50(Latency::EveryTicket);
    out.set(
        "service.scaling_x",
        ratio(all_workers.passes.per_s(), one_worker.passes.per_s()),
    );
    out.set(
        "service.ticket_over_solo",
        ratio(ticket_ms, median(&solo_ms)),
    );
    out.set(
        "obs.trace_overhead_frac",
        ratio(with_obs.passes.p50(Latency::EveryTicket), ticket_ms) - 1.0,
    );
}
