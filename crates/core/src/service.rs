//! The multi-tenant tuning service (DESIGN.md §14).
//!
//! [`TuningService`] turns the single-caller [`PStorM`] daemon into a
//! concurrent front-end: many tenants submit jobs through one bounded
//! request queue, a worker pool drains it, and every tenant's traffic
//! runs against a [`ProfileStore::tenant_view`] of one shared backing
//! store — so profiles, matcher state, and normalization bounds are
//! namespaced per tenant while store writes still commit through the
//! same atomic `put_batch` frames.
//!
//! Three mechanisms keep tenants from hurting each other:
//!
//! 1. **Per-tenant FIFO scheduling.** Each tenant's submissions are
//!    processed serially in submission order (tenants run in parallel
//!    with each other), so a tenant's outcomes are a deterministic
//!    function of its own submission sequence — the isolation invariant
//!    the multi-tenant chaos sweep pins.
//! 2. **Admission control.** Two counts bound in-flight tuning
//!    pipelines and their memory budget. When the queue or a count is
//!    exhausted the service *sheds*: the job still runs, straight down
//!    the degradation ladder ([`PStorM::submit_untuned`]), and resolves
//!    as [`SubmissionOutcome::Degraded`] — overload never surfaces as an
//!    error and never blocks another tenant's slot.
//! 3. **Per-tenant circuit breakers.** `breaker_max_failures`
//!    consecutive hard failures open a tenant's breaker: further
//!    submissions are rejected fast into a bounded dead-letter queue
//!    (no cluster work, no permits consumed) for `breaker_cooldown`
//!    submissions, then a half-open trial decides whether to close it.
//!    A tenant stuck in a failure loop costs the service almost
//!    nothing.
//!
//! All of it is state of one scheduler behind one lock, which a worker
//! takes twice per submission — to claim it and to complete it — and never
//! holds while the submission runs (DESIGN.md §23). A submission that
//! panics is caught between the two: it costs its own ticket (a hard
//! failure, dead-lettered with the panic message), not its tenant or its
//! worker.
//!
//! Everything is observable: `service.queue.*` / `service.admission.*`
//! gauges and counters, and `tenant.<id>.*` counters per tenant.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use mrjobs::{Dataset, JobSpec};
use mrsim::{ClusterSpec, FaultSpec};

use crate::daemon::{DaemonError, PStorM, SubmissionOutcome, SubmissionReport};
use crate::store::{ProfileStore, ProfileStoreError};

/// Tuning knobs of a [`TuningService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the request queue. Tenants run in
    /// parallel up to this bound; one tenant never uses more than one
    /// worker at a time.
    pub workers: usize,
    /// Bound on queued (accepted but not yet started) submissions **per
    /// tenant** — a flooding tenant fills only its own queue and sheds
    /// only its own submissions, never a quiet neighbour's. A full queue
    /// sheds new submissions on the caller's thread instead of accepting
    /// them.
    pub queue_depth: usize,
    /// Admission bound on concurrently *tuning* submissions (the full
    /// sample → match → CBO pipeline). With every slot taken a
    /// submission is shed down the degradation ladder.
    pub max_in_flight: usize,
    /// Admission bound on the memory charged to in-flight tuning
    /// pipelines, in bytes.
    pub memory_budget_bytes: u64,
    /// Memory charged per tuning pipeline against
    /// [`Self::memory_budget_bytes`] (sample profile + columnar index
    /// snapshot + CBO search state).
    pub submission_memory_bytes: u64,
    /// Consecutive hard failures (not degradations) before a tenant's
    /// circuit breaker opens.
    pub breaker_max_failures: u32,
    /// Submissions fast-failed to the DLQ while the breaker is open,
    /// before a half-open trial is allowed.
    pub breaker_cooldown: u32,
    /// Bound on each tenant's dead-letter queue; the oldest entry is
    /// dropped (and counted) on overflow.
    pub dlq_capacity: usize,
    /// Matcher settings every tenant daemon is built with.
    pub matcher: crate::matcher::MatcherConfig,
    /// CBO settings every tenant daemon is built with.
    pub cbo: optimizer::CboOptions,
    /// Degradation-ladder policy for tenant daemons *and* the queue-full
    /// shed path.
    pub policy: crate::daemon::DegradationPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            max_in_flight: 4,
            memory_budget_bytes: 256 << 20,
            submission_memory_bytes: 32 << 20,
            breaker_max_failures: 3,
            breaker_cooldown: 8,
            dlq_capacity: 64,
            matcher: crate::matcher::MatcherConfig::default(),
            cbo: optimizer::CboOptions::default(),
            policy: crate::daemon::DegradationPolicy::default(),
        }
    }
}

/// How the service resolved one submission.
// One value per submission; the size spread between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServiceOutcome {
    /// The submission ran; see the report's [`SubmissionOutcome`] for
    /// whether it was tuned, profiled, or served degraded (load shedding
    /// lands here, as `Degraded`).
    Served(SubmissionReport),
    /// The submission ran into a hard error (hostile cluster beyond the
    /// degradation policy, unrecoverable store failure). Counted against
    /// the tenant's circuit breaker and dead-lettered.
    Failed { job_id: String, error: DaemonError },
    /// The submission has nothing to report: the tenant's circuit breaker
    /// was open and it never ran, or it panicked while running (caught;
    /// counted against the breaker like a failure), or the service shut
    /// down first. Dead-lettered.
    Rejected { job_id: String, reason: String },
}

/// One dead-lettered submission.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Per-tenant monotonic sequence number.
    pub seq: u64,
    pub job_id: String,
    pub seed: u64,
    /// Why it was dead-lettered (breaker state or the error text).
    pub reason: String,
}

/// A handle to one accepted submission; [`Ticket::wait`] blocks until
/// the service resolves it.
pub struct Ticket {
    rx: mpsc::Receiver<ServiceOutcome>,
    tenant: String,
    job_id: String,
}

impl Ticket {
    /// Block until the submission resolves. Every accepted submission
    /// resolves — shutdown drains the queue first.
    pub fn wait(self) -> ServiceOutcome {
        let job_id = self.job_id;
        self.rx.recv().unwrap_or(ServiceOutcome::Rejected {
            job_id,
            reason: "service shut down before the submission was processed".to_string(),
        })
    }

    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    pub fn job_id(&self) -> &str {
        &self.job_id
    }
}

/// Per-tenant circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Serving normally; `failures` consecutive hard failures so far.
    Closed { failures: u32 },
    /// Fast-failing; `remaining` more submissions are dead-lettered
    /// before the breaker goes half-open.
    Open { remaining: u32 },
    /// The next submission runs as a trial: success closes the breaker,
    /// failure re-opens it for a full cooldown.
    HalfOpen,
}

/// One queued submission.
struct Request {
    tenant: String,
    spec: JobSpec,
    dataset: Dataset,
    seed: u64,
    /// Per-request fault override (the chaos tests' hostile-tenant
    /// hook); `None` runs with the service cluster's faults.
    faults: Option<FaultSpec>,
    reply: mpsc::Sender<ServiceOutcome>,
}

/// Everything the service knows about one tenant. It lives under the
/// scheduler lock, but only the worker that has claimed the tenant (and
/// `submit`, appending to `items`) ever changes it.
struct TenantQueue {
    items: VecDeque<Request>,
    /// Whether this tenant is in `ready` or claimed by a worker. An
    /// active tenant is never re-enqueued into `ready`, which is what
    /// serializes each tenant's submissions — and what makes the claim
    /// the only exclusion the rest of this state needs.
    active: bool,
    /// Whether a worker has ever claimed a submission of this tenant
    /// (a tenant that was only ever shed at the queue has not).
    claimed: bool,
    breaker: Breaker,
    /// Sequence number of the next dead letter.
    dlq_seq: u64,
    /// Oldest first; bounded by `dlq_capacity`.
    dlq: VecDeque<DeadLetter>,
}

struct Sched {
    queues: HashMap<String, TenantQueue>,
    /// Tenants with pending work, none of which is currently claimed.
    ready: VecDeque<String>,
    /// Total queued (not yet claimed) requests; each tenant's share is
    /// bounded by `queue_depth`.
    queued: usize,
    /// Requests currently being processed by workers.
    in_flight: usize,
    /// Admission: tuning pipelines in flight (≤ `max_in_flight`) and the
    /// memory charged to them (≤ `memory_budget_bytes`).
    tasks_in_flight: usize,
    memory_in_use: u64,
    /// Tenants that have had a submission claimed.
    tenants: usize,
    shutdown: bool,
}

struct Inner {
    /// The service's one lock. Nothing that can block or fail runs under
    /// it — queue and counter updates and registry calls only — so it is
    /// held for microseconds: a submission runs between two holds of it,
    /// never inside one.
    sched: Mutex<Sched>,
    /// Workers wait here for ready tenants.
    work_cv: Condvar,
    /// `quiesce` waits here for the queue and workers to drain.
    idle_cv: Condvar,
    cfg: ServiceConfig,
    cluster: ClusterSpec,
    base: ProfileStore,
    obs: obs::Registry,
}

impl Inner {
    /// Poisoning is survived, not propagated: a guard dropped by a panic
    /// (only a registry call could raise one in there) must not wedge
    /// every tenant behind it.
    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The daemon one submission runs on, built for it: the tenant's view
    /// of the store, the service cluster under `faults`, the configured
    /// matcher, CBO and policy, recording into `reg`. A daemon is a value,
    /// not state — everything a submission leaves behind lives in the
    /// tenant's namespace, which every view of the tenant shares
    /// (DESIGN.md §17).
    fn daemon(
        &self,
        tenant: &str,
        faults: FaultSpec,
        reg: obs::Registry,
    ) -> Result<PStorM, ProfileStoreError> {
        let mut cluster = self.cluster.clone();
        cluster.faults = faults;
        let mut daemon = PStorM::with_store(self.base.tenant_view(tenant)?, cluster);
        daemon.matcher = self.cfg.matcher;
        daemon.cbo = self.cfg.cbo.clone();
        daemon.policy = self.cfg.policy;
        daemon.set_obs(reg);
        Ok(daemon)
    }
}

/// The concurrent multi-tenant tuning front-end. See the module docs.
pub struct TuningService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl TuningService {
    /// A service over `store` (tenant views are derived from it) and
    /// `cluster`, with no tracing.
    pub fn new(store: ProfileStore, cluster: ClusterSpec, cfg: ServiceConfig) -> Self {
        Self::with_obs(store, cluster, cfg, obs::Registry::disabled())
    }

    /// [`Self::new`] recording service + tenant metrics into `reg`. The
    /// registry is attached to the store before any tenant view exists,
    /// so backend `cfstore.*` counters land in the same trace.
    pub fn with_obs(
        mut store: ProfileStore,
        cluster: ClusterSpec,
        cfg: ServiceConfig,
        reg: obs::Registry,
    ) -> Self {
        store.set_obs(reg.clone());
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            sched: Mutex::new(Sched {
                queues: HashMap::new(),
                ready: VecDeque::new(),
                queued: 0,
                in_flight: 0,
                tasks_in_flight: 0,
                memory_in_use: 0,
                tenants: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            cfg,
            cluster,
            base: store,
            obs: reg,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        TuningService {
            inner,
            workers: handles,
        }
    }

    /// Submit a job on behalf of `tenant`. Returns a [`Ticket`]
    /// immediately; the submission is processed asynchronously, in FIFO
    /// order relative to the same tenant's other submissions.
    ///
    /// When the request queue is full the submission is shed **on the
    /// caller's thread** (backpressure): it runs the degradation ladder
    /// against the service cluster and resolves as
    /// [`SubmissionOutcome::Degraded`], without entering the tenant's
    /// pipeline. Errors here mean an invalid tenant id, never overload.
    ///
    /// # Examples
    ///
    /// Two tenants submit the same job; each profiles and stores its own
    /// first sighting because their store namespaces are disjoint:
    ///
    /// ```
    /// use pstorm::service::{ServiceConfig, ServiceOutcome, TuningService};
    /// use pstorm::{ProfileStore, SubmissionOutcome};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let svc = TuningService::new(
    ///     ProfileStore::new()?,
    ///     mrsim::ClusterSpec::ec2_c1_medium_16(),
    ///     ServiceConfig::default(),
    /// );
    /// let spec = mrjobs::jobs::word_count();
    /// let ds = datagen::corpus::random_text_1g();
    ///
    /// let acme = svc.submit("acme", &spec, &ds, 1)?;
    /// let zen = svc.submit("zen", &spec, &ds, 1)?;
    /// for ticket in [acme, zen] {
    ///     match ticket.wait() {
    ///         ServiceOutcome::Served(report) => assert!(matches!(
    ///             report.outcome,
    ///             SubmissionOutcome::ProfiledAndStored { .. }
    ///         )),
    ///         other => panic!("expected a served submission, got {other:?}"),
    ///     }
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn submit(
        &self,
        tenant: &str,
        spec: &JobSpec,
        dataset: &Dataset,
        seed: u64,
    ) -> Result<Ticket, ProfileStoreError> {
        self.submit_with_faults(tenant, spec, dataset, seed, None)
    }

    /// [`Self::submit`] with a per-request fault override — the chaos
    /// tests' hook for making one tenant's cluster hostile without
    /// touching anyone else's.
    pub fn submit_with_faults(
        &self,
        tenant: &str,
        spec: &JobSpec,
        dataset: &Dataset,
        seed: u64,
        faults: Option<FaultSpec>,
    ) -> Result<Ticket, ProfileStoreError> {
        cfstore::encoding::validate_tenant(tenant).map_err(ProfileStoreError::Codec)?;
        let inner = &self.inner;
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            rx,
            tenant: tenant.to_string(),
            job_id: spec.job_id(),
        };

        let accepted = {
            let mut sched = inner.sched();
            let shutdown = sched.shutdown;
            let tq = sched
                .queues
                .entry(tenant.to_string())
                .or_insert_with(|| TenantQueue {
                    items: VecDeque::new(),
                    active: false,
                    claimed: false,
                    breaker: Breaker::Closed { failures: 0 },
                    dlq_seq: 0,
                    dlq: VecDeque::new(),
                });
            if shutdown || tq.items.len() >= inner.cfg.queue_depth {
                false
            } else {
                tq.items.push_back(Request {
                    tenant: tenant.to_string(),
                    spec: spec.clone(),
                    dataset: dataset.clone(),
                    seed,
                    faults,
                    reply: tx.clone(),
                });
                let wake = !tq.active;
                tq.active = true;
                sched.queued += 1;
                if wake {
                    sched.ready.push_back(tenant.to_string());
                    inner.work_cv.notify_one();
                }
                let depth = sched.queued as f64;
                inner.obs.set_gauge("service.queue.depth", depth);
                inner.obs.max_gauge("service.queue.peak_depth", depth);
                true
            }
        };

        if accepted {
            inner.obs.incr("service.queue.enqueued", 1);
            return Ok(ticket);
        }

        // Queue full (or shutting down): shed on the caller's thread.
        // The job still runs — straight down the ladder, against the
        // service cluster, outside the tenant pipeline and its trace — and
        // resolves as Degraded, so overload is never an error.
        inner.obs.incr("service.queue.shed", 1);
        inner.obs.incr(&format!("tenant.{tenant}.shed"), 1);
        let daemon = inner.daemon(
            tenant,
            inner.cluster.faults.clone(),
            obs::Registry::disabled(),
        )?;
        let why = "request queue full; shed without tuning";
        let outcome = match daemon.submit_untuned(spec, dataset, seed, why) {
            Ok(report) => ServiceOutcome::Served(report),
            Err(error) => ServiceOutcome::Failed {
                job_id: spec.job_id(),
                error,
            },
        };
        let _ = tx.send(outcome);
        Ok(ticket)
    }

    /// Block until every queued submission has been processed and all
    /// workers are idle. Tickets resolved before `quiesce` returns.
    pub fn quiesce(&self) {
        let mut sched = self.inner.sched();
        while sched.queued > 0 || sched.in_flight > 0 {
            sched = self
                .inner
                .idle_cv
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A tenant's dead-letter queue, oldest first.
    pub fn dead_letters(&self, tenant: &str) -> Vec<DeadLetter> {
        let sched = self.inner.sched();
        let tq = sched.queues.get(tenant);
        tq.map_or_else(Vec::new, |tq| tq.dlq.iter().cloned().collect())
    }

    /// A fresh read view of a tenant's namespace in the backing store
    /// (for inspection; the service keeps using its own views).
    pub fn store_view(&self, tenant: &str) -> Result<ProfileStore, ProfileStoreError> {
        self.inner.base.tenant_view(tenant)
    }

    /// The registry service metrics are recorded into.
    pub fn obs(&self) -> &obs::Registry {
        &self.inner.obs
    }

    /// Flush the backing store (bounds WAL replay on durable backends).
    pub fn flush(&self) -> Result<(), ProfileStoreError> {
        self.inner.base.flush()
    }

    /// Run a full topology change on the shared sharded backend while
    /// the service keeps serving (DESIGN.md §15). Tenant submissions
    /// interleave freely with the migration: each `reshard_step` holds
    /// the store's global lock only as long as one batch would, and
    /// reads stay on the old placement until the journaled cutover.
    /// Errors on single-store backends.
    pub fn reshard(
        &self,
        plan: cfstore::Topology,
    ) -> Result<cfstore::ReshardStatus, ProfileStoreError> {
        self.inner.base.reshard(plan)
    }

    /// The in-flight migration on the backing store, if any.
    pub fn reshard_status(&self) -> Option<cfstore::ReshardStatus> {
        self.inner.base.reshard_status()
    }
}

impl Drop for TuningService {
    /// Graceful shutdown: stop accepting, drain everything already
    /// queued (every ticket resolves), then join the workers.
    fn drop(&mut self) {
        self.inner.sched().shutdown = true;
        self.inner.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What the claim decided about a submission.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    /// The tenant's breaker is open: dead-lettered at the claim, not run.
    FastFail,
    /// No tuning slot or no memory for it: runs untuned, holding nothing.
    Shed,
    /// Holds one tuning slot and its memory charge until completion.
    Admitted,
}

/// A worker takes the lock twice per submission. The *claim* decides
/// everything the scheduler decides — which tenant runs, whether its
/// breaker lets the submission through, whether a tuning slot and its
/// memory charge are free; the *completion* applies everything the
/// finished submission changes. The submission runs between the two with
/// no lock held, and the ticket resolves after the second, so
/// `dead_letters()` and the counters are current when `wait()` returns.
fn worker_loop(inner: &Inner) {
    while let Some((req, gate)) = claim(inner) {
        let job_id = req.spec.job_id();
        let outcome = match gate {
            Gate::FastFail => ServiceOutcome::Rejected {
                job_id,
                reason: "circuit breaker open; submission dead-lettered".to_string(),
            },
            // A panic in a submission costs that submission: it is a hard
            // failure of the ticket, and the completion below still runs —
            // the tenant is re-readied and this worker lives on.
            _ => match catch_unwind(AssertUnwindSafe(|| run(inner, &req, gate))) {
                Ok(Ok(report)) => ServiceOutcome::Served(report),
                Ok(Err(error)) => ServiceOutcome::Failed { job_id, error },
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("no message");
                    ServiceOutcome::Rejected {
                        job_id,
                        reason: format!("submission panicked: {message}"),
                    }
                }
            },
        };
        complete(inner, &req, gate, &outcome);
        let _ = req.reply.send(outcome);
    }
}

/// The claim: wait for a ready tenant, take its oldest submission, pass it
/// through the tenant's breaker, then through admission. `None` once the
/// service is shutting down and nothing is ready.
fn claim(inner: &Inner) -> Option<(Request, Gate)> {
    let (cfg, obs) = (&inner.cfg, &inner.obs);
    let mut guard = inner.sched();
    let tenant = loop {
        if let Some(tenant) = guard.ready.pop_front() {
            break tenant;
        }
        if guard.shutdown {
            return None;
        }
        guard = inner
            .work_cv
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner);
    };
    let sched = &mut *guard;
    let (tq, req) = sched
        .queues
        .get_mut(&tenant)
        .and_then(|tq| tq.items.pop_front().map(|req| (tq, req)))
        .expect("a ready tenant has a queue with work in it");
    // The tenant stays `active` (claimed) until `complete` — its later
    // submissions wait.
    sched.queued -= 1;
    sched.in_flight += 1;
    obs.set_gauge("service.queue.depth", sched.queued as f64);
    if !tq.claimed {
        tq.claimed = true;
        sched.tenants += 1;
        obs.set_gauge("service.tenants", sched.tenants as f64);
    }
    obs.incr(&format!("tenant.{tenant}.submissions"), 1);

    // Circuit breaker: while open, fast-fail without touching the cluster
    // or consuming admission permits.
    if let Breaker::Open { remaining } = tq.breaker {
        tq.breaker = if remaining <= 1 {
            Breaker::HalfOpen
        } else {
            Breaker::Open {
                remaining: remaining - 1,
            }
        };
        obs.incr(&format!("tenant.{tenant}.breaker.fast_fail"), 1);
        dead_letter(inner, tq, &req, "circuit breaker open");
        obs.incr(&format!("tenant.{tenant}.rejected"), 1);
        return Some((req, Gate::FastFail));
    }

    // Admission: a full tuning pipeline needs one slot and its memory
    // charge. Either one exhausted → shed, still serialized with the
    // tenant's other submissions.
    let mem = cfg.submission_memory_bytes;
    let gate = if sched.tasks_in_flight < cfg.max_in_flight.max(1)
        && cfg.memory_budget_bytes - sched.memory_in_use >= mem
    {
        sched.tasks_in_flight += 1;
        sched.memory_in_use += mem;
        Gate::Admitted
    } else {
        obs.incr("service.admission.shed", 1);
        obs.incr(&format!("tenant.{tenant}.shed"), 1);
        Gate::Shed
    };
    admission_gauges(obs, sched);
    Some((req, gate))
}

fn admission_gauges(obs: &obs::Registry, sched: &Sched) {
    obs.set_gauge(
        "service.admission.tasks_in_flight",
        sched.tasks_in_flight as f64,
    );
    obs.set_gauge(
        "service.admission.memory_in_use",
        sched.memory_in_use as f64,
    );
}

/// Run one claimed submission on a daemon of its own. No lock is held.
fn run(inner: &Inner, req: &Request, gate: Gate) -> Result<SubmissionReport, DaemonError> {
    let faults = req.faults.as_ref().unwrap_or(&inner.cluster.faults);
    let daemon = inner.daemon(&req.tenant, faults.clone(), inner.obs.clone())?;
    if gate == Gate::Admitted {
        daemon.submit(&req.spec, &req.dataset, req.seed)
    } else {
        let why = "admission control: no free tuning slot; shed under overload";
        daemon.submit_untuned(&req.spec, &req.dataset, req.seed, why)
    }
}

/// The completion: return the permits, move the breaker, dead-letter a
/// failure, re-ready the tenant, signal idleness.
fn complete(inner: &Inner, req: &Request, gate: Gate, outcome: &ServiceOutcome) {
    let (cfg, obs, tenant) = (&inner.cfg, &inner.obs, &req.tenant);
    // Hard failures — a typed error, or a panic — count against the
    // tenant's breaker and are dead-lettered; a fast-fail already was, at
    // the claim.
    let failure = match outcome {
        ServiceOutcome::Failed { error, .. } => Some(error.to_string()),
        ServiceOutcome::Rejected { reason, .. } if gate != Gate::FastFail => Some(reason.clone()),
        _ => None,
    };

    let mut guard = inner.sched();
    let sched = &mut *guard;
    if gate == Gate::Admitted {
        sched.tasks_in_flight -= 1;
        sched.memory_in_use -= cfg.submission_memory_bytes;
        admission_gauges(obs, sched);
    }
    let tq = sched.queues.get_mut(tenant);
    let tq = tq.expect("a claimed tenant has a queue");
    if let ServiceOutcome::Served(report) = outcome {
        if tq.breaker == Breaker::HalfOpen {
            obs.incr(&format!("tenant.{tenant}.breaker.closed"), 1);
        }
        tq.breaker = Breaker::Closed { failures: 0 };
        let label = match &report.outcome {
            SubmissionOutcome::Tuned { .. } => "tuned",
            SubmissionOutcome::ProfiledAndStored { .. } => "profiled",
            SubmissionOutcome::Degraded { .. } => "degraded",
        };
        obs.incr(&format!("tenant.{tenant}.{label}"), 1);
    }
    if let Some(reason) = failure {
        let max_failures = cfg.breaker_max_failures.max(1);
        let failures = match tq.breaker {
            Breaker::Closed { failures } => failures + 1,
            // A failed half-open trial re-opens immediately. (An open
            // breaker fast-fails at the claim; it has no trial to fail.)
            Breaker::HalfOpen | Breaker::Open { .. } => max_failures,
        };
        if failures >= max_failures {
            tq.breaker = Breaker::Open {
                remaining: cfg.breaker_cooldown.max(1),
            };
            obs.incr(&format!("tenant.{tenant}.breaker.trips"), 1);
            obs.event(
                "service.breaker.open",
                &[
                    ("tenant", tenant.as_str().into()),
                    ("cooldown", cfg.breaker_cooldown.into()),
                ],
            );
        } else {
            tq.breaker = Breaker::Closed { failures };
        }
        obs.incr(&format!("tenant.{tenant}.failed"), 1);
        dead_letter(inner, tq, req, &reason);
    }

    if tq.items.is_empty() {
        tq.active = false;
    } else {
        sched.ready.push_back(tenant.clone());
        inner.work_cv.notify_one();
    }
    sched.in_flight -= 1;
    if sched.queued == 0 && sched.in_flight == 0 {
        inner.idle_cv.notify_all();
    }
}

fn dead_letter(inner: &Inner, tq: &mut TenantQueue, req: &Request, reason: &str) {
    let (obs, tenant) = (&inner.obs, &req.tenant);
    tq.dlq.push_back(DeadLetter {
        seq: tq.dlq_seq,
        job_id: req.spec.job_id(),
        seed: req.seed,
        reason: reason.to_string(),
    });
    tq.dlq_seq += 1;
    if tq.dlq.len() > inner.cfg.dlq_capacity {
        tq.dlq.pop_front();
        obs.incr(&format!("tenant.{tenant}.dlq.dropped"), 1);
    }
    obs.set_gauge(&format!("tenant.{tenant}.dlq.depth"), tq.dlq.len() as f64);
    obs.incr(&format!("tenant.{tenant}.dlq.enqueued"), 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use optimizer::CboOptions;

    fn small_service(cfg: ServiceConfig) -> TuningService {
        TuningService::with_obs(
            ProfileStore::new().unwrap(),
            ClusterSpec::ec2_c1_medium_16(),
            cfg,
            obs::Registry::new(),
        )
    }

    fn counter(svc: &TuningService, name: &str) -> u64 {
        *svc.obs().snapshot().counters.get(name).unwrap_or(&0)
    }

    #[test]
    fn tenants_profile_and_tune_independently() {
        let svc = small_service(ServiceConfig::default());
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();

        // Both tenants' first submissions profile-and-store; their second
        // submissions tune — against their own stored profile.
        for round in 0..2u64 {
            let tickets: Vec<Ticket> = ["acme", "zen"]
                .iter()
                .map(|t| svc.submit(t, &spec, &ds, round + 1).unwrap())
                .collect();
            for ticket in tickets {
                match ticket.wait() {
                    ServiceOutcome::Served(report) => match (round, report.outcome) {
                        (0, SubmissionOutcome::ProfiledAndStored { .. }) => {}
                        (1, SubmissionOutcome::Tuned { .. }) => {}
                        (r, other) => panic!("round {r}: unexpected outcome {other:?}"),
                    },
                    other => panic!("expected served, got {other:?}"),
                }
            }
        }
        svc.quiesce();
        assert_eq!(svc.store_view("acme").unwrap().len().unwrap(), 1);
        assert_eq!(svc.store_view("zen").unwrap().len().unwrap(), 1);
        assert_eq!(counter(&svc, "tenant.acme.tuned"), 1);
        assert_eq!(counter(&svc, "tenant.zen.profiled"), 1);
    }

    #[test]
    fn per_tenant_submissions_resolve_in_fifo_order() {
        let svc = small_service(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();
        // First submission must profile, the rest must tune — which can
        // only happen if the tenant's queue is processed strictly FIFO
        // even with multiple workers available.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| svc.submit("acme", &spec, &ds, 10 + i).unwrap())
            .collect();
        let outcomes: Vec<ServiceOutcome> = tickets.into_iter().map(Ticket::wait).collect();
        match &outcomes[0] {
            ServiceOutcome::Served(r) => {
                assert!(matches!(
                    r.outcome,
                    SubmissionOutcome::ProfiledAndStored { .. }
                ))
            }
            other => panic!("first submission: {other:?}"),
        }
        for o in &outcomes[1..] {
            match o {
                ServiceOutcome::Served(r) => {
                    assert!(matches!(r.outcome, SubmissionOutcome::Tuned { .. }))
                }
                other => panic!("later submission: {other:?}"),
            }
        }
    }

    #[test]
    fn overload_sheds_as_degraded_never_errors() {
        // One worker, one tuning slot, a 2-deep queue: flooding it must
        // resolve every ticket as Served (some Degraded via shedding),
        // never Failed/panic.
        let svc = small_service(ServiceConfig {
            workers: 1,
            queue_depth: 2,
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| svc.submit("flood", &spec, &ds, 100 + i).unwrap())
            .collect();
        let mut degraded = 0;
        for ticket in tickets {
            match ticket.wait() {
                ServiceOutcome::Served(report) => {
                    if matches!(report.outcome, SubmissionOutcome::Degraded { .. }) {
                        degraded += 1;
                    }
                }
                other => panic!("overload must never error: {other:?}"),
            }
        }
        assert!(degraded > 0, "expected queue-full shedding");
        assert!(counter(&svc, "service.queue.shed") > 0);
        let snap = svc.obs().snapshot();
        assert!(snap.gauges.contains_key("service.queue.depth"));
        assert!(snap.gauges["service.queue.peak_depth"] >= 1.0);
    }

    #[test]
    fn memory_exhaustion_sheds_through_the_ladder() {
        // Tasks are plentiful but the memory budget fits nothing: every
        // submission sheds through the tenant's daemon (admission shed,
        // not queue shed) and still serves.
        let svc = small_service(ServiceConfig {
            workers: 2,
            memory_budget_bytes: 1,
            ..ServiceConfig::default()
        });
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();
        let t = svc.submit("acme", &spec, &ds, 7).unwrap();
        match t.wait() {
            ServiceOutcome::Served(report) => match report.outcome {
                SubmissionOutcome::Degraded { ref reason, .. } => {
                    assert!(reason.contains("admission control"), "{reason}")
                }
                other => panic!("expected degraded, got {other:?}"),
            },
            other => panic!("expected served, got {other:?}"),
        }
        assert_eq!(counter(&svc, "service.admission.shed"), 1);
        // Nothing was stored: the shed path skips the feedback loop.
        assert_eq!(svc.store_view("acme").unwrap().len().unwrap(), 0);
    }

    #[test]
    fn breaker_trips_dead_letters_and_recovers() {
        let hostile = FaultSpec {
            node_loss_prob: 1.0,
            ..FaultSpec::default()
        };
        let mut cfg = ServiceConfig {
            workers: 2,
            breaker_max_failures: 2,
            breaker_cooldown: 3,
            dlq_capacity: 8,
            ..ServiceConfig::default()
        };
        cfg.queue_depth = 64;
        let svc = small_service(cfg);
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();

        // Two hard failures trip the breaker…
        for seed in 0..2 {
            match svc
                .submit_with_faults("bad", &spec, &ds, seed, Some(hostile.clone()))
                .unwrap()
                .wait()
            {
                ServiceOutcome::Failed { .. } => {}
                other => panic!("hostile tenant should fail hard: {other:?}"),
            }
        }
        // …the next `cooldown` submissions are rejected fast…
        for seed in 2..5 {
            match svc.submit("bad", &spec, &ds, seed).unwrap().wait() {
                ServiceOutcome::Rejected { reason, .. } => {
                    assert!(reason.contains("circuit breaker"), "{reason}")
                }
                other => panic!("expected fast rejection, got {other:?}"),
            }
        }
        // …and a healthy half-open trial closes it again.
        match svc.submit("bad", &spec, &ds, 50).unwrap().wait() {
            ServiceOutcome::Served(_) => {}
            other => panic!("half-open trial should serve: {other:?}"),
        }
        // Meanwhile a healthy tenant was never affected.
        match svc.submit("good", &spec, &ds, 1).unwrap().wait() {
            ServiceOutcome::Served(_) => {}
            other => panic!("healthy tenant must serve: {other:?}"),
        }

        let dlq = svc.dead_letters("bad");
        assert_eq!(dlq.len(), 5, "2 failures + 3 fast-fails: {dlq:?}");
        assert!(dlq.iter().any(|d| d.reason.contains("circuit breaker")));
        assert!(svc.dead_letters("good").is_empty());
        assert_eq!(counter(&svc, "tenant.bad.breaker.trips"), 1);
        assert_eq!(counter(&svc, "tenant.bad.breaker.fast_fail"), 3);
        assert_eq!(counter(&svc, "tenant.bad.breaker.closed"), 1);
        assert_eq!(counter(&svc, "tenant.good.failed"), 0);
    }

    #[test]
    fn dlq_is_bounded_and_drops_oldest() {
        let hostile = FaultSpec {
            node_loss_prob: 1.0,
            ..FaultSpec::default()
        };
        let svc = small_service(ServiceConfig {
            workers: 1,
            breaker_max_failures: u32::MAX, // never trip: every failure dead-letters via the error path
            dlq_capacity: 2,
            ..ServiceConfig::default()
        });
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();
        for seed in 0..4 {
            let _ = svc
                .submit_with_faults("bad", &spec, &ds, seed, Some(hostile.clone()))
                .unwrap()
                .wait();
        }
        let dlq = svc.dead_letters("bad");
        assert_eq!(dlq.len(), 2);
        assert_eq!(dlq[0].seq, 2, "oldest entries dropped: {dlq:?}");
        assert_eq!(counter(&svc, "tenant.bad.dlq.dropped"), 2);
    }

    /// A submission that panics is a hard failure of its own ticket: the
    /// tenant's later tickets still resolve, the failure counts against
    /// its breaker and is dead-lettered with the panic message, the permits
    /// come back, another tenant is served by the same (only) worker, and
    /// `quiesce` returns. The panic needs no hook: the simulator divides by
    /// a public `ClusterSpec`'s block size.
    #[test]
    fn a_panicking_submission_costs_one_ticket_not_the_tenant() {
        let mut cluster = ClusterSpec::ec2_c1_medium_16();
        cluster.hdfs_block_mb = 0;
        let cfg = ServiceConfig {
            workers: 1,
            breaker_max_failures: 2,
            breaker_cooldown: 1,
            ..ServiceConfig::default()
        };
        let svc = TuningService::with_obs(
            ProfileStore::new().unwrap(),
            cluster,
            cfg,
            obs::Registry::new(),
        );
        // Without the fix the second ticket never resolves: script the
        // service on a thread this test can give up on.
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let spec = jobs::word_count();
            let ds = corpus::random_text_1g();
            let reasons: Vec<String> = [("a", 1), ("a", 2), ("a", 3), ("b", 4)]
                .iter()
                .map(
                    |&(tenant, seed)| match svc.submit(tenant, &spec, &ds, seed).unwrap().wait() {
                        ServiceOutcome::Rejected { reason, .. } => reason,
                        other => panic!("{tenant}/{seed}: expected a rejection, got {other:?}"),
                    },
                )
                .collect();
            svc.quiesce();
            let _ = done_tx.send((reasons, svc));
        });
        let (reasons, svc) = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a panicked submission wedged its tenant");

        for panicked in [&reasons[0], &reasons[1], &reasons[3]] {
            assert!(
                panicked.starts_with("submission panicked: ")
                    && panicked.contains("divide by zero"),
                "{panicked}"
            );
        }
        assert!(reasons[2].contains("circuit breaker open"), "{reasons:?}");
        let dlq = svc.dead_letters("a");
        assert_eq!(dlq.len(), 3, "{dlq:?}");
        assert_eq!(dlq[0].reason, reasons[0]);
        assert_eq!(counter(&svc, "tenant.a.failed"), 2);
        assert_eq!(counter(&svc, "tenant.a.breaker.trips"), 1);
        assert_eq!(counter(&svc, "tenant.a.breaker.fast_fail"), 1);
        assert_eq!(counter(&svc, "tenant.b.failed"), 1);
        let gauges = svc.obs().snapshot().gauges;
        assert_eq!(gauges["service.admission.tasks_in_flight"], 0.0);
        assert_eq!(gauges["service.admission.memory_in_use"], 0.0);
    }

    #[test]
    fn invalid_tenant_is_a_typed_error() {
        let svc = small_service(ServiceConfig::default());
        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();
        assert!(matches!(
            svc.submit("no/slash", &spec, &ds, 1),
            Err(ProfileStoreError::Codec(_))
        ));
    }

    #[test]
    fn service_outcomes_match_a_solo_daemon_bit_for_bit() {
        // The single-tenant equivalence check: a tenant's outcomes under
        // the concurrent service equal a solo PStorM run on its own
        // store, including the predicted runtime's exact bits.
        let spec = jobs::word_cooccurrence_pairs(2);
        let ds = corpus::random_text_1g();

        let solo = PStorM::new().unwrap();
        let s1 = solo.submit(&spec, &ds, 1).unwrap();
        let s2 = solo.submit(&spec, &ds, 2).unwrap();

        let svc = small_service(ServiceConfig::default());
        // A noisy neighbour runs concurrently the whole time.
        let noise: Vec<Ticket> = (0..3)
            .map(|i| {
                svc.submit("noisy", &jobs::sort(), &corpus::teragen_1g(), i)
                    .unwrap()
            })
            .collect();
        let v1 = svc.submit("quiet", &spec, &ds, 1).unwrap().wait();
        let v2 = svc.submit("quiet", &spec, &ds, 2).unwrap().wait();
        for t in noise {
            let _ = t.wait();
        }

        let (ServiceOutcome::Served(r1), ServiceOutcome::Served(r2)) = (v1, v2) else {
            panic!("quiet tenant must serve");
        };
        assert!(matches!(
            r1.outcome,
            SubmissionOutcome::ProfiledAndStored { .. }
        ));
        assert_eq!(r1.run.runtime_ms.to_bits(), s1.run.runtime_ms.to_bits());
        match (&r2.outcome, &s2.outcome) {
            (
                SubmissionOutcome::Tuned {
                    matched: m_svc,
                    predicted_ms: p_svc,
                    tuned_config: c_svc,
                },
                SubmissionOutcome::Tuned {
                    matched: m_solo,
                    predicted_ms: p_solo,
                    tuned_config: c_solo,
                },
            ) => {
                assert_eq!(m_svc.map.source_job, m_solo.map.source_job);
                assert_eq!(p_svc.to_bits(), p_solo.to_bits());
                assert_eq!(c_svc, c_solo);
            }
            other => panic!("expected tuned on both paths: {other:?}"),
        }
        assert_eq!(r2.run.runtime_ms.to_bits(), s2.run.runtime_ms.to_bits());
    }

    #[test]
    fn cbo_options_reachable_through_default_daemon() {
        // Guard: tenant daemons are built with default CboOptions; this
        // pins the assumption the equivalence test above relies on.
        let solo = PStorM::new().unwrap();
        let d = CboOptions::default();
        assert_eq!(solo.cbo.budget, d.budget);
        assert_eq!(solo.cbo.rounds, d.rounds);
    }
}
