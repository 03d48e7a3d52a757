//! Multi-model routing: a ladder of repair backends behind one submit/await
//! surface.
//!
//! The paper's central result is that a *staged* model (pretrain → SFT → DPO)
//! beats any single checkpoint, and its evaluation compares the solver against a
//! spread of baseline surrogates.  A service that can hold only one
//! [`RepairModel`] forces every such comparison to spin up a fresh process; this
//! module instead serves **N named backends at once**, each with its own sharded
//! repair pool and content-addressed response cache (built from the
//! [`crate::service`] recipe), and routes every request by a [`RoutePolicy`]:
//!
//! * [`RoutePolicy::Pinned`] — the request goes to one named backend; the
//!   serving-side analogue of evaluating a single checkpoint.
//! * [`RoutePolicy::AbSplit`] — a content hash of the request picks a
//!   deterministic arm, so a corpus splits reproducibly across backends no
//!   matter the worker count, shard capacity, or arrival order.
//! * [`RoutePolicy::Escalate`] — the request is served by the *cheapest* backend
//!   first ([`RepairModel::cost`] orders the ladder); an [`EscalationJudge`]
//!   (typically backed by the [`crate::verify`] pool) judges the candidates, and
//!   a failed verdict re-submits the request to the next rung.  The full attempt
//!   trail is recorded on the [`RouteOutcome`] — the serving-side analogue of
//!   learning from wrongs.
//!
//! ## Determinism
//!
//! Every placement decision is a pure function of request content: backends
//! sample with content-derived seeds (see [`crate::service`]), the A/B arm is a
//! salted hash of the request key modulo the backend count (never the shard
//! count), and escalation verdicts are pure functions of `(case, response,
//! checker config)`.  Routing the same workload with any worker count per
//! backend, any number of escalation coordinators, and warm or cold caches
//! yields byte-identical outcomes.
//!
//! ## Persistence
//!
//! Each backend keeps its own [`crate::ServiceConfig::persist`] spec, so a
//! warm-started ladder preloads one snapshot per model identity and skips every
//! previously-solved rung (`assertsolver::EvalConfig::service_config_for` wires
//! the per-identity file names).

use crate::cache::CaseKey;
use crate::journal::{JournalEvent, TracerHandle};
use crate::metrics::{indent_block, render_block, ServiceMetrics, VerifyMetrics};
use crate::pool::Pool;
use crate::queue::{ServiceClosed, Shard, SubmitError};
use crate::service::{splitmix64, Repair, RepairRequest, ServiceConfig};
use crate::telemetry::{Metric, MetricClass, TelemetryHandle};
use crate::ticket::TicketState;
use crate::trace::{stage, TraceHandle, TraceSpan};
use serde::{Deserialize, Serialize};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;
use svmodel::{RepairModel, Response};

/// Salt mixed into the A/B arm hash so arm assignment decorrelates from the
/// per-backend shard placement (both start from the same 64-bit key fold).
const AB_SALT: u64 = 0xAB5E_C0DE_5EED_0A2B;

/// How a request is placed onto the router's backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Serve on the backend at this index (see [`ModelRouter::backend_index`]).
    Pinned(usize),
    /// A content hash of the request picks a deterministic arm: stable across
    /// worker counts, shard capacities and arrival orders, so an evaluation
    /// split is reproducible run to run.
    AbSplit,
    /// Cheapest backend first; on a failed [`EscalationJudge`] verdict the
    /// request re-submits to the next rung of the cost-ordered ladder.
    Escalate,
}

/// The deterministic A/B arm for a request key over `arms` backends.
///
/// Exposed so tests and evaluations can predict (and assert) the split without
/// routing: the arm depends only on the request content and the backend count —
/// never on per-backend worker counts or shard capacities.
pub fn ab_arm(key: CaseKey, arms: usize) -> usize {
    (splitmix64(key.fold64() ^ AB_SALT) % arms.max(1) as u64) as usize
}

/// What an [`EscalationJudge`] concluded about one backend's response set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JudgeReport {
    /// Distinct candidates judged (identical responses collapse to one).
    pub distinct: usize,
    /// Responses judged correct, counted *with* multiplicity — the per-case
    /// correct count `c` of pass@k, so ladder evaluations and pinned
    /// evaluations agree on what a solve is.
    pub correct: usize,
}

impl JudgeReport {
    /// Whether the rung's answer is accepted (any candidate judged correct).
    pub fn accepted(&self) -> bool {
        self.correct > 0
    }
}

/// Decides whether a backend's candidates solve a request, for
/// [`RoutePolicy::Escalate`].
///
/// Implementations typically fan the distinct candidates out to a
/// [`crate::VerifyPool`] and fold the verdicts into a [`JudgeReport`] — that is
/// exactly what `assertsolver::evaluate_ladder` does with its `EvalVerifier`.
/// Judges must be pure in `(request, responses)`: the router replays rungs from
/// per-backend response caches, so an impure judge would break the determinism
/// guarantee.  Implemented for free by any matching `Fn` closure.
pub trait EscalationJudge: Send + Sync {
    /// Judges one backend's response set for one request.
    fn judge(&self, request: &RepairRequest, responses: &[Response]) -> JudgeReport;
}

impl<F> EscalationJudge for F
where
    F: Fn(&RepairRequest, &[Response]) -> JudgeReport + Send + Sync,
{
    fn judge(&self, request: &RepairRequest, responses: &[Response]) -> JudgeReport {
        self(request, responses)
    }
}

/// One backend of the router: a named model plus the service configuration its
/// dedicated repair pool runs under.
pub struct BackendSpec {
    /// Display name (defaults to the model's name; override when serving two
    /// same-named checkpoints, e.g. differently seeded base models).
    pub name: String,
    /// Relative cost used to order the escalation ladder (defaults to
    /// [`RepairModel::cost`]).
    pub cost: u32,
    /// The model served by this backend.
    pub model: Arc<dyn RepairModel + Send + Sync>,
    /// Pool configuration — workers, queues, cache, seed, and (for warm ladders)
    /// the per-identity persistence spec.
    pub config: ServiceConfig,
}

impl BackendSpec {
    /// Builds a spec named and costed by the model itself.
    pub fn new(model: Arc<dyn RepairModel + Send + Sync>, config: ServiceConfig) -> Self {
        Self {
            name: model.name().to_string(),
            cost: model.cost(),
            model,
            config,
        }
    }

    /// Returns the spec with the display name replaced.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns the spec with the ladder cost replaced.
    pub fn with_cost(mut self, cost: u32) -> Self {
        self.cost = cost;
        self
    }
}

/// Router tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Escalation coordinator threads: each drives one in-flight
    /// [`RoutePolicy::Escalate`] request through the ladder (submit to a rung,
    /// await, judge, maybe re-submit).  Clamped to at least 1.
    pub escalation_workers: usize,
    /// Bounded depth of the escalation queue; submitters block past this.
    pub escalation_capacity: usize,
    /// Journal tracer the routing layer emits rung events to; off by default,
    /// in which case the ladder costs one branch per request.  Rung events are
    /// pure functions of request content (backend name, judge tallies), so
    /// they land in the deterministic journal.
    pub tracer: TracerHandle,
    /// Telemetry registry the escalation ladder records into: per-rung
    /// `route.rung.<n>.cost` (deterministic — backend cost is a pure function
    /// of ladder order) and `route.rung.<n>.latency` (volatile wall-clock per
    /// leg) histograms.  Off by default — one branch per leg.
    pub telemetry: TelemetryHandle,
    /// Trace collector ([`crate::trace`]) the escalation ladder records
    /// per-rung spans into: each leg becomes a `rung.<n>` child of the
    /// request's root context, sequenced at [`stage::RUNG_BASE`]` + n` so
    /// rung spans interleave deterministically with the session stages.
    /// Off by default — one branch per leg.
    pub trace: TraceHandle,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            escalation_workers: 2,
            escalation_capacity: 64,
            tracer: TracerHandle::off(),
            telemetry: TelemetryHandle::off(),
            trace: TraceHandle::off(),
        }
    }
}

impl RouterConfig {
    /// Returns the config with the journal tracer replaced.
    pub fn with_tracer(mut self, tracer: TracerHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// Returns the config with the telemetry handle replaced.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Returns the config with the trace collector replaced.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    fn normalized(mut self) -> Self {
        self.escalation_workers = self.escalation_workers.max(1);
        self.escalation_capacity = self.escalation_capacity.max(1);
        self
    }
}

/// One rung of a served request's trail: which backend ran, what the judge said.
///
/// [`RoutePolicy::Pinned`] and [`RoutePolicy::AbSplit`] outcomes carry exactly
/// one unjudged attempt; [`RoutePolicy::Escalate`] outcomes carry one judged
/// attempt per rung tried, in ladder order.  Every field is a pure function of
/// request content, so trails participate in the byte-identical determinism
/// contract — cache provenance (which varies with warmth and LRU eviction)
/// deliberately lives on [`RouteOutcome::from_cache`] and in the pool metrics,
/// not here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteAttempt {
    /// Backend display name.
    pub backend: String,
    /// Backend ladder cost.
    pub cost: u32,
    /// Whether an [`EscalationJudge`] examined this rung (`false` for the
    /// single attempt of a Pinned/AbSplit route, whose caller judges — or
    /// doesn't — downstream).
    pub judged: bool,
    /// Distinct candidates the judge examined (0 when unjudged).
    pub distinct_candidates: usize,
    /// Candidates judged correct, with multiplicity (0 when unjudged).
    pub correct_candidates: usize,
    /// Whether the router stopped here: the judge accepted the rung, the ladder
    /// was exhausted, or the policy never escalates.
    pub terminal: bool,
}

/// A routed request's final answer plus its full attempt trail.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// The response set of the final (terminal) attempt.
    pub responses: Arc<Vec<Response>>,
    /// Index of the backend that produced the final answer.
    pub backend: usize,
    /// Name of the backend that produced the final answer.
    pub backend_name: String,
    /// One entry per rung tried, in order; length 1 for Pinned/AbSplit.
    pub attempts: Vec<RouteAttempt>,
    /// Whether the final answer came from the backend's response cache.
    pub from_cache: bool,
}

impl RouteOutcome {
    /// Verdict-triggered re-submissions this request needed (0 = solved, or
    /// never judged, at the first rung).
    pub fn escalations(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Whether an escalation ladder ended in an accepted verdict (`false` for
    /// exhausted ladders and unjudged policies).
    pub fn accepted(&self) -> bool {
        self.attempts
            .last()
            .map(|attempt| attempt.judged && attempt.correct_candidates > 0)
            .unwrap_or(false)
    }

    /// Total cost of every rung tried, saturating at `u32::MAX`.
    ///
    /// Backends without a configured cost report the `u32::MAX` sentinel, so a
    /// trail that walked through one (an exhausted ladder ending at a
    /// priceless rung) must saturate rather than wrap: a wrapped sum would
    /// report a nearly-free trail for the most expensive path in the system.
    pub fn trail_cost(&self) -> u32 {
        self.attempts
            .iter()
            .fold(0u32, |total, attempt| total.saturating_add(attempt.cost))
    }
}

enum TicketInner {
    /// Pinned / A/B routes: the backend's own ticket, finalized at wait time.
    Direct {
        ticket: crate::service::RepairTicket,
        backend: usize,
        name: String,
        cost: u32,
    },
    /// Escalate routes: fulfilled by an escalation coordinator.
    Escalated(Arc<TicketState<RouteOutcome>>),
}

/// Await-handle for a routed request.
pub struct RouteTicket {
    inner: TicketInner,
}

/// Folds a direct (Pinned/AbSplit) backend outcome into the routed shape.
fn finalize_direct(
    outcome: crate::service::RepairOutcome,
    backend: usize,
    name: String,
    cost: u32,
) -> RouteOutcome {
    RouteOutcome {
        attempts: vec![RouteAttempt {
            backend: name.clone(),
            cost,
            judged: false,
            distinct_candidates: 0,
            correct_candidates: 0,
            terminal: true,
        }],
        backend,
        backend_name: name,
        from_cache: outcome.from_cache,
        responses: outcome.responses,
    }
}

impl RouteTicket {
    /// Blocks until the request has been served (through however many rungs the
    /// policy needed).
    pub fn wait(self) -> RouteOutcome {
        match self.inner {
            TicketInner::Direct {
                ticket,
                backend,
                name,
                cost,
            } => finalize_direct(ticket.wait(), backend, name, cost),
            TicketInner::Escalated(state) => state.wait(),
        }
    }
}

impl Future for RouteTicket {
    type Output = RouteOutcome;

    /// Awaits the routed outcome without holding a thread; works for every
    /// policy (direct tickets finalize on completion, escalated tickets are
    /// fulfilled by a coordinator).
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<RouteOutcome> {
        match &mut self.get_mut().inner {
            TicketInner::Direct {
                ticket,
                backend,
                name,
                cost,
            } => match Pin::new(ticket).poll(cx) {
                Poll::Ready(outcome) => Poll::Ready(finalize_direct(
                    outcome,
                    *backend,
                    std::mem::take(name),
                    *cost,
                )),
                Poll::Pending => Poll::Pending,
            },
            TicketInner::Escalated(state) => state.poll_take(cx.waker()),
        }
    }
}

struct Backend {
    name: String,
    cost: u32,
    model: Arc<dyn RepairModel + Send + Sync>,
    pool: Arc<Pool<Repair>>,
}

enum RouteSubmitKind<'a> {
    /// Pinned / A/B routes: the backend pool's own submit future.
    Direct {
        fut: crate::service::SubmitFuture<'a>,
        backend: usize,
        policy: RoutePolicy,
    },
    /// Escalate routes: a waker-parked push onto the escalation queue.
    Escalate {
        job: Option<EscalateJob>,
        state: Arc<TicketState<RouteOutcome>>,
    },
}

/// Future returned by [`ModelRouter::submit_async`]: resolves to the request's
/// [`RouteTicket`] once the backend shard (direct policies) or the escalation
/// queue has accepted the job, parking on a waker while at capacity.
pub struct RouteSubmitFuture<'a> {
    core: &'a RouterCore,
    kind: RouteSubmitKind<'a>,
}

impl Future for RouteSubmitFuture<'_> {
    type Output = Result<RouteTicket, ServiceClosed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match &mut this.kind {
            RouteSubmitKind::Direct {
                fut,
                backend,
                policy,
            } => match Pin::new(fut).poll(cx) {
                Poll::Ready(Ok(ticket)) => {
                    // Counted only once the backend accepted the job, matching
                    // the blocking path's accounting.
                    let counter = match policy {
                        RoutePolicy::AbSplit => &this.core.recorder.ab_split_requests,
                        _ => &this.core.recorder.pinned_requests,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    let spec = &this.core.backends[*backend];
                    Poll::Ready(Ok(RouteTicket {
                        inner: TicketInner::Direct {
                            ticket,
                            backend: *backend,
                            name: spec.name.clone(),
                            cost: spec.cost,
                        },
                    }))
                }
                Poll::Ready(Err(closed)) => Poll::Ready(Err(closed)),
                Poll::Pending => Poll::Pending,
            },
            RouteSubmitKind::Escalate { job, state } => {
                match this
                    .core
                    .queue
                    .poll_push(job, &this.core.closed, cx.waker())
                {
                    Poll::Ready(Ok(_)) => {
                        this.core.recorder.submitted.fetch_add(1, Ordering::Relaxed);
                        Poll::Ready(Ok(RouteTicket {
                            inner: TicketInner::Escalated(Arc::clone(state)),
                        }))
                    }
                    Poll::Ready(Err(closed)) => Poll::Ready(Err(closed)),
                    Poll::Pending => Poll::Pending,
                }
            }
        }
    }
}

struct EscalateJob {
    request: RepairRequest,
    ticket: Arc<TicketState<RouteOutcome>>,
}

/// Atomic escalation-stage counters (the backend pools carry their own
/// `MetricsRecorder`s; these cover only the routing layer on top).
struct EscalationRecorder {
    submitted: AtomicU64,
    completed: AtomicU64,
    accepted: AtomicU64,
    exhausted: AtomicU64,
    verdict_resubmits: AtomicU64,
    judge_panics: AtomicU64,
    journal_events: AtomicU64,
    /// `depth_histogram[d]` counts escalation requests that tried `d + 1` rungs.
    depth_histogram: Vec<AtomicU64>,
    pinned_requests: AtomicU64,
    ab_split_requests: AtomicU64,
}

impl EscalationRecorder {
    fn new(rungs: usize) -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            verdict_resubmits: AtomicU64::new(0),
            judge_panics: AtomicU64::new(0),
            journal_events: AtomicU64::new(0),
            depth_histogram: (0..rungs).map(|_| AtomicU64::new(0)).collect(),
            pinned_requests: AtomicU64::new(0),
            ab_split_requests: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> EscalationMetrics {
        EscalationMetrics {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            verdict_resubmits: self.verdict_resubmits.load(Ordering::Relaxed),
            judge_panics: self.judge_panics.load(Ordering::Relaxed),
            journal_events: self.journal_events.load(Ordering::Relaxed),
            depth_histogram: self
                .depth_histogram
                .iter()
                .map(|bucket| bucket.load(Ordering::Relaxed))
                .collect(),
            pinned_requests: self.pinned_requests.load(Ordering::Relaxed),
            ab_split_requests: self.ab_split_requests.load(Ordering::Relaxed),
        }
    }
}

/// Pre-resolved telemetry handles for one ladder position, so an escalation
/// leg pays lock-free atomics (or one branch, telemetry off) — never a
/// registry lock.
struct RungMetrics {
    cost: Option<Arc<Metric>>,
    latency: Option<Arc<Metric>>,
}

impl RungMetrics {
    fn new(telemetry: &TelemetryHandle, rung: usize) -> Self {
        Self {
            cost: telemetry.histogram(
                &format!("route.rung.{rung}.cost"),
                MetricClass::Deterministic,
            ),
            latency: telemetry
                .histogram(&format!("route.rung.{rung}.latency"), MetricClass::Volatile),
        }
    }
}

struct RouterCore {
    backends: Vec<Backend>,
    /// Backend indices sorted by `(cost, index)` — the escalation order.
    ladder: Vec<usize>,
    /// One telemetry handle pair per ladder position (`route.rung.<n>.*`).
    rung_metrics: Vec<RungMetrics>,
    queue: Shard<EscalateJob>,
    judge: Arc<dyn EscalationJudge>,
    recorder: EscalationRecorder,
    tracer: TracerHandle,
    trace: TraceHandle,
    closed: AtomicBool,
}

impl RouterCore {
    fn run_ladder(&self, request: &RepairRequest) -> RouteOutcome {
        let mut attempts: Vec<RouteAttempt> = Vec::with_capacity(1);
        let rungs = self.ladder.len();
        // The journal session id is the request's content hash — computed only
        // when a tracer is installed, so the off path never pays the hash.
        let session = self.tracer.is_on().then(|| request.key().fold64());
        // The trace root is content-derived too — only computed when tracing.
        let trace_root = if self.trace.is_on() {
            self.trace.root(request.key())
        } else {
            None
        };
        for (rung, &idx) in self.ladder.iter().enumerate() {
            let backend = &self.backends[idx];
            let rung_metrics = &self.rung_metrics[rung];
            let leg_start =
                (rung_metrics.latency.is_some() || trace_root.is_some()).then(Instant::now);
            // Internal ladder legs bypass per-backend admission: shedding a
            // request halfway up an already-admitted escalation would turn one
            // accepted session into a spurious failure.
            let Ok(ticket) = backend.pool.submit_within(request.clone(), 0) else {
                // Only reachable if a backend pool was closed out from under an
                // in-flight ladder (the shutdown path drains coordinators
                // first); degrade to an empty terminal answer.
                break;
            };
            let outcome = ticket.wait();
            // A panicking judge must not take the coordinator down (it would
            // strand this ticket and every queued escalation behind it); treat
            // the rung as rejected and move on.
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.judge.judge(request, &outcome.responses)
            }))
            .unwrap_or_else(|_| {
                self.recorder.judge_panics.fetch_add(1, Ordering::Relaxed);
                JudgeReport {
                    distinct: 0,
                    correct: 0,
                }
            });
            let terminal = report.accepted() || rung + 1 == rungs;
            if let Some(metric) = &rung_metrics.cost {
                metric.observe(u64::from(backend.cost));
            }
            if let (Some(metric), Some(start)) = (&rung_metrics.latency, leg_start) {
                metric.observe_duration(start.elapsed());
            }
            if let (Some(root), Some(start)) = (&trace_root, leg_start) {
                // One span per leg, a child of the request's root context:
                // every deterministic field is a pure function of request
                // content and ladder position, so rung spans merge
                // byte-identically across coordinator counts.
                let label = format!("rung.{rung}");
                self.trace.record(TraceSpan::new(
                    &root.child(&label),
                    label.clone(),
                    stage::RUNG_BASE + rung as u32,
                    report.distinct as u64,
                    start.elapsed().as_nanos() as u64,
                ));
            }
            if let Some(session) = session {
                // Deterministic event: every field is a pure function of
                // request content, sequenced by ladder position.
                self.recorder.journal_events.fetch_add(1, Ordering::Relaxed);
                self.tracer.event(
                    session,
                    rung as u32,
                    JournalEvent::Rung {
                        rung: rung as u32,
                        backend: backend.name.clone(),
                        judged: report.distinct as u64,
                        correct: report.correct as u64,
                        terminal,
                    },
                );
            }
            attempts.push(RouteAttempt {
                backend: backend.name.clone(),
                cost: backend.cost,
                judged: true,
                distinct_candidates: report.distinct,
                correct_candidates: report.correct,
                terminal,
            });
            if terminal {
                let counter = if report.accepted() {
                    &self.recorder.accepted
                } else {
                    &self.recorder.exhausted
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.recorder.depth_histogram[attempts.len() - 1].fetch_add(1, Ordering::Relaxed);
                self.recorder.completed.fetch_add(1, Ordering::Relaxed);
                return RouteOutcome {
                    backend: idx,
                    backend_name: backend.name.clone(),
                    from_cache: outcome.from_cache,
                    responses: outcome.responses,
                    attempts,
                };
            }
            // Failed verdict: re-submit to the next rung.
            self.recorder
                .verdict_resubmits
                .fetch_add(1, Ordering::Relaxed);
        }
        // Unreachable with >= 1 rung unless a backend refused the submit
        // (pool force-closed under an in-flight ladder).  Attribute the
        // best-effort outcome to the deepest rung actually tried, and keep the
        // depth histogram consistent with `completed` whenever any rung ran.
        self.recorder.completed.fetch_add(1, Ordering::Relaxed);
        self.recorder.exhausted.fetch_add(1, Ordering::Relaxed);
        if !attempts.is_empty() {
            self.recorder.depth_histogram[attempts.len() - 1].fetch_add(1, Ordering::Relaxed);
        }
        let deepest = attempts
            .len()
            .checked_sub(1)
            .map(|last| self.ladder[last])
            .unwrap_or(self.ladder[0]);
        RouteOutcome {
            responses: Arc::new(Vec::new()),
            backend: deepest,
            backend_name: self.backends[deepest].name.clone(),
            attempts,
            from_cache: false,
        }
    }
}

fn escalation_loop(core: &RouterCore) {
    loop {
        // Batch size 1: ladder walks are long-lived, so hogging several queued
        // requests per wake-up would serialize work other coordinators could
        // overlap.
        let batch = core.queue.drain_batch(1, &core.closed);
        if batch.is_empty() {
            // Closed and drained.
            return;
        }
        for job in batch {
            let outcome = core.run_ladder(&job.request);
            job.ticket.fulfill(outcome);
        }
    }
}

/// A routing frontend owning N named repair backends behind one submit/await
/// surface.
///
/// Each backend runs its own sharded worker pool and response cache (a repair
/// instantiation of the [`crate::pool`] engine) over its own model; a pool of
/// escalation coordinators drives [`RoutePolicy::Escalate`] requests through
/// the cost-ordered ladder.  Shutdown/drop closes the escalation queue first (so
/// in-flight ladders finish against live backends), then the backend pools,
/// then flushes every backend's snapshot.
pub struct ModelRouter {
    core: Arc<RouterCore>,
    escalation_handles: Vec<std::thread::JoinHandle<()>>,
    backend_handles: Vec<std::thread::JoinHandle<()>>,
}

impl ModelRouter {
    /// Starts one repair pool per backend plus the escalation coordinators.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn start(
        backends: Vec<BackendSpec>,
        judge: Arc<dyn EscalationJudge>,
        config: RouterConfig,
    ) -> Self {
        assert!(!backends.is_empty(), "router needs at least one backend");
        let config = config.normalized();
        let backends: Vec<Backend> = backends
            .into_iter()
            .map(|spec| Backend {
                name: spec.name,
                cost: spec.cost,
                pool: Arc::new(Repair::pool(spec.config)),
                model: spec.model,
            })
            .collect();
        let mut ladder: Vec<usize> = (0..backends.len()).collect();
        ladder.sort_by_key(|&idx| (backends[idx].cost, idx));
        let recorder = EscalationRecorder::new(backends.len());
        let rung_metrics = (0..ladder.len())
            .map(|rung| RungMetrics::new(&config.telemetry, rung))
            .collect();
        let core = Arc::new(RouterCore {
            queue: Shard::new(config.escalation_capacity),
            judge,
            recorder,
            tracer: config.tracer.clone(),
            trace: config.trace.clone(),
            closed: AtomicBool::new(false),
            ladder,
            rung_metrics,
            backends,
        });
        let backend_handles = core
            .backends
            .iter()
            .enumerate()
            .flat_map(|(backend_idx, backend)| {
                let name = move |shard_idx| format!("svroute-b{backend_idx}-w{shard_idx}");
                backend.pool.spawn_workers(&backend.model, name)
            })
            .collect();
        let escalation_handles = (0..config.escalation_workers)
            .map(|idx| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("svroute-escalate-{idx}"))
                    .spawn(move || escalation_loop(&core))
                    .expect("spawn escalation coordinator thread")
            })
            .collect();
        Self {
            core,
            escalation_handles,
            backend_handles,
        }
    }

    /// Number of backends served.
    pub fn backend_count(&self) -> usize {
        self.core.backends.len()
    }

    /// Backend display names, in registration order (the indices
    /// [`RoutePolicy::Pinned`] and [`RouteOutcome::backend`] refer to).
    pub fn backend_names(&self) -> Vec<String> {
        self.core.backends.iter().map(|b| b.name.clone()).collect()
    }

    /// The index of the first backend with this display name, if any.
    pub fn backend_index(&self, name: &str) -> Option<usize> {
        self.core.backends.iter().position(|b| b.name == name)
    }

    /// Backend indices in escalation (cheapest-first) order.
    pub fn ladder(&self) -> &[usize] {
        &self.core.ladder
    }

    /// Submits one request under a policy; blocks only on backpressure (a full
    /// backend shard or escalation queue).  A backend at its
    /// [`ServiceConfig::max_in_flight`] limit sheds [`RoutePolicy::Pinned`] and
    /// [`RoutePolicy::AbSplit`] requests with a deterministic
    /// [`SubmitError::Busy`], counted in that backend's
    /// [`ServiceMetrics::shed_busy`].
    ///
    /// # Panics
    ///
    /// Panics if a [`RoutePolicy::Pinned`] index is out of range.
    pub fn submit(
        &self,
        request: RepairRequest,
        policy: RoutePolicy,
    ) -> Result<RouteTicket, SubmitError> {
        if self.core.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        let direct = |idx: usize| -> Result<RouteTicket, SubmitError> {
            let backend = &self.core.backends[idx];
            let ticket = backend.pool.submit(request.clone())?;
            Ok(RouteTicket {
                inner: TicketInner::Direct {
                    ticket,
                    backend: idx,
                    name: backend.name.clone(),
                    cost: backend.cost,
                },
            })
        };
        match policy {
            RoutePolicy::Pinned(idx) => {
                self.assert_backend_index(idx);
                // Count only after the backend accepted the submit, so the
                // policy counters cannot exceed requests actually served when
                // a submit races shutdown.
                let ticket = direct(idx)?;
                self.core
                    .recorder
                    .pinned_requests
                    .fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            RoutePolicy::AbSplit => {
                let ticket = direct(ab_arm(request.key(), self.core.backends.len()))?;
                self.core
                    .recorder
                    .ab_split_requests
                    .fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            RoutePolicy::Escalate => {
                let state = TicketState::new();
                let job = EscalateJob {
                    request,
                    ticket: Arc::clone(&state),
                };
                self.core
                    .queue
                    .push_blocking(job, &self.core.closed)
                    .map_err(SubmitError::from)?;
                self.core.recorder.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(RouteTicket {
                    inner: TicketInner::Escalated(state),
                })
            }
        }
    }

    fn assert_backend_index(&self, idx: usize) {
        assert!(
            idx < self.core.backends.len(),
            "pinned backend index {idx} out of range ({} backends)",
            self.core.backends.len()
        );
    }

    /// Non-blocking submit for async sessions: admission and shutdown are
    /// checked eagerly (so [`SubmitError::Busy`] sheds deterministically before
    /// any awaiting), and the returned future parks on a waker — never a
    /// thread — while the backend shard or escalation queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if a [`RoutePolicy::Pinned`] index is out of range.
    pub fn submit_async(
        &self,
        request: RepairRequest,
        policy: RoutePolicy,
    ) -> Result<RouteSubmitFuture<'_>, SubmitError> {
        if self.core.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        let direct =
            |idx: usize, policy: RoutePolicy| -> Result<RouteSubmitFuture<'_>, SubmitError> {
                let backend = &self.core.backends[idx];
                Ok(RouteSubmitFuture {
                    core: &self.core,
                    kind: RouteSubmitKind::Direct {
                        fut: backend.pool.submit_async(request.clone())?,
                        backend: idx,
                        policy,
                    },
                })
            };
        match policy {
            RoutePolicy::Pinned(idx) => {
                self.assert_backend_index(idx);
                direct(idx, policy)
            }
            RoutePolicy::AbSplit => direct(ab_arm(request.key(), self.core.backends.len()), policy),
            RoutePolicy::Escalate => {
                let state = TicketState::new();
                let job = EscalateJob {
                    request,
                    ticket: Arc::clone(&state),
                };
                Ok(RouteSubmitFuture {
                    core: &self.core,
                    kind: RouteSubmitKind::Escalate {
                        job: Some(job),
                        state,
                    },
                })
            }
        }
    }

    /// Submits a whole workload under one policy and waits for every outcome,
    /// preserving input order.
    pub fn route_all(
        &self,
        requests: Vec<RepairRequest>,
        policy: RoutePolicy,
    ) -> Vec<RouteOutcome> {
        let tickets: Vec<RouteTicket> = requests
            .into_iter()
            .map(|request| self.submit(request, policy).expect("router open"))
            .collect();
        tickets.into_iter().map(RouteTicket::wait).collect()
    }

    /// Takes the per-route metrics snapshot: every backend pool plus the
    /// escalation stage.
    pub fn metrics(&self) -> RouteMetrics {
        RouteMetrics {
            backends: self
                .core
                .backends
                .iter()
                .map(|backend| BackendMetrics {
                    name: backend.name.clone(),
                    cost: backend.cost,
                    service: backend.pool.metrics(),
                })
                .collect(),
            ladder: self.core.ladder.clone(),
            escalation: self.core.recorder.snapshot(),
            verify: None,
        }
    }

    /// Writes every backend's response cache to its configured snapshot path,
    /// returning the total entries written (backends without persistence
    /// contribute 0).  Also runs automatically on shutdown/drop.
    ///
    /// Every backend is flushed even when an earlier one fails — one full disk
    /// must not cost the other backends their warm state — and the first error
    /// is returned afterwards (each failure is also recorded in that backend's
    /// `snapshot_save_failures` counter).
    pub fn flush(&self) -> std::io::Result<usize> {
        let mut total = 0;
        let mut first_error = None;
        for backend in &self.core.backends {
            match backend.pool.flush() {
                Ok(count) => total += count,
                Err(err) => {
                    if first_error.is_none() {
                        first_error = Some(err);
                    }
                }
            }
        }
        match first_error {
            Some(err) => Err(err),
            None => Ok(total),
        }
    }

    fn close_and_join(&mut self) {
        // Order matters: stop accepting work and drain the escalation queue
        // while the backends are still alive (in-flight ladders submit to
        // them), then close the backend pools.
        self.core.closed.store(true, Ordering::Release);
        self.core.queue.notify_all();
        for handle in self.escalation_handles.drain(..) {
            let _ = handle.join();
        }
        for backend in &self.core.backends {
            backend.pool.close();
        }
        for handle in self.backend_handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stops accepting work, drains the escalation queue against live backends,
    /// joins every pool, flushes all backend snapshots and returns the final
    /// metrics.
    pub fn shutdown(mut self) -> RouteMetrics {
        self.close_and_join();
        let _ = self.flush();
        self.metrics()
    }
}

impl Drop for ModelRouter {
    fn drop(&mut self) {
        let had_workers = !self.backend_handles.is_empty() || !self.escalation_handles.is_empty();
        self.close_and_join();
        // `shutdown` already flushed (and emptied the handle lists); only flush
        // here when the router is dropped without an explicit shutdown.
        if had_workers {
            let _ = self.flush();
        }
    }
}

/// One backend's slice of a [`RouteMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BackendMetrics {
    /// Backend display name.
    pub name: String,
    /// Backend ladder cost.
    pub cost: u32,
    /// The backend pool's full snapshot (throughput, latency, cache hit rate,
    /// warm-start view — see [`ServiceMetrics`]).
    pub service: ServiceMetrics,
}

/// The escalation stage of a [`RouteMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EscalationMetrics {
    /// Escalate requests accepted by `submit`.
    pub submitted: u64,
    /// Escalate requests fully served.
    pub completed: u64,
    /// Requests whose ladder ended in an accepted verdict.
    pub accepted: u64,
    /// Requests that walked off the last rung unaccepted.
    pub exhausted: u64,
    /// Re-submissions triggered by failed verdicts (the "learning from wrongs"
    /// traffic: rung answers the judge rejected).
    pub verdict_resubmits: u64,
    /// Judge invocations that panicked; each was treated as a rejection.
    pub judge_panics: u64,
    /// Rung events the routing layer emitted to an installed [`crate::Tracer`];
    /// stays zero while journaling is off.
    pub journal_events: u64,
    /// `depth_histogram[d]` counts requests that tried `d + 1` rungs before
    /// terminating; the length equals the backend count.
    pub depth_histogram: Vec<u64>,
    /// Requests routed with [`RoutePolicy::Pinned`].
    pub pinned_requests: u64,
    /// Requests routed with [`RoutePolicy::AbSplit`].
    pub ab_split_requests: u64,
}

impl EscalationMetrics {
    /// The aligned rows behind the escalation block of [`RouteMetrics::render`].
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("submitted", format!("{:>10}", self.submitted)),
            ("completed", format!("{:>10}", self.completed)),
            (
                "verdicts",
                format!(
                    "{:>10} accepted, {} exhausted, {} judge panics",
                    self.accepted, self.exhausted, self.judge_panics
                ),
            ),
            (
                "resubmits",
                format!("{:>10} verdict-triggered", self.verdict_resubmits),
            ),
            (
                "journal",
                format!("{:>10} events emitted", self.journal_events),
            ),
            ("depth histogram", {
                let buckets = format!("{:?}", self.depth_histogram);
                format!("{buckets:>10} (requests by rungs tried)")
            }),
            (
                "other policies",
                format!(
                    "{:>10} pinned, {} a/b split",
                    self.pinned_requests, self.ab_split_requests
                ),
            ),
        ]
    }
}

/// A point-in-time view of the whole router: every backend pool, the escalation
/// stage, and (when attached) the verify pool the judge runs on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouteMetrics {
    /// Per-backend snapshots, in registration order.
    pub backends: Vec<BackendMetrics>,
    /// Backend indices in escalation (cheapest-first) order.
    pub ladder: Vec<usize>,
    /// The escalation stage.
    pub escalation: EscalationMetrics,
    /// The judge's verify-pool snapshot, when the caller attaches one (see
    /// [`RouteMetrics::with_verify`]).
    pub verify: Option<VerifyMetrics>,
}

impl RouteMetrics {
    /// Attaches the verify-pool snapshot backing the escalation judge, for the
    /// combined routing + verification view.
    pub fn with_verify(mut self, verify: VerifyMetrics) -> Self {
        self.verify = Some(verify);
        self
    }

    /// Renders the router snapshot as nested labelled blocks: a summary, one
    /// indented sub-block per backend, the escalation stage, and the judge's
    /// verify pool when attached.  Built entirely from
    /// [`render_block`]/[`indent_block`], so the nesting shares one formatter
    /// with the flat pool views instead of duplicating it.
    pub fn render(&self) -> String {
        let ladder_names: Vec<&str> = self
            .ladder
            .iter()
            .map(|&idx| self.backends[idx].name.as_str())
            .collect();
        let summary = vec![
            ("backends", format!("{:>10}", self.backends.len())),
            ("ladder", ladder_names.join(" -> ")),
        ];
        let mut out = render_block("router metrics", &summary);
        for (idx, backend) in self.backends.iter().enumerate() {
            let title = format!(
                "backend {idx} \u{b7} {} (cost {})",
                backend.name, backend.cost
            );
            let block = render_block(&title, &backend.service.rows());
            out.push('\n');
            out.push_str(&indent_block(&block, 2));
        }
        out.push('\n');
        out.push_str(&indent_block(
            &render_block("escalation", &self.escalation.rows()),
            2,
        ));
        if let Some(verify) = &self.verify {
            out.push('\n');
            out.push_str(&indent_block(&verify.render(), 2));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use svmodel::CaseInput;

    /// Test model: answers are tagged with the model's own label so tests can
    /// see which backend served a request, and a quality threshold decides
    /// which cases it can "solve" (the judge below checks for the marker).
    struct TierModel {
        label: &'static str,
        cost: u32,
        /// Solves a case when `tag % 10 < skill`.
        skill: u32,
        calls: AtomicUsize,
    }

    impl TierModel {
        fn new(label: &'static str, cost: u32, skill: u32) -> Arc<Self> {
            Arc::new(Self {
                label,
                cost,
                skill,
                calls: AtomicUsize::new(0),
            })
        }
    }

    impl RepairModel for TierModel {
        fn name(&self) -> &str {
            self.label
        }

        fn cost(&self) -> u32 {
            self.cost
        }

        fn solve(
            &self,
            case: &CaseInput,
            samples: usize,
            _temperature: f64,
            seed: u64,
        ) -> Vec<Response> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let tag: u32 = case
                .spec
                .trim_start_matches("spec ")
                .parse()
                .unwrap_or(u32::MAX);
            let solved = tag % 10 < self.skill;
            (0..samples)
                .map(|i| Response {
                    bug_line_number: tag + i as u32,
                    buggy_line: case.buggy_source.clone(),
                    fixed_line: if solved {
                        format!("SOLVED by {} seed {seed}", self.label)
                    } else {
                        format!("wrong guess {i} by {}", self.label)
                    },
                    cot: None,
                })
                .collect()
        }
    }

    /// Judge accepting any response carrying the SOLVED marker.
    fn marker_judge() -> Arc<dyn EscalationJudge> {
        Arc::new(|_request: &RepairRequest, responses: &[Response]| {
            let correct = responses
                .iter()
                .filter(|r| r.fixed_line.starts_with("SOLVED"))
                .count();
            JudgeReport {
                distinct: responses.len().min(1),
                correct,
            }
        })
    }

    fn request(tag: usize) -> RepairRequest {
        RepairRequest::new(
            CaseInput {
                spec: format!("spec {tag}"),
                buggy_source: format!("module m{tag}(); endmodule"),
                logs: format!("assertion a{tag} failed"),
            },
            3,
            0.2,
        )
    }

    fn two_tier_router(workers: usize) -> (Arc<TierModel>, Arc<TierModel>, ModelRouter) {
        // Registration order is deliberately strongest-first: the ladder must
        // re-order by cost, not trust insertion order.
        let strong = TierModel::new("strong", 50, 10);
        let weak = TierModel::new("weak", 1, 4);
        let router = ModelRouter::start(
            vec![
                BackendSpec::new(
                    Arc::<TierModel>::clone(&strong) as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(workers),
                ),
                BackendSpec::new(
                    Arc::<TierModel>::clone(&weak) as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(workers),
                ),
            ],
            marker_judge(),
            RouterConfig::default(),
        );
        (strong, weak, router)
    }

    #[test]
    fn ladder_orders_backends_by_cost_not_registration() {
        let (_, _, router) = two_tier_router(1);
        assert_eq!(router.backend_names(), vec!["strong", "weak"]);
        assert_eq!(router.ladder(), &[1, 0], "cheapest rung must come first");
        assert_eq!(router.backend_index("weak"), Some(1));
        assert_eq!(router.backend_index("missing"), None);
        router.shutdown();
    }

    #[test]
    fn pinned_requests_reach_exactly_the_pinned_backend() {
        let (strong, weak, router) = two_tier_router(2);
        let outcomes = router.route_all((0..8).map(request).collect(), RoutePolicy::Pinned(0));
        assert!(outcomes.iter().all(|o| o.backend == 0));
        assert!(outcomes.iter().all(|o| o.backend_name == "strong"));
        assert!(outcomes.iter().all(|o| o.attempts.len() == 1));
        assert!(outcomes.iter().all(|o| !o.attempts[0].judged));
        assert_eq!(strong.calls.load(Ordering::SeqCst), 8);
        assert_eq!(
            weak.calls.load(Ordering::SeqCst),
            0,
            "the unpinned backend must stay idle"
        );
        let metrics = router.shutdown();
        assert_eq!(metrics.escalation.pinned_requests, 8);
        assert_eq!(metrics.backends[0].service.completed, 8);
        assert_eq!(metrics.backends[1].service.completed, 0);
    }

    #[test]
    fn ab_split_is_deterministic_and_ignores_pool_shape() {
        let workload: Vec<RepairRequest> = (0..32).map(request).collect();
        let predicted: Vec<usize> = workload.iter().map(|r| ab_arm(r.key(), 2)).collect();
        // Both arms should see traffic on a 32-case workload.
        assert!(predicted.contains(&0));
        assert!(predicted.contains(&1));
        for workers in [1, 4] {
            let (_, _, router) = two_tier_router(workers);
            let outcomes = router.route_all(workload.clone(), RoutePolicy::AbSplit);
            let arms: Vec<usize> = outcomes.iter().map(|o| o.backend).collect();
            assert_eq!(
                arms, predicted,
                "arm assignment must depend only on content and backend count"
            );
            router.shutdown();
        }
    }

    #[test]
    fn escalation_walks_the_ladder_until_a_rung_is_accepted() {
        let (strong, weak, router) = two_tier_router(2);
        // Tags 0..4 are solved by the weak rung (skill 4); 4..8 need escalation.
        let outcomes = router.route_all((0..8).map(request).collect(), RoutePolicy::Escalate);
        for (tag, outcome) in outcomes.iter().enumerate() {
            if tag < 4 {
                assert_eq!(outcome.backend_name, "weak", "tag {tag} solves cheaply");
                assert_eq!(outcome.escalations(), 0);
                assert_eq!(outcome.attempts.len(), 1);
            } else {
                assert_eq!(outcome.backend_name, "strong", "tag {tag} must escalate");
                assert_eq!(outcome.escalations(), 1);
                assert_eq!(outcome.attempts[0].backend, "weak");
                assert!(!outcome.attempts[0].terminal);
                assert_eq!(outcome.attempts[0].correct_candidates, 0);
                assert_eq!(outcome.attempts[1].backend, "strong");
                assert!(outcome.attempts[1].terminal);
            }
            assert!(outcome.accepted(), "every case is solvable by some rung");
            assert_eq!(outcome.responses.len(), 3);
        }
        // Both rungs were exercised: weak saw everything, strong only failures.
        assert_eq!(weak.calls.load(Ordering::SeqCst), 8);
        assert_eq!(strong.calls.load(Ordering::SeqCst), 4);
        let metrics = router.shutdown();
        assert_eq!(metrics.escalation.submitted, 8);
        assert_eq!(metrics.escalation.completed, 8);
        assert_eq!(metrics.escalation.accepted, 8);
        assert_eq!(metrics.escalation.exhausted, 0);
        assert_eq!(metrics.escalation.verdict_resubmits, 4);
        assert_eq!(metrics.escalation.depth_histogram, vec![4, 4]);
    }

    #[test]
    fn exhausted_ladders_return_the_last_rung_answer() {
        let weak = TierModel::new("weak", 1, 0);
        let mid = TierModel::new("mid", 5, 0);
        let router = ModelRouter::start(
            vec![
                BackendSpec::new(
                    weak as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(1),
                ),
                BackendSpec::new(
                    mid as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(1),
                ),
            ],
            marker_judge(),
            RouterConfig::default(),
        );
        let outcome = router
            .submit(request(9), RoutePolicy::Escalate)
            .unwrap()
            .wait();
        assert!(!outcome.accepted());
        assert_eq!(outcome.escalations(), 1);
        assert_eq!(
            outcome.backend_name, "mid",
            "answer comes from the last rung"
        );
        assert!(!outcome.responses.is_empty(), "best-effort answer survives");
        let metrics = router.shutdown();
        assert_eq!(metrics.escalation.exhausted, 1);
        assert_eq!(metrics.escalation.accepted, 0);
        assert_eq!(metrics.escalation.depth_histogram, vec![0, 1]);
    }

    #[test]
    fn exhausted_trail_cost_saturates_instead_of_wrapping() {
        // Regression: a ladder ending at a cost-sentinel rung (`u32::MAX`, the
        // "no configured cost" sentinel) used to wrap when summed with the
        // cheaper rungs below it, reporting a near-zero total for the most
        // expensive trail in the system.
        let cheap = TierModel::new("cheap", 5, 0);
        let priceless = TierModel::new("priceless", u32::MAX, 0);
        let router = ModelRouter::start(
            vec![
                BackendSpec::new(
                    cheap as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(1),
                ),
                BackendSpec::new(
                    priceless as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(1),
                ),
            ],
            marker_judge(),
            RouterConfig::default(),
        );
        let outcome = router
            .submit(request(9), RoutePolicy::Escalate)
            .unwrap()
            .wait();
        assert!(!outcome.accepted(), "no rung can solve skill-0 cases");
        assert_eq!(outcome.attempts.len(), 2, "both rungs were tried");
        let wrapped = outcome
            .attempts
            .iter()
            .fold(0u32, |total, attempt| total.wrapping_add(attempt.cost));
        assert_eq!(wrapped, 4, "a wrapping sum would undercount this trail");
        assert_eq!(outcome.trail_cost(), u32::MAX, "the trail cost saturates");
        router.shutdown();
    }

    #[test]
    fn escalation_replays_rungs_from_the_backend_caches() {
        let (strong, weak, router) = two_tier_router(2);
        let first = router.route_all((0..6).map(request).collect(), RoutePolicy::Escalate);
        let weak_calls = weak.calls.load(Ordering::SeqCst);
        let strong_calls = strong.calls.load(Ordering::SeqCst);
        let second = router.route_all((0..6).map(request).collect(), RoutePolicy::Escalate);
        assert_eq!(
            weak.calls.load(Ordering::SeqCst),
            weak_calls,
            "replayed rungs must hit the response cache"
        );
        assert_eq!(strong.calls.load(Ordering::SeqCst), strong_calls);
        // Identical outcomes up to cache provenance.
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.responses, b.responses);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.escalations(), b.escalations());
        }
        assert!(second.iter().all(|o| o.from_cache));
        router.shutdown();
    }

    #[test]
    fn a_panicking_judge_rejects_the_rung_instead_of_stranding_tickets() {
        let weak = TierModel::new("weak", 1, 10);
        let strong = TierModel::new("strong", 9, 10);
        let judge: Arc<dyn EscalationJudge> =
            Arc::new(|request: &RepairRequest, responses: &[Response]| {
                if request.case.spec == "spec 3"
                    && responses.iter().any(|r| !r.fixed_line.is_empty())
                {
                    panic!("malformed verdict");
                }
                JudgeReport {
                    distinct: 1,
                    correct: responses.len(),
                }
            });
        let router = ModelRouter::start(
            vec![
                BackendSpec::new(
                    weak as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(1),
                ),
                BackendSpec::new(
                    strong as Arc<dyn RepairModel + Send + Sync>,
                    ServiceConfig::default().with_workers(1),
                ),
            ],
            judge,
            RouterConfig::default(),
        );
        let outcomes = router.route_all((0..6).map(request).collect(), RoutePolicy::Escalate);
        assert_eq!(outcomes.len(), 6, "every ticket must be fulfilled");
        // The panicking case walked the whole ladder (the judge panics on both
        // rungs) and still came back with the last rung's answer.
        assert_eq!(outcomes[3].escalations(), 1);
        assert!(!outcomes[3].accepted());
        assert!(outcomes
            .iter()
            .enumerate()
            .all(|(i, o)| i == 3 || o.accepted()));
        let metrics = router.shutdown();
        assert_eq!(metrics.escalation.judge_panics, 2);
        assert_eq!(metrics.escalation.completed, 6);
    }

    #[test]
    fn router_metrics_render_nests_backend_blocks() {
        let (_, _, router) = two_tier_router(1);
        router.route_all((0..4).map(request).collect(), RoutePolicy::Escalate);
        let metrics = router.shutdown();
        let text = metrics.render();
        assert!(text.starts_with("router metrics"));
        assert!(text.contains("backend 0 \u{b7} strong (cost 50)"));
        assert!(text.contains("backend 1 \u{b7} weak (cost 1)"));
        assert!(text.contains("escalation"));
        assert!(text.contains("depth histogram"));
        // Backend blocks nest under the summary.
        assert!(text.contains("\n  backend 0"));
    }

    #[test]
    fn closed_router_refuses_new_work() {
        let (_, _, router) = two_tier_router(1);
        let core = Arc::clone(&router.core);
        router.shutdown();
        assert!(core.closed.load(Ordering::Acquire));
    }
}
