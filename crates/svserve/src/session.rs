//! The session engine: each repair session is one small state machine, and
//! thousands of them multiplex over a handful of [`crate::rt`] driver threads.
//!
//! A **session** is the full life of one case through the serving layer:
//!
//! ```text
//! submit ──► sampled ──► verifying ──► (escalated)* ──► done
//!   │            │            │              │
//!   └── repair   └── verify   └── verdict    └── next-rung re-submit
//!       pool         fan-out      await          (Escalate policy)
//! ```
//!
//! Written as an `async` block, every arrow is an await point — the compiler
//! generates the state machine, the [`crate::rt`] runtime schedules it, and the
//! pools' waker-backed tickets ([`crate::RepairTicket`], [`crate::VerifyTicket`],
//! [`crate::RouteTicket`]) connect the two.  What used to park one OS thread per
//! waiting caller now parks a stored waker, so in-flight session count is bounded
//! by memory, not by threads.  `assertsolver::evaluate_model` and
//! `evaluate_ladder` run every case as one such session.
//!
//! The engine adds the operational shell around the raw runtime:
//!
//! * **Gauges** — sessions in flight / peak in flight, spawned / completed /
//!   timed out / aborted tallies, and per-phase transition counters fed by
//!   [`SessionMonitor`] ([`SessionMetrics::render`] shares the
//!   [`crate::metrics::render_block`] formatter with the pool views).
//! * **Deadlines** — [`SessionConfig::deadline`] races every session against a
//!   timer; an expired session is dropped (destructors release its queue slots
//!   and admission budget) and reported as [`SessionOutcome::TimedOut`].
//! * **Cancellation** — [`SessionHandle::cancel`] drops the session future at
//!   the earliest safe point; a fulfilled ticket whose session is gone wakes a
//!   dead task, which the runtime treats as a no-op.
//!
//! ## Determinism
//!
//! The engine adds no nondeterminism: driver count and scheduling order only
//! change *when* a session runs, and everything a session produces is already a
//! pure function of request content (content-derived sampler seeds, content-hash
//! shard placement, pure verdicts).  The async determinism suite pins
//! evaluation results byte-for-byte at 1/2/4/8 drivers, warm or cold caches.

use crate::env::env_drivers;
use crate::journal::{JournalEvent, TracerHandle};
use crate::metrics::render_block;
use crate::rt::{with_deadline, Expiry, Runtime, Scope, TaskHandle};
use crate::telemetry::TelemetryHandle;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Driver-thread count used when [`SessionConfig::drivers`] is 0 and the
/// [`crate::env::DRIVERS_ENV`] environment variable is unset.
pub const DEFAULT_DRIVERS: usize = 2;

/// Session-engine tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionConfig {
    /// Driver threads multiplexing the sessions.  `0` = auto: the
    /// [`crate::env::DRIVERS_ENV`] environment override,
    /// else [`DEFAULT_DRIVERS`].  Results never depend on this; only wall-clock
    /// and memory profile do.
    pub drivers: usize,
    /// Per-session deadline, measured from spawn.  A session still pending when
    /// it expires is dropped (releasing everything it holds) and reported as
    /// [`SessionOutcome::TimedOut`].  `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Journal tracer the engine (and its runtime) emit events to; off by
    /// default, in which case instrumented paths cost one branch.  Session
    /// *content* events come from [`crate::SessionSpan`]s the caller owns —
    /// the engine itself only emits volatile scheduling diagnostics.
    pub tracer: TracerHandle,
    /// Telemetry registry the engine's runtime records into (the
    /// `rt.poll.duration` histogram); off by default, in which case the poll
    /// loop pays one branch per task poll.
    pub telemetry: TelemetryHandle,
}

impl SessionConfig {
    /// Returns the config with the driver count replaced (`0` = auto).
    pub fn with_drivers(mut self, drivers: usize) -> Self {
        self.drivers = drivers;
        self
    }

    /// Returns the config with the per-session deadline replaced.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

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

    /// The driver count this config resolves to.
    pub fn resolved_drivers(&self) -> usize {
        if self.drivers == 0 {
            env_drivers().unwrap_or(DEFAULT_DRIVERS)
        } else {
            self.drivers
        }
    }
}

/// How one session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome<T> {
    /// The session ran its state machine to `done`.
    Completed(T),
    /// The per-session deadline fired first; the session was dropped pending.
    TimedOut,
    /// The session was cancelled before completing.
    Aborted,
    /// The session's future panicked while being polled.  A crash is not a
    /// cancellation: callers retrying `Aborted` sessions must not blindly
    /// retry a `Panicked` one into the same failure.
    Panicked,
}

impl<T> SessionOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            SessionOutcome::Completed(value) => Some(value),
            _ => None,
        }
    }

    /// Whether the session completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, SessionOutcome::Completed(_))
    }
}

/// The observable phases of a repair session's state machine; sessions report
/// transitions through a [`SessionMonitor`] and the engine tallies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// The repair request has been accepted by a pool.
    Submitted,
    /// The model's samples arrived (repair ticket fulfilled).
    Sampled,
    /// Candidates are fanned out to / awaited from the verify pool.
    Verifying,
    /// A verdict-triggered re-submit walked the session up an escalation rung.
    Escalated,
    /// The session produced its result.
    Done,
}

struct SessionRecorder {
    journal_events: AtomicU64,
    spawned: AtomicU64,
    completed: AtomicU64,
    timed_out: AtomicU64,
    aborted: AtomicU64,
    panicked: AtomicU64,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    submitted: AtomicU64,
    sampled: AtomicU64,
    verifying: AtomicU64,
    escalated: AtomicU64,
    done: AtomicU64,
}

impl SessionRecorder {
    fn new() -> Self {
        Self {
            journal_events: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            verifying: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }
    }

    fn phase_counter(&self, phase: SessionPhase) -> &AtomicU64 {
        match phase {
            SessionPhase::Submitted => &self.submitted,
            SessionPhase::Sampled => &self.sampled,
            SessionPhase::Verifying => &self.verifying,
            SessionPhase::Escalated => &self.escalated,
            SessionPhase::Done => &self.done,
        }
    }
}

/// Cheap cloneable handle sessions use to report state-machine transitions
/// back to their engine's gauges.
#[derive(Clone)]
pub struct SessionMonitor {
    recorder: Arc<SessionRecorder>,
}

impl SessionMonitor {
    /// Records one transition into `phase`.
    pub fn phase(&self, phase: SessionPhase) {
        self.recorder
            .phase_counter(phase)
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time view of the session engine.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SessionMetrics {
    /// Driver threads multiplexing the sessions.
    pub drivers: usize,
    /// Sessions ever spawned.
    pub spawned: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions dropped by their deadline.
    pub timed_out: u64,
    /// Sessions cancelled.
    pub aborted: u64,
    /// Sessions whose future panicked while being polled.
    pub panicked: u64,
    /// Sessions currently in flight (spawned, not yet finished).
    pub in_flight_sessions: u64,
    /// Highest concurrent in-flight session count observed — with async
    /// multiplexing this exceeds the driver count by orders of magnitude.
    pub peak_in_flight_sessions: u64,
    /// Transitions into [`SessionPhase::Submitted`].
    pub phase_submitted: u64,
    /// Transitions into [`SessionPhase::Sampled`].
    pub phase_sampled: u64,
    /// Transitions into [`SessionPhase::Verifying`].
    pub phase_verifying: u64,
    /// Transitions into [`SessionPhase::Escalated`].
    pub phase_escalated: u64,
    /// Transitions into [`SessionPhase::Done`].
    pub phase_done: u64,
    /// Diagnostics the engine emitted to an installed [`crate::Tracer`]; zero
    /// while journaling is off.
    pub journal_events: u64,
}

impl SessionMetrics {
    /// The aligned rows behind [`SessionMetrics::render`].
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("drivers", format!("{:>10}", self.drivers)),
            ("spawned", format!("{:>10}", self.spawned)),
            (
                "finished",
                format!(
                    "{:>10} completed, {} timed out, {} aborted, {} panicked",
                    self.completed, self.timed_out, self.aborted, self.panicked
                ),
            ),
            (
                "in flight",
                format!(
                    "{:>10} now (peak {})",
                    self.in_flight_sessions, self.peak_in_flight_sessions
                ),
            ),
            (
                "phases",
                format!(
                    "{:>10} submitted, {} sampled, {} verifying, {} escalated, {} done",
                    self.phase_submitted,
                    self.phase_sampled,
                    self.phase_verifying,
                    self.phase_escalated,
                    self.phase_done
                ),
            ),
            (
                "journal",
                format!("{:>10} events emitted", self.journal_events),
            ),
        ]
    }

    /// Renders the snapshot through the shared [`render_block`] formatter, so
    /// the session view composes with the pool and router views.
    pub fn render(&self) -> String {
        render_block("session metrics", &self.rows())
    }
}

/// Releases the in-flight gauge when a session ends *however* it ends —
/// completion, timeout, cancellation, panic, or a runtime torn down mid-flight.
struct SessionGauge {
    recorder: Arc<SessionRecorder>,
    finished: bool,
}

impl SessionGauge {
    fn start(recorder: &Arc<SessionRecorder>) -> Self {
        recorder.spawned.fetch_add(1, Ordering::Relaxed);
        let now = recorder.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        recorder.peak_in_flight.fetch_max(now, Ordering::Relaxed);
        Self {
            recorder: Arc::clone(recorder),
            finished: false,
        }
    }

    fn finish(&mut self, counter: impl Fn(&SessionRecorder) -> &AtomicU64) {
        counter(&self.recorder).fetch_add(1, Ordering::Relaxed);
        self.finished = true;
    }
}

impl Drop for SessionGauge {
    fn drop(&mut self) {
        if !self.finished {
            // Dropped without a recorded ending: cancelled or panicked.
            self.recorder.aborted.fetch_add(1, Ordering::Relaxed);
        }
        self.recorder.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Catches panics escaping a session future's `poll`, turning a crash into a
/// value the engine can count and journal separately from cancellation.
///
/// Without this, a panicking session unwound into the runtime's task-level
/// `catch_unwind`, the completer slot was dropped, and
/// [`SessionHandle::join`] conflated the crash with a deliberate
/// [`SessionHandle::cancel`] by reporting [`SessionOutcome::Aborted`].
struct CatchPanic<F> {
    inner: std::pin::Pin<Box<F>>,
}

impl<F: Future> Future for CatchPanic<F> {
    type Output = Result<F::Output, ()>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        let inner = self.inner.as_mut();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(std::task::Poll::Ready(value)) => std::task::Poll::Ready(Ok(value)),
            Ok(std::task::Poll::Pending) => std::task::Poll::Pending,
            Err(_) => std::task::Poll::Ready(Err(())),
        }
    }
}

/// Await-handle for one spawned session.
pub struct SessionHandle<T> {
    inner: TaskHandle<SessionOutcome<T>>,
}

impl<T> SessionHandle<T> {
    /// Blocks until the session ends, returning how it ended.
    ///
    /// A panicking session reports [`SessionOutcome::Panicked`] (the panic is
    /// caught at the session boundary); only cancellation — or a runtime torn
    /// down mid-flight — reports [`SessionOutcome::Aborted`].
    pub fn join(self) -> SessionOutcome<T> {
        self.inner.join().unwrap_or(SessionOutcome::Aborted)
    }

    /// Requests cancellation: the session's future is dropped at the earliest
    /// safe point, releasing its queue slots and admission budget; joining then
    /// reports [`SessionOutcome::Aborted`].
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// Whether the session has ended (completed, timed out, cancelled).
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// The session engine: a [`Runtime`] plus session gauges, deadlines and the
/// state-machine monitor.
pub struct SessionEngine {
    runtime: Runtime,
    recorder: Arc<SessionRecorder>,
    config: SessionConfig,
}

impl SessionEngine {
    /// Starts the driver threads, handing the runtime the configured tracer
    /// (so scheduling diagnostics land in the same journal as session events)
    /// and the configured telemetry handle (so task polls time themselves into
    /// the `rt.poll.duration` histogram).
    pub fn new(config: SessionConfig) -> Self {
        let runtime = Runtime::with_hooks(
            config.resolved_drivers(),
            config.tracer.clone(),
            &config.telemetry,
        );
        Self {
            runtime,
            recorder: Arc::new(SessionRecorder::new()),
            config,
        }
    }

    /// Number of driver threads.
    pub fn drivers(&self) -> usize {
        self.runtime.drivers()
    }

    /// The underlying runtime (for scoped spawns and timers).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// A cloneable handle sessions use to report state-machine transitions.
    pub fn monitor(&self) -> SessionMonitor {
        SessionMonitor {
            recorder: Arc::clone(&self.recorder),
        }
    }

    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> SessionMetrics {
        SessionMetrics {
            drivers: self.runtime.drivers(),
            spawned: self.recorder.spawned.load(Ordering::Relaxed),
            completed: self.recorder.completed.load(Ordering::Relaxed),
            timed_out: self.recorder.timed_out.load(Ordering::Relaxed),
            aborted: self.recorder.aborted.load(Ordering::Relaxed),
            panicked: self.recorder.panicked.load(Ordering::Relaxed),
            in_flight_sessions: self.recorder.in_flight.load(Ordering::Relaxed),
            peak_in_flight_sessions: self.recorder.peak_in_flight.load(Ordering::Relaxed),
            phase_submitted: self.recorder.submitted.load(Ordering::Relaxed),
            phase_sampled: self.recorder.sampled.load(Ordering::Relaxed),
            phase_verifying: self.recorder.verifying.load(Ordering::Relaxed),
            phase_escalated: self.recorder.escalated.load(Ordering::Relaxed),
            phase_done: self.recorder.done.load(Ordering::Relaxed),
            journal_events: self.recorder.journal_events.load(Ordering::Relaxed),
        }
    }

    /// Spawns one session into `scope` (a [`Runtime::scope`] of this engine's
    /// runtime), wrapping it with the in-flight gauge and the configured
    /// deadline.  The session future may borrow from the scope's environment.
    pub fn spawn_session<'scope, 'env, T, F>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        session: F,
    ) -> SessionHandle<T>
    where
        F: Future<Output = T> + Send + 'env,
        T: Send + 'env,
    {
        let mut gauge = SessionGauge::start(&self.recorder);
        if self.config.tracer.is_on() {
            // Volatile diagnostic: which engine slot a session spawned into is
            // interleaving-dependent, so it never enters the deterministic
            // journal — content events come from the caller's `SessionSpan`.
            self.recorder.journal_events.fetch_add(1, Ordering::Relaxed);
            self.config.tracer.diagnostic(
                self.recorder.spawned.load(Ordering::Relaxed),
                JournalEvent::Span {
                    name: "session-spawn".to_string(),
                    parent: None,
                },
            );
        }
        let deadline = self
            .config
            .deadline
            .map(|deadline| self.runtime.sleep(deadline));
        let session = CatchPanic {
            inner: Box::pin(session),
        };
        let inner = scope.spawn(async move {
            match deadline {
                Some(sleep) => match with_deadline(session, sleep).await {
                    Expiry::Completed(Ok(value)) => {
                        gauge.finish(|r| &r.completed);
                        SessionOutcome::Completed(value)
                    }
                    Expiry::Completed(Err(())) => {
                        gauge.finish(|r| &r.panicked);
                        SessionOutcome::Panicked
                    }
                    Expiry::Expired => {
                        gauge.finish(|r| &r.timed_out);
                        SessionOutcome::TimedOut
                    }
                },
                None => match session.await {
                    Ok(value) => {
                        gauge.finish(|r| &r.completed);
                        SessionOutcome::Completed(value)
                    }
                    Err(()) => {
                        gauge.finish(|r| &r.panicked);
                        SessionOutcome::Panicked
                    }
                },
            }
        });
        SessionHandle { inner }
    }

    /// Runs one session per future — all multiplexed over the drivers — and
    /// returns the outcomes in input order.  Sessions may borrow from the
    /// caller's stack; the call blocks until every session has ended.
    pub fn run_all<'env, T, F>(&'env self, sessions: Vec<F>) -> Vec<SessionOutcome<T>>
    where
        F: Future<Output = T> + Send + 'env,
        T: Send + 'env,
    {
        self.runtime.scope(|scope| {
            let handles: Vec<SessionHandle<T>> = sessions
                .into_iter()
                .map(|session| self.spawn_session(scope, session))
                .collect();
            handles.into_iter().map(SessionHandle::join).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sessions_complete_in_input_order_over_few_drivers() {
        let engine = SessionEngine::new(SessionConfig::default().with_drivers(2));
        let sessions: Vec<_> = (0..256).map(|i| async move { i * 3 }).collect();
        let outcomes = engine.run_all(sessions);
        assert_eq!(outcomes.len(), 256);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            assert_eq!(outcome.completed(), Some(i * 3));
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.drivers, 2);
        assert_eq!(metrics.spawned, 256);
        assert_eq!(metrics.completed, 256);
        assert_eq!(metrics.in_flight_sessions, 0);
        assert!(metrics.peak_in_flight_sessions >= 1);
    }

    #[test]
    fn deadline_expires_stuck_sessions_and_releases_the_gauge() {
        let engine = SessionEngine::new(
            SessionConfig::default()
                .with_drivers(1)
                .with_deadline(Duration::from_millis(20)),
        );
        let sessions: Vec<std::pin::Pin<Box<dyn Future<Output = usize> + Send>>> = vec![
            Box::pin(async { std::future::pending::<usize>().await }),
            Box::pin(async { 9 }),
        ];
        let outcomes = engine.run_all(sessions);
        assert_eq!(outcomes[0], SessionOutcome::TimedOut);
        assert_eq!(outcomes[1], SessionOutcome::Completed(9));
        let metrics = engine.metrics();
        assert_eq!(metrics.timed_out, 1);
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.in_flight_sessions, 0);
    }

    #[test]
    fn monitor_tallies_phase_transitions() {
        let engine = SessionEngine::new(SessionConfig::default().with_drivers(1));
        let monitor = engine.monitor();
        let sessions: Vec<_> = (0..4)
            .map(|_| {
                let monitor = monitor.clone();
                async move {
                    monitor.phase(SessionPhase::Submitted);
                    monitor.phase(SessionPhase::Sampled);
                    monitor.phase(SessionPhase::Verifying);
                    monitor.phase(SessionPhase::Done);
                }
            })
            .collect();
        engine.run_all(sessions);
        let metrics = engine.metrics();
        assert_eq!(metrics.phase_submitted, 4);
        assert_eq!(metrics.phase_sampled, 4);
        assert_eq!(metrics.phase_verifying, 4);
        assert_eq!(metrics.phase_escalated, 0);
        assert_eq!(metrics.phase_done, 4);
        assert!(metrics.render().contains("session metrics"));
    }

    #[test]
    fn cancelled_sessions_report_aborted_and_release_the_gauge() {
        let engine = SessionEngine::new(SessionConfig::default().with_drivers(1));
        let touched = AtomicUsize::new(0);
        let outcome = engine.runtime().scope(|scope| {
            let stuck = engine.spawn_session(scope, async {
                touched.fetch_add(1, Ordering::SeqCst);
                std::future::pending::<usize>().await
            });
            // Let the driver park it, then cancel.
            while touched.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            stuck.cancel();
            stuck.join()
        });
        assert_eq!(outcome, SessionOutcome::Aborted);
        let metrics = engine.metrics();
        assert_eq!(metrics.aborted, 1);
        assert_eq!(metrics.in_flight_sessions, 0);
    }

    #[test]
    fn panicked_sessions_report_panicked_not_aborted() {
        // Regression: a panicking session future used to unwind into the
        // runtime's task-level catch_unwind and join as `Aborted`,
        // indistinguishable from a deliberate cancel.
        let engine = SessionEngine::new(SessionConfig::default().with_drivers(1));
        let sessions: Vec<std::pin::Pin<Box<dyn Future<Output = usize> + Send>>> = vec![
            Box::pin(async { panic!("session crash") }),
            Box::pin(async { 7 }),
        ];
        let outcomes = engine.run_all(sessions);
        assert_eq!(outcomes[0], SessionOutcome::Panicked);
        assert_eq!(outcomes[1], SessionOutcome::Completed(7));
        let metrics = engine.metrics();
        assert_eq!(metrics.panicked, 1);
        assert_eq!(metrics.aborted, 0, "a crash is not a cancellation");
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.in_flight_sessions, 0);
        assert!(metrics.render().contains("panicked"));
    }

    #[test]
    fn many_more_sessions_than_drivers_are_in_flight_at_once() {
        // A release/acquire pair: sessions block on a oneshot the main thread
        // fulfils only after observing the full in-flight count.
        let engine = SessionEngine::new(SessionConfig::default().with_drivers(2));
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sessions: Vec<_> = (0..512)
            .map(|i| {
                let gate = Arc::clone(&gate);
                async move {
                    std::future::poll_fn(|cx| {
                        if gate.load(Ordering::Acquire) {
                            std::task::Poll::Ready(())
                        } else {
                            cx.waker().wake_by_ref(); // busy-ish re-poll keeps it simple
                            std::task::Poll::Pending
                        }
                    })
                    .await;
                    i
                }
            })
            .collect();
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                gate.store(true, Ordering::Release);
            })
        };
        let outcomes = engine.run_all(sessions);
        opener.join().unwrap();
        assert!(outcomes.iter().all(|o| o.is_completed()));
        let metrics = engine.metrics();
        assert!(
            metrics.peak_in_flight_sessions >= 256,
            "peak in-flight ({}) must vastly exceed the 2 drivers",
            metrics.peak_in_flight_sessions
        );
    }
}
