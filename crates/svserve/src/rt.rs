//! A minimal, dependency-free async runtime for the serving layer.
//!
//! The pools in this crate park one OS thread per waiting caller
//! (the ticket module's condvar `wait`), which caps concurrent repair sessions at
//! the thread budget.  This module is the hand-rolled replacement — no tokio, per
//! the vendored-only policy: a small executor whose **driver threads** poll
//! [`Waker`]-scheduled tasks from one shared ready queue, so thousands of
//! in-flight sessions multiplex over a handful of drivers.  [`crate::session`]
//! builds the repair-session state machine on top of it.
//!
//! ## Shape
//!
//! * [`Runtime::new`] spawns N driver threads ([`crate::env::DRIVERS_ENV`] overrides the
//!   default); [`Runtime::spawn`] schedules a `'static` future and returns a
//!   [`TaskHandle`] to join, poll or cancel it.
//! * [`Runtime::scope`] is the borrowed-data variant (mirroring
//!   `std::thread::scope`): futures spawned inside the scope may borrow from the
//!   enclosing stack frame, and the scope blocks until every one of them has
//!   finished or been dropped before returning.
//! * [`Runtime::sleep`] / [`Runtime::sleep_until`] are timer futures backed by a
//!   binary heap the drivers service between polls — the basis for session
//!   deadlines ([`with_deadline`]).
//! * [`block_on`] drives one future on the current thread, for callers that need
//!   an await point without a runtime.
//!
//! ## Scheduling
//!
//! A task is an `Arc` holding its boxed future behind a mutex plus a `scheduled`
//! flag.  Waking pushes the task onto the ready queue exactly once (the flag
//! dedupes concurrent wakes); a driver pops it, clears the flag *before*
//! polling (so wakes arriving mid-poll re-queue it), and polls.  A panicking
//! task is dropped — its [`TaskHandle`] reports [`TaskAborted`] — and never
//! takes the driver down.  Cancellation drops the future in place, running the
//! destructors of whatever it held (queued permits, tickets, guards), which is
//! what lets a cancelled session release its resources deterministically.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::journal::{JournalEvent, TracerHandle};
use crate::sync::{lock_recover, wait_timeout_recover};
use crate::telemetry::{Metric, MetricClass, TelemetryHandle};

/// Longest a driver parks between checks for shutdown and due timers.
const MAX_PARK: Duration = Duration::from_millis(50);

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// State shared by every driver, task and timer of one runtime.
struct RtShared {
    ready: Mutex<VecDeque<Arc<Task>>>,
    work: Condvar,
    timers: Mutex<TimerQueue>,
    next_timer_id: AtomicU64,
    shutdown: AtomicBool,
    /// Weak handles to every task ever spawned, so shutdown can cancel tasks
    /// that are *parked* on an external waker (not in the ready queue) — their
    /// `Completer`s must still report `TaskAborted` instead of letting a
    /// `TaskHandle::join` hang.  Pruned opportunistically at spawn.
    tasks: Mutex<Vec<std::sync::Weak<Task>>>,
    /// Journal hook for scheduler diagnostics (task spawns, timer fires).
    /// These are *volatile* events — which driver fires a timer is
    /// interleaving-dependent — so they never enter the deterministic journal.
    tracer: TracerHandle,
    /// Monotone pseudo-id source for spawn diagnostics.
    spawn_seq: AtomicU64,
    /// `rt.poll.duration` histogram: wall-clock of every task poll, resolved
    /// once at runtime construction.  `None` (telemetry off) costs one branch
    /// per poll.
    poll_timer: Option<Arc<Metric>>,
}

/// Pending timers: a min-heap of deadlines plus the live wakers by timer id.
/// Re-polling a [`Sleep`] pushes a fresh heap entry; stale entries (fired or
/// dropped sleeps) are skipped at fire time because their id is no longer in
/// the waker map.
#[derive(Default)]
struct TimerQueue {
    heap: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    wakers: HashMap<u64, Waker>,
}

impl RtShared {
    /// Pops every due timer and wakes its registered waker (outside the lock).
    fn fire_due_timers(&self) {
        let now = Instant::now();
        let mut due = Vec::new();
        {
            let mut timers = lock_recover(&self.timers);
            while let Some(&std::cmp::Reverse((at, id))) = timers.heap.peek() {
                if at > now {
                    break;
                }
                timers.heap.pop();
                if let Some(waker) = timers.wakers.remove(&id) {
                    due.push(waker);
                }
            }
        }
        if self.tracer.is_on() {
            for _ in &due {
                self.tracer.diagnostic(
                    self.spawn_seq.load(Ordering::Relaxed),
                    JournalEvent::Span {
                        name: "timer-fire".to_string(),
                        parent: None,
                    },
                );
            }
        }
        for waker in due {
            waker.wake();
        }
    }

    /// How long a driver may park before the next timer is due.
    fn park_timeout(&self) -> Duration {
        let timers = lock_recover(&self.timers);
        match timers.heap.peek() {
            Some(&std::cmp::Reverse((at, _))) => {
                at.saturating_duration_since(Instant::now()).min(MAX_PARK)
            }
            None => MAX_PARK,
        }
    }
}

/// One spawned future plus its scheduling state.
struct Task {
    shared: Arc<RtShared>,
    /// `None` once the future completed, panicked or was cancelled.
    future: Mutex<Option<BoxFuture>>,
    /// Set while the task sits in the ready queue; dedupes concurrent wakes.
    scheduled: AtomicBool,
    cancelled: AtomicBool,
}

impl Task {
    fn schedule(this: &Arc<Self>) {
        if !this.scheduled.swap(true, Ordering::AcqRel) {
            lock_recover(&this.shared.ready).push_back(Arc::clone(this));
            this.shared.work.notify_one();
        }
    }

    /// Drops the future in place (releasing everything it holds) if it is not
    /// being polled right now; otherwise re-schedules the task so a driver
    /// re-runs it and the pre-poll `cancelled` check drops it.  (The polling
    /// driver's own post-poll check may miss a flag stored after it read the
    /// flag but before it released the mutex — the re-schedule closes that
    /// race, so cancellation never depends on an external wake arriving.)
    fn cancel(this: &Arc<Self>) {
        this.cancelled.store(true, Ordering::Release);
        match this.future.try_lock() {
            Ok(mut slot) => {
                slot.take();
            }
            Err(_) => Task::schedule(this),
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        Task::schedule(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Task::schedule(self);
    }
}

/// Polls one ready task.  The `scheduled` flag is cleared *before* polling so a
/// wake that lands mid-poll re-queues the task instead of being lost; a second
/// driver popping that re-queue blocks briefly on the future mutex and then
/// polls again, which is harmless (spurious polls are allowed).
fn run_task(task: Arc<Task>) {
    task.scheduled.store(false, Ordering::Release);
    let mut slot = lock_recover(&task.future);
    if task.cancelled.load(Ordering::Acquire) {
        slot.take();
        return;
    }
    let Some(future) = slot.as_mut() else {
        return; // Already finished; a stale wake.
    };
    let waker = Waker::from(Arc::clone(&task));
    let mut cx = Context::from_waker(&waker);
    let poll_start = task.shared.poll_timer.as_ref().map(|_| Instant::now());
    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        future.as_mut().poll(&mut cx)
    }));
    if let (Some(metric), Some(start)) = (&task.shared.poll_timer, poll_start) {
        metric.observe_duration(start.elapsed());
    }
    match polled {
        Ok(Poll::Pending) => {
            if task.cancelled.load(Ordering::Acquire) {
                slot.take();
            }
        }
        // Completed or panicked: drop the future either way.  A panic unwinds
        // the task, not the driver; its handle reports `TaskAborted`.
        Ok(Poll::Ready(())) | Err(_) => {
            slot.take();
        }
    }
}

fn driver_loop(shared: Arc<RtShared>) {
    loop {
        shared.fire_due_timers();
        let task = {
            let mut ready = lock_recover(&shared.ready);
            match ready.pop_front() {
                Some(task) => Some(task),
                None => {
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let timeout = shared.park_timeout();
                    let (mut ready, _) = wait_timeout_recover(&shared.work, ready, timeout);
                    ready.pop_front()
                }
            }
        };
        if let Some(task) = task {
            run_task(task);
        } else if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Why a joined task produced no value: its future was cancelled, or it
/// panicked (the driver absorbed the panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAborted;

impl std::fmt::Display for TaskAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task was cancelled or panicked before completing")
    }
}

impl std::error::Error for TaskAborted {}

struct HandleState<T> {
    value: Option<Result<T, TaskAborted>>,
    waker: Option<Waker>,
    done: bool,
}

struct HandleInner<T> {
    state: Mutex<HandleState<T>>,
    done_cv: Condvar,
}

impl<T> HandleInner<T> {
    fn finish(&self, value: Result<T, TaskAborted>) {
        let waker = {
            let mut state = lock_recover(&self.state);
            if state.done {
                return;
            }
            state.value = Some(value);
            state.done = true;
            state.waker.take()
        };
        self.done_cv.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// Completion side of a [`TaskHandle`], owned by the spawned future's wrapper.
/// Dropping it without [`Completer::finish`] — cancellation, panic, or a
/// runtime torn down with the task still pending — reports [`TaskAborted`].
struct Completer<T> {
    inner: Arc<HandleInner<T>>,
}

impl<T> Completer<T> {
    fn finish(self, value: T) {
        self.inner.finish(Ok(value));
        // `Drop` re-checking `done` makes the second finish a no-op.
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        self.inner.finish(Err(TaskAborted));
    }
}

/// Await-handle for a spawned task: join it (blocking), poll it (as a future),
/// or cancel it.
pub struct TaskHandle<T> {
    inner: Arc<HandleInner<T>>,
    task: Arc<Task>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the task finishes; `Err(TaskAborted)` if it was cancelled
    /// or panicked.
    pub fn join(self) -> Result<T, TaskAborted> {
        let mut state = lock_recover(&self.inner.state);
        loop {
            if let Some(value) = state.value.take() {
                return value;
            }
            if state.done {
                return Err(TaskAborted);
            }
            state = self
                .inner
                .done_cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Requests cancellation: the task's future is dropped at the earliest safe
    /// point (immediately if it is parked, after the in-flight poll otherwise),
    /// releasing everything it holds.  Joining then reports [`TaskAborted`].
    pub fn cancel(&self) {
        Task::cancel(&self.task);
    }

    /// Whether the task has finished (completed, panicked or been cancelled).
    pub fn is_finished(&self) -> bool {
        lock_recover(&self.inner.state).done
    }
}

impl<T> Future for TaskHandle<T> {
    type Output = Result<T, TaskAborted>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = lock_recover(&self.inner.state);
        if let Some(value) = state.value.take() {
            return Poll::Ready(value);
        }
        if state.done {
            return Poll::Ready(Err(TaskAborted));
        }
        state.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Tracks how many scoped tasks are still alive; [`Runtime::scope`] blocks on
/// it before returning, which is what makes the borrowed spawns sound.
struct ScopeState {
    pending: Mutex<usize>,
    drained: Condvar,
}

impl ScopeState {
    fn increment(&self) {
        *lock_recover(&self.pending) += 1;
    }

    fn decrement(&self) {
        let mut pending = lock_recover(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut pending = lock_recover(&self.pending);
        while *pending > 0 {
            pending = self
                .drained
                .wait(pending)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Wrapper that guarantees the scope's pending count drops only *after* the
/// wrapped future (and every borrow it captured) has been destroyed.  Struct
/// drop order alone is not a guarantee we want to lean on for a soundness
/// invariant, so the order is made explicit in `Drop`.
struct Tracked<F: Future<Output = ()>> {
    future: ManuallyDrop<F>,
    scope: Arc<ScopeState>,
}

impl<F: Future<Output = ()>> Future for Tracked<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // Safety: `future` is structurally pinned — it is never moved out of
        // the wrapper; `Drop` destroys it in place via `ManuallyDrop::drop`.
        unsafe { self.map_unchecked_mut(|this| &mut *this.future) }.poll(cx)
    }
}

impl<F: Future<Output = ()>> Drop for Tracked<F> {
    fn drop(&mut self) {
        // Safety: dropped exactly once, here; the field is not used afterwards.
        unsafe { ManuallyDrop::drop(&mut self.future) };
        self.scope.decrement();
    }
}

/// A spawn scope whose tasks may borrow from the enclosing stack frame.
///
/// Created by [`Runtime::scope`]; mirrors `std::thread::scope`: `'env` is the
/// lifetime of the borrowed environment, `'scope` the lifetime of the scope
/// itself, and the scope does not return until every spawned task has finished
/// or been dropped.
pub struct Scope<'scope, 'env: 'scope> {
    runtime: &'scope Runtime,
    state: Arc<ScopeState>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a future that may borrow from `'env`, returning its handle.
    pub fn spawn<T, F>(&'scope self, future: F) -> TaskHandle<T>
    where
        F: Future<Output = T> + Send + 'env,
        T: Send + 'env,
    {
        let inner = Arc::new(HandleInner {
            state: Mutex::new(HandleState {
                value: None,
                waker: None,
                done: false,
            }),
            done_cv: Condvar::new(),
        });
        let completer = Completer {
            inner: Arc::clone(&inner),
        };
        self.state.increment();
        let tracked = Tracked {
            future: ManuallyDrop::new(async move {
                completer.finish(future.await);
            }),
            scope: Arc::clone(&self.state),
        };
        let boxed: Pin<Box<dyn Future<Output = ()> + Send + 'env>> = Box::pin(tracked);
        // Safety: lifetime erasure only — same type, same vtable.  The erased
        // future cannot outlive `'env` because `Runtime::scope` blocks (via
        // `ScopeState::wait_drained`) until every `Tracked` wrapper has been
        // destroyed, and `Tracked::drop` destroys the future before
        // decrementing the count.  After that point the runtime retains at
        // most empty task shells (`future` slot `None`), which borrow nothing.
        let boxed: BoxFuture = unsafe { std::mem::transmute(boxed) };
        let task = self.runtime.spawn_boxed(boxed);
        TaskHandle { inner, task }
    }
}

/// Ensures the scope waits for its tasks even when the scope body panics.
struct ScopeWait<'a>(&'a ScopeState);

impl Drop for ScopeWait<'_> {
    fn drop(&mut self) {
        self.0.wait_drained();
    }
}

/// The executor: N driver threads multiplexing every spawned task.
pub struct Runtime {
    shared: Arc<RtShared>,
    drivers: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Starts `drivers` driver threads (clamped to at least 1).
    pub fn new(drivers: usize) -> Self {
        Self::with_tracer(drivers, TracerHandle::off())
    }

    /// Starts `drivers` driver threads with a journal tracer installed; the
    /// scheduler emits volatile spawn/timer diagnostics to it.  With
    /// [`TracerHandle::off`] this is exactly [`Runtime::new`].
    pub fn with_tracer(drivers: usize, tracer: TracerHandle) -> Self {
        Self::with_hooks(drivers, tracer, &TelemetryHandle::off())
    }

    /// Starts `drivers` driver threads with both observability hooks
    /// installed: the journal tracer for scheduler diagnostics and the
    /// telemetry registry for the `rt.poll.duration` histogram.  Either hook
    /// may be off.
    pub fn with_hooks(drivers: usize, tracer: TracerHandle, telemetry: &TelemetryHandle) -> Self {
        let shared = Arc::new(RtShared {
            ready: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            timers: Mutex::new(TimerQueue::default()),
            next_timer_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            tasks: Mutex::new(Vec::new()),
            tracer,
            spawn_seq: AtomicU64::new(0),
            poll_timer: telemetry.histogram("rt.poll.duration", MetricClass::Volatile),
        });
        let drivers = (0..drivers.max(1))
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svserve-driver-{idx}"))
                    .spawn(move || driver_loop(shared))
                    .expect("spawn driver thread")
            })
            .collect();
        Self { shared, drivers }
    }

    /// Number of driver threads.
    pub fn drivers(&self) -> usize {
        self.drivers.len()
    }

    fn spawn_boxed(&self, future: BoxFuture) -> Arc<Task> {
        if self.shared.tracer.is_on() {
            let id = self.shared.spawn_seq.fetch_add(1, Ordering::Relaxed);
            self.shared.tracer.diagnostic(
                id,
                JournalEvent::Span {
                    name: "task-spawn".to_string(),
                    parent: None,
                },
            );
        }
        let task = Arc::new(Task {
            shared: Arc::clone(&self.shared),
            future: Mutex::new(Some(future)),
            scheduled: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        });
        {
            let mut tasks = lock_recover(&self.shared.tasks);
            // Amortized pruning keeps the registry proportional to live tasks
            // on long-lived runtimes.
            if tasks.len() >= 1024 && tasks.len().is_power_of_two() {
                tasks.retain(|weak| weak.strong_count() > 0);
            }
            tasks.push(Arc::downgrade(&task));
        }
        Task::schedule(&task);
        task
    }

    /// Spawns a `'static` future onto the drivers, returning its handle.
    pub fn spawn<T, F>(&self, future: F) -> TaskHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        let inner = Arc::new(HandleInner {
            state: Mutex::new(HandleState {
                value: None,
                waker: None,
                done: false,
            }),
            done_cv: Condvar::new(),
        });
        let completer = Completer {
            inner: Arc::clone(&inner),
        };
        let task = self.spawn_boxed(Box::pin(async move {
            completer.finish(future.await);
        }));
        TaskHandle { inner, task }
    }

    /// Runs `body` with a [`Scope`] whose spawned futures may borrow from the
    /// caller's stack; blocks until every spawned task has finished or been
    /// dropped before returning (even if `body` panics).
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            drained: Condvar::new(),
        });
        let wait = ScopeWait(&state);
        let scope = Scope {
            runtime: self,
            state: Arc::clone(&state),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = body(&scope);
        drop(wait); // Block until the scope has drained.
        result
    }

    /// A future that completes at `at` (immediately if `at` has passed).
    pub fn sleep_until(&self, at: Instant) -> Sleep {
        Sleep {
            shared: Arc::clone(&self.shared),
            at,
            id: self.shared.next_timer_id.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A future that completes after `duration`.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        for handle in self.drivers.drain(..) {
            let _ = handle.join();
        }
        // Cancel every task still alive — queued *or* parked on an external
        // waker — so each `Completer` reports `TaskAborted` to its handle
        // instead of a `join` hanging forever.  (Scoped tasks cannot reach
        // this point: their scope drained before the runtime could be
        // dropped.)
        lock_recover(&self.shared.ready).clear();
        let leftover: Vec<std::sync::Weak<Task>> =
            lock_recover(&self.shared.tasks).drain(..).collect();
        for weak in leftover {
            if let Some(task) = weak.upgrade() {
                Task::cancel(&task);
            }
        }
    }
}

/// Timer future created by [`Runtime::sleep`] / [`Runtime::sleep_until`].
pub struct Sleep {
    shared: Arc<RtShared>,
    at: Instant,
    id: u64,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.at {
            return Poll::Ready(());
        }
        {
            let mut timers = lock_recover(&self.shared.timers);
            // One heap entry per registration, not per poll: a re-poll (every
            // wake of a deadline-wrapped session) only refreshes the waker.
            if timers.wakers.insert(self.id, cx.waker().clone()).is_none() {
                timers.heap.push(std::cmp::Reverse((self.at, self.id)));
            }
        }
        // A driver may be parked past this deadline; nudge one so the park
        // timeout is recomputed against the new earliest timer.
        self.shared.work.notify_one();
        if Instant::now() >= self.at {
            // The deadline passed between the check and the registration; the
            // registered waker will still fire, but don't make the caller wait.
            return Poll::Ready(());
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // The heap entry stays (skipped at fire time); only the waker matters.
        lock_recover(&self.shared.timers).wakers.remove(&self.id);
    }
}

/// Outcome of racing a future against a deadline (see [`with_deadline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry<T> {
    /// The future completed before the deadline.
    Completed(T),
    /// The deadline fired first; the future was dropped unfinished.
    Expired,
}

impl<T> Expiry<T> {
    /// The completed value, if the deadline did not fire first.
    pub fn completed(self) -> Option<T> {
        match self {
            Expiry::Completed(value) => Some(value),
            Expiry::Expired => None,
        }
    }
}

/// Races `future` against `deadline` (a [`Sleep`], typically from
/// [`Runtime::sleep`]); the future is polled first, so a result that is ready
/// at the deadline still counts as completed.
pub fn with_deadline<F: Future>(future: F, deadline: Sleep) -> WithDeadline<F> {
    WithDeadline {
        future,
        deadline,
        done: false,
    }
}

/// Future returned by [`with_deadline`].
pub struct WithDeadline<F: Future> {
    future: F,
    deadline: Sleep,
    done: bool,
}

impl<F: Future> Future for WithDeadline<F> {
    type Output = Expiry<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Safety: standard pin projection; neither field is moved out.
        let this = unsafe { self.get_unchecked_mut() };
        assert!(!this.done, "WithDeadline polled after completion");
        let future = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(value) = future.poll(cx) {
            this.done = true;
            return Poll::Ready(Expiry::Completed(value));
        }
        if Pin::new(&mut this.deadline).poll(cx).is_ready() {
            this.done = true;
            return Poll::Ready(Expiry::Expired);
        }
        Poll::Pending
    }
}

/// Drives one future to completion on the current thread (no runtime needed);
/// the thread parks between polls.
pub fn block_on<F: Future>(future: F) -> F::Output {
    struct Parker {
        woken: Mutex<bool>,
        cv: Condvar,
    }

    impl Wake for Parker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            *lock_recover(&self.woken) = true;
            self.cv.notify_one();
        }
    }

    let parker = Arc::new(Parker {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
            return value;
        }
        let mut woken = lock_recover(&parker.woken);
        while !*woken {
            // Timed wait as a safety net against a future that loses its
            // waker: on timeout, break out and re-poll (a spurious poll is
            // always allowed) instead of waiting for a wake that may never
            // come.
            let (guard, timeout) = wait_timeout_recover(&parker.cv, woken, MAX_PARK);
            woken = guard;
            if timeout.timed_out() {
                break;
            }
        }
        *woken = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{parse_thread_knob, resolve_thread_knob, KnobParse, MAX_ENV_THREADS};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn spawned_tasks_complete_and_join() {
        let rt = Runtime::new(2);
        let handles: Vec<TaskHandle<usize>> =
            (0..64).map(|i| rt.spawn(async move { i * 2 })).collect();
        let values: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_are_also_futures() {
        let rt = Runtime::new(1);
        let inner = rt.spawn(async { 7usize });
        let outer = rt.spawn(async move { inner.await.unwrap() + 1 });
        assert_eq!(outer.join(), Ok(8));
    }

    #[test]
    fn a_panicking_task_reports_aborted_without_killing_the_driver() {
        let rt = Runtime::new(1);
        let bad: TaskHandle<()> = rt.spawn(async { panic!("task panic") });
        assert_eq!(bad.join(), Err(TaskAborted));
        // The single driver survived and still serves work.
        assert_eq!(rt.spawn(async { 3usize }).join(), Ok(3));
    }

    #[test]
    fn scoped_tasks_may_borrow_the_stack() {
        let rt = Runtime::new(2);
        let values = [1u64, 2, 3, 4];
        let total = AtomicUsize::new(0);
        rt.scope(|scope| {
            let handles: Vec<_> = values
                .iter()
                .map(|v| {
                    scope.spawn(async {
                        total.fetch_add(*v as usize, Ordering::SeqCst);
                        *v
                    })
                })
                .collect();
            let sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(sum, 10);
        });
        assert_eq!(total.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn scope_waits_for_detached_tasks() {
        let rt = Runtime::new(2);
        let done = AtomicUsize::new(0);
        rt.scope(|scope| {
            for _ in 0..8 {
                // Handles dropped immediately: the scope must still wait.
                drop(scope.spawn(async {
                    done.fetch_add(1, Ordering::SeqCst);
                }));
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn cancellation_drops_the_future_and_reports_aborted() {
        struct NotifyOnDrop(Arc<AtomicUsize>);
        impl Drop for NotifyOnDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let rt = Runtime::new(1);
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = NotifyOnDrop(Arc::clone(&drops));
        // A future that never completes on its own.
        let handle: TaskHandle<()> = rt.spawn(async move {
            let _guard = guard;
            std::future::pending::<()>().await;
        });
        // Let the driver park it first.
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
        assert_eq!(handle.join(), Err(TaskAborted));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "cancelling must drop the future (and run its destructors)"
        );
    }

    #[test]
    fn dropping_the_runtime_aborts_parked_tasks_instead_of_hanging_joins() {
        let rt = Runtime::new(1);
        // A task that parks forever on an external waker: it leaves the ready
        // queue after its first poll, so only the task registry can reach it.
        let handle: TaskHandle<()> = rt.spawn(std::future::pending());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(rt);
        assert_eq!(
            handle.join(),
            Err(TaskAborted),
            "shutdown must cancel parked tasks so joins cannot hang"
        );
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let rt = Runtime::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        let handles: Vec<_> = [30u64, 10, 20]
            .into_iter()
            .map(|ms| {
                let sleep = rt.sleep(Duration::from_millis(ms));
                let order = Arc::clone(&order);
                rt.spawn(async move {
                    sleep.await;
                    order.lock().unwrap().push(ms);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(*order.lock().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn deadlines_expire_pending_futures_and_spare_finished_ones() {
        let rt = Runtime::new(1);
        let stuck = with_deadline(
            std::future::pending::<()>(),
            rt.sleep(Duration::from_millis(10)),
        );
        let quick = with_deadline(async { 5usize }, rt.sleep(Duration::from_secs(5)));
        let (stuck, quick) = rt.scope(|scope| {
            let a = scope.spawn(stuck);
            let b = scope.spawn(quick);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(stuck, Expiry::Expired);
        assert_eq!(quick, Expiry::Completed(5));
        assert_eq!(quick.completed(), Some(5));
    }

    #[test]
    fn block_on_drives_a_future_without_a_runtime() {
        let rt = Runtime::new(1);
        let handle = rt.spawn(async { 11usize });
        assert_eq!(block_on(async { handle.await.unwrap() + 1 }), 12);
    }

    #[test]
    fn env_override_parses_only_positive_integers() {
        assert_eq!(parse_thread_knob(" 4 "), KnobParse::Ok(4));
        assert_eq!(parse_thread_knob("0"), KnobParse::Invalid);
        assert_eq!(parse_thread_knob("lots"), KnobParse::Invalid);
        assert_eq!(parse_thread_knob(""), KnobParse::Invalid);
        assert_eq!(parse_thread_knob("-3"), KnobParse::Invalid);
    }

    #[test]
    fn env_override_clamps_huge_thread_counts() {
        // Regression: a driver count of 40000 used to be taken at face
        // value and spawn forty thousand driver threads.
        assert_eq!(
            parse_thread_knob("40000"),
            KnobParse::Clamped(MAX_ENV_THREADS)
        );
        assert_eq!(
            parse_thread_knob(&usize::MAX.to_string()),
            KnobParse::Clamped(MAX_ENV_THREADS)
        );
        assert_eq!(
            parse_thread_knob(&MAX_ENV_THREADS.to_string()),
            KnobParse::Ok(MAX_ENV_THREADS)
        );
        // The resolver surfaces clamped/invalid values as warnings but still
        // returns a usable count (or the default sentinel `None`).
        assert_eq!(
            resolve_thread_knob("TEST_KNOB", "40000"),
            Some(MAX_ENV_THREADS)
        );
        assert_eq!(resolve_thread_knob("TEST_KNOB", "0"), None);
        assert_eq!(resolve_thread_knob("TEST_KNOB", "garbage"), None);
        assert_eq!(resolve_thread_knob("TEST_KNOB", "8"), Some(8));
    }
}
