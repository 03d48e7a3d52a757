//! Structured session journal: typed events, span hooks, and a byte-deterministic
//! JSONL artifact.
//!
//! Counters ([`crate::ServiceMetrics`] and friends) say *how much* happened;
//! they cannot say which rung attempted a session, which verdict killed a
//! candidate, or where a session's time went.  This module records that story as
//! a stream of typed [`JournalEvent`]s keyed by **session id** (the 64-bit fold
//! of the request's content hash) so the journal of an evaluation is a pure
//! function of its inputs — the same determinism contract the caches and the
//! verdict pool already honour.
//!
//! ## Event classes
//!
//! Events split into two classes, and the split is what makes the artifact
//! reproducible:
//!
//! * **Deterministic** events (session phases, rung attempts, verdict tallies,
//!   logical timings, terminal outcomes) depend only on content.  They are
//!   emitted through [`Tracer::event`] with a caller-assigned sequence number
//!   and are serialized in every journal.
//! * **Volatile** events (cache hit/miss, pool admit/shed, solve/judge panics)
//!   depend on interleaving or cache temperature.
//!   They are emitted through [`Tracer::diagnostic`], always counted in the
//!   metrics, but serialized only when [`JournalSpec::mode`] is
//!   [`JournalMode::Full`] — a warm run and a cold run must render the same
//!   default journal bytes.
//!
//! ## Logical time
//!
//! Records carry no wall-clock timestamps.  Each record's `tick` is derived
//! from `(session, seq)` by [`logical_tick`]: monotonic within a session,
//! jittered by the identity hash so distinct sessions do not share a trivially
//! flat timeline, and byte-identical at any driver or worker count.
//!
//! ## Buffering and drain
//!
//! [`JournalSink`] shards records across bounded per-shard buffers (lock held
//! only for a push).  A full shard spills to an unbounded overflow vector —
//! deterministic events are **never dropped**, the spill is merely counted.
//! [`JournalSink::drain_sorted`] takes every buffered record and sorts by
//! `(session, seq, serialized bytes)`, which is what makes the rendered JSONL
//! independent of arrival interleaving.  [`render_journal`] then writes the
//! versioned header (mirroring [`crate::persist::SnapshotHeader`]), one record
//! per line, and a checksummed footer carrying an opaque payload — the same
//! atomic-write flush path the cache snapshots use.

use crate::persist::{self, fnv64};
use crate::service::splitmix64;
use crate::sync::lock_recover;
use crate::telemetry::{Metric, MetricClass, TelemetryHandle};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Journal file layout version (bumped on any incompatible change).
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Header kind tag for session-journal files.
pub const JOURNAL_KIND: &str = "session-journal";

/// Sequence number reserved for a session's terminal event, so the terminal
/// record always sorts after every other record of the session.
pub const TERMINAL_SEQ: u32 = u32::MAX;

/// Logical timestamp of record `(session, seq)`.
///
/// `seq * 16` keeps ticks strictly monotonic per session; the low nibble is a
/// deterministic jitter bucketed out of the identity hash, so two sessions'
/// timelines differ without any wall clock involved.
pub fn logical_tick(session: u64, seq: u32) -> u64 {
    let jitter = splitmix64(session ^ (u64::from(seq) << 1 | 1)) & 0xF;
    u64::from(seq) * 16 + jitter
}

/// The observable phases of one case's repair session, journaled through a
/// [`SpanHandle`] in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// The repair request has been accepted by a pool.
    Submitted,
    /// The model's samples arrived (repair ticket fulfilled).
    Sampled,
    /// The distinct candidates were submitted to the verify pool.
    Verifying,
    /// A verdict-triggered re-submit walked the session up an escalation rung.
    Escalated,
    /// The session produced its result.
    Done,
}

/// How a session ended; exactly one terminal event is journaled per session.
///
/// Nothing produces `TimedOut` or `Panicked` any more; they stay so journals
/// recorded when something did still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEnd {
    /// The session ran to completion.
    Completed,
    /// A per-session deadline expired before the session completed.
    TimedOut,
    /// The session's span was dropped unfinished.
    Aborted,
    /// The session panicked — a crash, distinct from an abort.
    Panicked,
    /// Admission control refused the session's submission (`SubmitError::Busy`).
    Shed,
}

/// One typed journal event.
///
/// The first five variants are **deterministic** (serialized in every journal);
/// the rest are **volatile** diagnostics (serialized only in
/// [`JournalMode::Full`]).  See the module docs for why the classes exist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// A session state transition (deterministic).
    Phase {
        /// The phase entered, e.g. `"submitted"`.
        phase: String,
    },
    /// A per-phase logical timing: `units` is a content-derived duration such
    /// as the number of sampled candidates (deterministic).
    Timing {
        /// What was measured.
        label: String,
        /// Content-derived magnitude (never wall-clock).
        units: u64,
    },
    /// The session's verdict tally over its sampled candidates (deterministic).
    Verdict {
        /// Candidates judged correct.
        accepted: u64,
        /// Candidates judged incorrect.
        rejected: u64,
    },
    /// One rung attempt on the escalation ladder (deterministic).
    Rung {
        /// Rung index, 0 = cheapest backend.
        rung: u32,
        /// Name of the backend that served the rung.
        backend: String,
        /// Distinct candidates judged at this rung.
        judged: u64,
        /// Distinct candidates judged correct.
        correct: u64,
        /// Whether the ladder stopped here.
        terminal: bool,
    },
    /// The session's terminal outcome (deterministic, exactly once).
    Terminal {
        /// How the session ended.
        outcome: SessionEnd,
    },
    /// A pool admitted a submission (volatile: which submission sheds depends
    /// on interleaving).
    Admit {
        /// Pool name, `"repair"` or `"verify"`.
        pool: String,
    },
    /// A pool shed a submission with `SubmitError::Busy` (volatile).
    Shed {
        /// Pool name.
        pool: String,
    },
    /// A cache lookup outcome (volatile: depends on cache temperature).
    Cache {
        /// Pool name.
        pool: String,
        /// Whether the lookup hit.
        hit: bool,
        /// Whether the hit came from a preloaded snapshot entry.
        warm: bool,
    },
    /// A solver or judge invocation panicked and was absorbed (volatile).
    Panic {
        /// Pool name.
        pool: String,
    },
    /// A scheduling span such as a task spawn (volatile).  Nothing emits it
    /// any more; it stays so older full-mode journals still parse.
    Span {
        /// Span name.
        name: String,
        /// The parent span id in the trace tree ([`crate::trace`]), when the
        /// emitter runs under a trace context; `None` for an unlinked span.
        ///
        /// Versioned for back-compat: journals written before the field
        /// existed omit it, and the vendored serde treats a missing struct
        /// field holding an `Option` as `None` — old replay artifacts keep
        /// parsing unchanged.
        parent: Option<u64>,
    },
}

/// One journaled record: the session it belongs to, its sequence number within
/// that session, its [`logical_tick`], and the event itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Session id (64-bit fold of the request content hash).
    pub session: u64,
    /// Sequence number within the session ([`TERMINAL_SEQ`] for the terminal).
    pub seq: u32,
    /// Logical timestamp; see [`logical_tick`].
    pub tick: u64,
    /// The event.
    pub event: JournalEvent,
}

impl JournalRecord {
    /// Builds the record for `(session, seq, event)`, deriving the tick.
    pub fn new(session: u64, seq: u32, event: JournalEvent) -> Self {
        Self {
            session,
            seq,
            tick: logical_tick(session, seq),
            event,
        }
    }

    /// The record's canonical JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("journal record serializes")
    }
}

/// Receives journal events from instrumented pools, sessions and routers.
///
/// Both methods default to no-ops, so an implementor may observe only the class
/// it cares about; the instrumented hot paths cost a single branch when no
/// tracer is installed (see [`TracerHandle`]).
pub trait Tracer: Send + Sync {
    /// Records one **deterministic** event: `seq` orders it within `session`
    /// and must itself be content-derived (phase index, rung index, …).
    fn event(&self, session: u64, seq: u32, event: JournalEvent) {
        let _ = (session, seq, event);
    }

    /// Records one **volatile** diagnostic event for `session`; ordering is
    /// assigned by the sink and carries no determinism contract.
    fn diagnostic(&self, session: u64, event: JournalEvent) {
        let _ = (session, event);
    }
}

/// A cheaply clonable, optional [`Tracer`] — the form configs carry.
///
/// The default handle is **off**: every emit is one `Option` branch and
/// nothing else, which is what keeps journaling free on untraced hot paths.
/// Equality is identity (two handles are equal when they point at the same
/// tracer, or are both off), so configs that derive `PartialEq` keep working.
#[derive(Clone, Default)]
pub struct TracerHandle(Option<Arc<dyn Tracer>>);

impl TracerHandle {
    /// The disabled handle (also what `Default` returns).
    pub fn off() -> Self {
        Self(None)
    }

    /// Wraps a live tracer.
    pub fn new(tracer: Arc<dyn Tracer>) -> Self {
        Self(Some(tracer))
    }

    /// Whether a tracer is installed — the one branch instrumented code pays.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Forwards a deterministic event to the tracer, if any.
    pub fn event(&self, session: u64, seq: u32, event: JournalEvent) {
        if let Some(tracer) = &self.0 {
            tracer.event(session, seq, event);
        }
    }

    /// Forwards a volatile diagnostic to the tracer, if any.
    pub fn diagnostic(&self, session: u64, event: JournalEvent) {
        if let Some(tracer) = &self.0 {
            tracer.diagnostic(session, event);
        }
    }
}

impl std::fmt::Debug for TracerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() {
            "TracerHandle(on)"
        } else {
            "TracerHandle(off)"
        })
    }
}

impl PartialEq for TracerHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            // Identity comparison on the data pointer only (not the vtable),
            // so the comparison is stable across codegen units.
            (Some(a), Some(b)) => {
                std::ptr::eq(Arc::as_ptr(a) as *const (), Arc::as_ptr(b) as *const ())
            }
            _ => false,
        }
    }
}

impl Eq for TracerHandle {}

/// Which event classes a [`JournalSink`] serializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JournalMode {
    /// Deterministic events only — the journal bytes are a pure function of
    /// the evaluated content (the default).
    #[default]
    Deterministic,
    /// Deterministic **and** volatile events — a diagnostics trace whose bytes
    /// depend on interleaving and cache temperature.
    Full,
}

/// Sink tuning: shard count, per-shard buffer capacity, and event-class mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSpec {
    /// Bounded buffers the sink shards records across (by `session % shards`).
    pub shards: usize,
    /// Records a shard buffer holds before overflow spills centrally.
    pub shard_capacity: usize,
    /// Which event classes are serialized.
    pub mode: JournalMode,
}

impl Default for JournalSpec {
    fn default() -> Self {
        Self {
            shards: 8,
            shard_capacity: 1024,
            mode: JournalMode::Deterministic,
        }
    }
}

impl JournalSpec {
    /// Returns the spec with the mode replaced.
    pub fn with_mode(mut self, mode: JournalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns the spec with the per-shard buffer capacity replaced.
    pub fn with_shard_capacity(mut self, shard_capacity: usize) -> Self {
        self.shard_capacity = shard_capacity;
        self
    }

    fn normalized(mut self) -> Self {
        self.shards = self.shards.max(1);
        self.shard_capacity = self.shard_capacity.max(1);
        self
    }
}

/// Counter snapshot of a [`JournalSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCounters {
    /// Deterministic events recorded.
    pub recorded: u64,
    /// Volatile events recorded (only nonzero in [`JournalMode::Full`]).
    pub diagnostics: u64,
    /// Volatile events observed but not serialized (deterministic mode).
    pub suppressed: u64,
    /// Records that overflowed a shard buffer into the central spill.
    pub spilled: u64,
    /// Records currently buffered (shards + spill); zero after a drain.
    pub buffered: usize,
}

/// The in-memory event sink: sharded bounded buffers plus an overflow spill.
///
/// Implements [`Tracer`]; install it on configs via
/// `TracerHandle::new(sink.clone())`.  See the module docs for the buffering
/// and drain contract.
pub struct JournalSink {
    spec: JournalSpec,
    shards: Vec<Mutex<Vec<JournalRecord>>>,
    spill: Mutex<Vec<JournalRecord>>,
    diag_seq: AtomicU32,
    recorded: AtomicU64,
    diagnostics: AtomicU64,
    suppressed: AtomicU64,
    spilled: AtomicU64,
}

impl JournalSink {
    /// Builds a sink with the given spec.
    pub fn new(spec: JournalSpec) -> Self {
        let spec = spec.normalized();
        Self {
            shards: (0..spec.shards)
                .map(|_| Mutex::new(Vec::with_capacity(spec.shard_capacity.min(64))))
                .collect(),
            spill: Mutex::new(Vec::new()),
            diag_seq: AtomicU32::new(0),
            recorded: AtomicU64::new(0),
            diagnostics: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            spec,
        }
    }

    /// A shared sink with the default spec, ready to wrap in a handle.
    pub fn shared(spec: JournalSpec) -> Arc<Self> {
        Arc::new(Self::new(spec))
    }

    /// A [`TracerHandle`] pointing at this sink.
    pub fn handle(self: &Arc<Self>) -> TracerHandle {
        TracerHandle::new(Arc::clone(self) as Arc<dyn Tracer>)
    }

    fn push(&self, record: JournalRecord) {
        let shard = (record.session % self.shards.len() as u64) as usize;
        let mut buffer = lock_recover(&self.shards[shard]);
        if buffer.len() < self.spec.shard_capacity {
            buffer.push(record);
        } else {
            drop(buffer);
            // Never drop an event: a full shard spills centrally and the spill
            // is merely counted (the drain re-sorts everything anyway).
            self.spilled.fetch_add(1, Ordering::Relaxed);
            lock_recover(&self.spill).push(record);
        }
    }

    /// Takes every buffered record, sorted by `(session, seq, rendered bytes)`
    /// — the canonical order the JSONL serialization uses.
    pub fn drain_sorted(&self) -> Vec<JournalRecord> {
        let mut records = Vec::new();
        for shard in &self.shards {
            records.append(&mut lock_recover(shard));
        }
        records.append(&mut lock_recover(&self.spill));
        records.sort_by_cached_key(|record| (record.session, record.seq, record.render()));
        records
    }

    /// Snapshot of the sink's counters.
    pub fn counters(&self) -> JournalCounters {
        let buffered = self
            .shards
            .iter()
            .map(|shard| lock_recover(shard).len())
            .sum::<usize>()
            + lock_recover(&self.spill).len();
        JournalCounters {
            recorded: self.recorded.load(Ordering::Relaxed),
            diagnostics: self.diagnostics.load(Ordering::Relaxed),
            suppressed: self.suppressed.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            buffered,
        }
    }
}

impl Tracer for JournalSink {
    fn event(&self, session: u64, seq: u32, event: JournalEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.push(JournalRecord::new(session, seq, event));
    }

    fn diagnostic(&self, session: u64, event: JournalEvent) {
        if self.spec.mode == JournalMode::Full {
            self.diagnostics.fetch_add(1, Ordering::Relaxed);
            let seq = self.diag_seq.fetch_add(1, Ordering::Relaxed);
            self.push(JournalRecord::new(session, seq, event));
        } else {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Shared state behind a [`SessionSpan`] and its [`SpanHandle`]s.
///
/// Spans keep **two clocks**: the journaled [`logical_tick`] (derived from the
/// per-span sequence counter — byte-deterministic) and a wall clock started at
/// span open.  The wall clock never enters the journal; it feeds the volatile
/// `session.span.wall` telemetry histogram at terminal emit, so profile data
/// and replayable artifacts come from one instrumentation point without the
/// journal bytes depending on machine speed.
struct SpanCore {
    tracer: TracerHandle,
    session: u64,
    seq: AtomicU32,
    ended: AtomicBool,
    started: Instant,
    wall: Option<Arc<Metric>>,
}

impl SpanCore {
    fn emit(&self, event: JournalEvent) {
        if !self.tracer.is_on() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.tracer.event(self.session, seq, event);
    }

    /// Emits the session's terminal event, exactly once: the first caller —
    /// shed, owner finish, or owner drop — wins the CAS and later attempts
    /// are no-ops.
    fn emit_terminal(&self, outcome: SessionEnd) {
        if self
            .ended
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if let Some(metric) = &self.wall {
                metric.observe_duration(self.started.elapsed());
            }
            self.tracer.event(
                self.session,
                TERMINAL_SEQ,
                JournalEvent::Terminal { outcome },
            );
        }
    }
}

/// The owner side of a session's journal span.
///
/// The case driver owns one per case and calls [`SessionSpan::finish`] once
/// the case is judged.  Dropping an unfinished span journals `Aborted`.
/// Events along the way go through the span itself, which dereferences to
/// its [`SpanHandle`], or through a clone of that handle.
pub struct SessionSpan {
    handle: SpanHandle,
}

impl SessionSpan {
    /// Opens a span for `session` (the request's 64-bit content-hash fold).
    pub fn new(tracer: &TracerHandle, session: u64) -> Self {
        Self::with_telemetry(tracer, &TelemetryHandle::off(), session)
    }

    /// Opens a span that also records its wall-clock lifetime into the
    /// volatile `session.span.wall` telemetry histogram at terminal emit —
    /// the dual-clock form: logical ticks in the journal, wall time in the
    /// registry.
    pub fn with_telemetry(
        tracer: &TracerHandle,
        telemetry: &TelemetryHandle,
        session: u64,
    ) -> Self {
        let core = Arc::new(SpanCore {
            tracer: tracer.clone(),
            session,
            seq: AtomicU32::new(0),
            ended: AtomicBool::new(false),
            started: Instant::now(),
            wall: telemetry.histogram("session.span.wall", MetricClass::Volatile),
        });
        Self {
            handle: SpanHandle { core },
        }
    }

    /// The session id the span journals under.
    pub fn session(&self) -> u64 {
        self.handle.core.session
    }

    /// Wall-clock time since the span opened — the volatile half of the dual
    /// clock.  Never journaled; compare with [`SessionSpan::logical_now`].
    pub fn elapsed(&self) -> Duration {
        self.handle.core.started.elapsed()
    }

    /// The [`logical_tick`] the span's *next* event would journal under — the
    /// deterministic half of the dual clock (a pure function of content and
    /// event count, identical at any driver count).
    pub fn logical_now(&self) -> u64 {
        logical_tick(
            self.handle.core.session,
            self.handle.core.seq.load(Ordering::Relaxed),
        )
    }

    /// A clonable handle for emitting the session's events.
    pub fn handle(&self) -> SpanHandle {
        self.handle.clone()
    }

    /// Journals the `Completed` terminal (exactly once; a terminal already
    /// emitted — e.g. a shed — wins).
    pub fn finish(&self) {
        self.handle.core.emit_terminal(SessionEnd::Completed);
    }
}

/// The owner emits the session's events itself, too.
impl std::ops::Deref for SessionSpan {
    type Target = SpanHandle;

    fn deref(&self) -> &SpanHandle {
        &self.handle
    }
}

impl Drop for SessionSpan {
    fn drop(&mut self) {
        // An owner dropped without `finish` means the session never finished.
        self.handle.core.emit_terminal(SessionEnd::Aborted);
    }
}

/// The event side of a session span; clone freely.
#[derive(Clone)]
pub struct SpanHandle {
    core: Arc<SpanCore>,
}

impl SpanHandle {
    /// Journals a phase transition.
    pub fn phase(&self, phase: SessionPhase) {
        if !self.core.tracer.is_on() {
            return;
        }
        self.core.emit(JournalEvent::Phase {
            phase: phase_name(phase).to_string(),
        });
    }

    /// Journals a content-derived per-phase timing.
    pub fn timing(&self, label: &str, units: u64) {
        if !self.core.tracer.is_on() {
            return;
        }
        self.core.emit(JournalEvent::Timing {
            label: label.to_string(),
            units,
        });
    }

    /// Journals the session's verdict tally.
    pub fn verdict(&self, accepted: u64, rejected: u64) {
        if !self.core.tracer.is_on() {
            return;
        }
        self.core.emit(JournalEvent::Verdict { accepted, rejected });
    }

    /// Journals the `Shed` terminal (exactly once, even if the owner later
    /// finishes the span).
    pub fn shed(&self) {
        self.core.emit_terminal(SessionEnd::Shed);
    }
}

/// Lower-kebab name of a phase, as journaled.
fn phase_name(phase: SessionPhase) -> &'static str {
    match phase {
        SessionPhase::Submitted => "submitted",
        SessionPhase::Sampled => "sampled",
        SessionPhase::Verifying => "verifying",
        SessionPhase::Escalated => "escalated",
        SessionPhase::Done => "done",
    }
}

/// First line of a journal file (mirrors [`crate::persist::SnapshotHeader`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Layout version; see [`JOURNAL_FORMAT_VERSION`].
    pub format_version: u32,
    /// Always [`JOURNAL_KIND`].
    pub kind: String,
    /// Opaque recipe string (the caller's manifest, typically JSON) describing
    /// how to reproduce the run — model tag, corpus tag, protocol knobs.
    /// Deliberately excludes driver/worker counts: they must not change bytes.
    pub manifest: String,
}

impl JournalHeader {
    /// The header a journal with the given manifest is expected to carry.
    pub fn expected(manifest: &str) -> Self {
        Self {
            format_version: JOURNAL_FORMAT_VERSION,
            kind: JOURNAL_KIND.to_string(),
            manifest: manifest.to_string(),
        }
    }

    /// Returns the first reason this header does not match `expected`, if any.
    pub fn mismatch(&self, expected: &Self) -> Option<String> {
        if self.format_version != expected.format_version {
            return Some(format!(
                "format version {} (expected {})",
                self.format_version, expected.format_version
            ));
        }
        if self.kind != expected.kind {
            return Some(format!(
                "kind {:?} (expected {:?})",
                self.kind, expected.kind
            ));
        }
        if self.manifest != expected.manifest {
            return Some("manifest mismatch".to_string());
        }
        None
    }
}

/// Last line of a journal file: event count, opaque payload (e.g. the run's
/// serialized `ModelEvaluation`), and an FNV-1a/64 checksum over every byte
/// that precedes the footer line plus the payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalFooter {
    /// Number of record lines between header and footer.
    pub events: u64,
    /// Opaque payload the journal certifies (may be empty).
    pub payload: String,
    /// Lower-hex FNV-1a/64 of the preceding bytes plus the payload.
    pub fnv: String,
}

/// Renders a complete journal file: header line, one line per record (in the
/// order given — pass [`JournalSink::drain_sorted`] output), footer line.
pub fn render_journal(header: &JournalHeader, records: &[JournalRecord], payload: &str) -> String {
    let mut out = serde_json::to_string(header).expect("journal header serializes");
    out.push('\n');
    for record in records {
        out.push_str(&record.render());
        out.push('\n');
    }
    let mut checksummed = out.clone();
    checksummed.push_str(payload);
    let footer = JournalFooter {
        events: records.len() as u64,
        payload: payload.to_string(),
        fnv: format!("{:016x}", fnv64(checksummed.as_bytes())),
    };
    out.push_str(&serde_json::to_string(&footer).expect("journal footer serializes"));
    out.push('\n');
    out
}

/// A parsed journal file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedJournal {
    /// The versioned header.
    pub header: JournalHeader,
    /// Every record, in file order.
    pub records: Vec<JournalRecord>,
    /// The checksummed footer.
    pub footer: JournalFooter,
}

/// Parses and validates a rendered journal: header shape, per-line records,
/// footer event count and checksum.  Returns a human-readable reason on any
/// corruption.
pub fn parse_journal(text: &str) -> Result<ParsedJournal, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or_else(|| "empty journal".to_string())?;
    let header: JournalHeader =
        serde_json::from_str(header_line).map_err(|err| format!("bad header: {err}"))?;
    if header.kind != JOURNAL_KIND {
        return Err(format!("kind {:?} is not a session journal", header.kind));
    }
    if header.format_version != JOURNAL_FORMAT_VERSION {
        return Err(format!(
            "format version {} (expected {})",
            header.format_version, JOURNAL_FORMAT_VERSION
        ));
    }
    let mut body: Vec<&str> = lines.collect();
    let footer_line = body.pop().ok_or_else(|| "missing footer".to_string())?;
    let footer: JournalFooter =
        serde_json::from_str(footer_line).map_err(|err| format!("bad footer: {err}"))?;
    if footer.events != body.len() as u64 {
        return Err(format!(
            "footer counts {} events, file has {}",
            footer.events,
            body.len()
        ));
    }
    let mut records = Vec::with_capacity(body.len());
    for (idx, line) in body.iter().enumerate() {
        let record: JournalRecord = serde_json::from_str(line)
            .map_err(|err| format!("bad record on line {}: {err}", idx + 2))?;
        records.push(record);
    }
    let prefix_len = text.len() - footer_line.len() - 1;
    let mut checksummed = text[..prefix_len].to_string();
    checksummed.push_str(&footer.payload);
    let fnv = format!("{:016x}", fnv64(checksummed.as_bytes()));
    if fnv != footer.fnv {
        return Err(format!(
            "checksum {fnv} does not match footer {}",
            footer.fnv
        ));
    }
    Ok(ParsedJournal {
        header,
        records,
        footer,
    })
}

/// Writes a rendered journal atomically (temp file + rename, parents created)
/// — the same flush path the cache snapshots use.
pub fn write_journal(path: &Path, rendered: &str) -> std::io::Result<()> {
    persist::write_atomic(path, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> Arc<JournalSink> {
        JournalSink::shared(JournalSpec::default())
    }

    #[test]
    fn logical_ticks_are_monotonic_and_pure() {
        for session in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut last = None;
            for seq in 0..64u32 {
                let tick = logical_tick(session, seq);
                assert_eq!(tick, logical_tick(session, seq), "pure in (session, seq)");
                if let Some(last) = last {
                    assert!(tick > last, "ticks must be strictly monotonic per session");
                }
                last = Some(tick);
            }
        }
    }

    #[test]
    fn off_handle_is_inert_and_comparable() {
        let handle = TracerHandle::off();
        assert!(!handle.is_on());
        handle.event(
            1,
            0,
            JournalEvent::Verdict {
                accepted: 1,
                rejected: 0,
            },
        );
        assert_eq!(handle, TracerHandle::default());
        let sink = sink();
        let on = sink.handle();
        assert_ne!(on, TracerHandle::off());
        assert_eq!(on, on.clone(), "clones compare equal by identity");
        assert_ne!(on, JournalSink::shared(JournalSpec::default()).handle());
    }

    #[test]
    fn span_events_without_a_parent_field_still_parse() {
        // Journals written before `Span.parent` existed omit the field; they
        // must keep parsing as `parent: None` so old replay artifacts stay
        // valid.  This line is the exact shape a pre-PR-10 journal carried.
        let old_line = r#"{"session":7,"seq":0,"tick":1,"event":{"Span":{"name":"task-spawn"}}}"#;
        let record: JournalRecord = serde_json::from_str(old_line).expect("old span line parses");
        assert_eq!(
            record.event,
            JournalEvent::Span {
                name: "task-spawn".to_string(),
                parent: None,
            }
        );
        // And the new shape round-trips with linkage intact.
        let linked = JournalRecord::new(
            7,
            1,
            JournalEvent::Span {
                name: "sample".to_string(),
                parent: Some(0xABCD),
            },
        );
        let reparsed: JournalRecord =
            serde_json::from_str(&linked.render()).expect("new span line parses");
        assert_eq!(reparsed, linked);
    }

    #[test]
    fn deterministic_events_survive_overflow_and_sort_canonically() {
        let sink = JournalSink::shared(JournalSpec {
            shards: 2,
            shard_capacity: 4,
            mode: JournalMode::Deterministic,
        });
        // 64 events over 4 sessions, emitted in a scrambled order and far past
        // the shard capacity: nothing may be dropped.
        for seq in (0..16u32).rev() {
            for session in [3u64, 1, 2, 0] {
                sink.event(
                    session,
                    seq,
                    JournalEvent::Timing {
                        label: "t".to_string(),
                        units: u64::from(seq),
                    },
                );
            }
        }
        let counters = sink.counters();
        assert_eq!(counters.recorded, 64);
        assert!(counters.spilled > 0, "tiny buffers must have spilled");
        assert_eq!(counters.buffered, 64, "spill keeps every record");
        let records = sink.drain_sorted();
        assert_eq!(records.len(), 64);
        let keys: Vec<(u64, u32)> = records.iter().map(|r| (r.session, r.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "drain must sort by (session, seq)");
        assert_eq!(sink.counters().buffered, 0, "drain empties every buffer");
    }

    #[test]
    fn volatile_events_are_suppressed_unless_full_mode() {
        let deterministic = sink();
        deterministic.diagnostic(
            7,
            JournalEvent::Cache {
                pool: "repair".to_string(),
                hit: true,
                warm: false,
            },
        );
        let counters = deterministic.counters();
        assert_eq!(counters.suppressed, 1);
        assert_eq!(counters.buffered, 0);

        let full = JournalSink::shared(JournalSpec::default().with_mode(JournalMode::Full));
        full.diagnostic(
            7,
            JournalEvent::Cache {
                pool: "repair".to_string(),
                hit: true,
                warm: false,
            },
        );
        assert_eq!(full.counters().diagnostics, 1);
        assert_eq!(full.drain_sorted().len(), 1);
    }

    #[test]
    fn span_emits_exactly_one_terminal_through_every_exit() {
        // finish(Completed) then drop: one Completed terminal.
        let sink = sink();
        {
            let span = SessionSpan::new(&sink.handle(), 11);
            span.handle().phase(SessionPhase::Submitted);
            span.finish();
            span.finish();
        }
        let records = sink.drain_sorted();
        let terminals: Vec<&JournalRecord> = records
            .iter()
            .filter(|r| matches!(r.event, JournalEvent::Terminal { .. }))
            .collect();
        assert_eq!(terminals.len(), 1);
        assert_eq!(terminals[0].seq, TERMINAL_SEQ);
        assert_eq!(
            terminals[0].event,
            JournalEvent::Terminal {
                outcome: SessionEnd::Completed
            }
        );

        // Drop without finish: Aborted.
        let sink2 = sink.clone();
        drop(SessionSpan::new(&sink2.handle(), 12));
        let records = sink2.drain_sorted();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].event,
            JournalEvent::Terminal {
                outcome: SessionEnd::Aborted
            }
        );

        // A shed wins over a later owner finish.
        let span = SessionSpan::new(&sink2.handle(), 13);
        span.handle().shed();
        span.finish();
        drop(span);
        let records = sink2.drain_sorted();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].event,
            JournalEvent::Terminal {
                outcome: SessionEnd::Shed
            }
        );
    }

    #[test]
    fn dual_clock_span_keeps_wall_time_out_of_the_journal() {
        use crate::telemetry::MetricsRegistry;
        let sink = sink();
        let telemetry = TelemetryHandle::new(std::sync::Arc::new(MetricsRegistry::default()));

        // Render the same event sequence through a plain span and a dual-clock
        // span: the journal bytes must be identical — wall time lives only in
        // the registry.
        let plain = SessionSpan::new(&sink.handle(), 21);
        plain.handle().phase(SessionPhase::Submitted);
        plain.finish();
        let plain_records = sink.drain_sorted();

        let dual = SessionSpan::with_telemetry(&sink.handle(), &telemetry, 21);
        assert!(dual.elapsed() >= Duration::ZERO);
        let before = dual.logical_now();
        dual.handle().phase(SessionPhase::Submitted);
        assert!(
            dual.logical_now() > before,
            "logical clock advances with events"
        );
        dual.finish();
        let dual_records = sink.drain_sorted();

        let render = |records: &[JournalRecord]| {
            records
                .iter()
                .map(JournalRecord::render)
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&plain_records), render(&dual_records));

        // The wall clock landed in telemetry instead.
        let wall = telemetry
            .snapshot()
            .get("session.span.wall")
            .cloned()
            .expect("dual-clock span records session.span.wall");
        assert_eq!(wall.count, 1);
    }

    #[test]
    fn render_parse_roundtrip_validates_checksum() {
        let sink = sink();
        let span = SessionSpan::new(&sink.handle(), 42);
        span.handle().phase(SessionPhase::Submitted);
        span.handle().timing("candidates", 8);
        span.handle().verdict(3, 5);
        span.finish();
        let header = JournalHeader::expected("{\"recipe\":\"test\"}");
        let rendered = render_journal(&header, &sink.drain_sorted(), "payload bytes");
        let parsed = parse_journal(&rendered).expect("roundtrip parses");
        assert_eq!(parsed.header, header);
        assert_eq!(parsed.records.len(), 4);
        assert_eq!(parsed.footer.events, 4);
        assert_eq!(parsed.footer.payload, "payload bytes");
        assert_eq!(
            rendered,
            render_journal(&header, &parsed.records, "payload bytes")
        );

        // Corruption in a record line must fail the checksum (or the parse).
        let tampered = rendered.replace("\"units\":8", "\"units\":9");
        assert!(parse_journal(&tampered).is_err());
        assert!(header
            .mismatch(&JournalHeader::expected("{\"recipe\":\"other\"}"))
            .is_some());
    }
}
