//! Structured session journal: typed events, one record set per judged case,
//! and a byte-deterministic JSONL artifact.
//!
//! Counters ([`crate::ServiceMetrics`] and friends) say *how much* happened;
//! they cannot say which phase a session reached or how its verdicts fell.
//! This module records that story as a stream of typed [`JournalEvent`]s keyed
//! by **session id** (the 64-bit fold of the request's content hash) so the
//! journal of an evaluation is a pure function of its inputs — the same
//! determinism contract the caches and the verdict pool already honour.
//!
//! ## What is journaled
//!
//! Every journaled event is **deterministic**: session phases, verdict
//! tallies, logical timings and terminal outcomes depend only on content.  A
//! case's events are a pure function of three counts — samples drawn,
//! distinct candidates, samples judged correct — and [`TracerHandle::case`]
//! journals all of them at once when the case is judged.  Events that depend
//! on interleaving or cache temperature (admits, sheds, cache lookups,
//! panics) are not journaled at all: the pool metrics count them, so a warm
//! run and a cold run render the same journal bytes.
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
//! [`JournalSink`] appends records to one buffer (lock held only for the
//! append); nothing is ever dropped.  [`JournalSink::drain_sorted`] takes every
//! buffered record and sorts by `(session, seq, serialized bytes)`, which is
//! what makes the rendered JSONL independent of arrival interleaving.
//! [`render_journal`] then writes the versioned header (mirroring
//! [`crate::persist::SnapshotHeader`]), one record per line, and a checksummed
//! footer carrying an opaque payload — the same atomic-write flush path the
//! cache snapshots use.

use crate::persist::{self, fnv64};
use crate::service::splitmix64;
use crate::sync::lock_recover;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// How a session ended; exactly one terminal event is journaled per session.
///
/// Only `Completed` is produced; the others stay so journals recorded when
/// something produced them still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEnd {
    /// The session ran to completion.
    Completed,
    /// A per-session deadline expired before the session completed.
    TimedOut,
    /// The session was dropped unfinished.
    Aborted,
    /// The session panicked — a crash, distinct from an abort.
    Panicked,
    /// Admission control refused the session's submission (`SubmitError::Busy`).
    Shed,
}

/// One typed journal event; every variant is deterministic (see the module
/// docs).
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
    /// One rung attempt on the escalation ladder (deterministic).  Nothing
    /// produces it any more; it stays so older journals still parse.
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

/// A cheaply clonable, optional handle on a [`JournalSink`] — the form an
/// evaluation carries.
///
/// The default handle is **off**: every emit is one `Option` branch and
/// nothing else, which is what keeps journaling free on untraced hot paths.
#[derive(Clone, Default)]
pub struct TracerHandle(Option<Arc<JournalSink>>);

impl TracerHandle {
    /// The disabled handle (also what `Default` returns).
    pub fn off() -> Self {
        Self(None)
    }

    /// Whether a sink is installed — the one branch instrumented code pays.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Journals one judged case under `session`: `samples` drawn, `candidates`
    /// distinct among them, `correct` judged correct.  The eight deterministic
    /// records go to the sink in one append — the phases `submitted`,
    /// `sampled`, `verifying` and `done` with the two timings and the verdict
    /// tally between them (seq 0..=6), then the `Completed` terminal.
    pub fn case(&self, session: u64, samples: u64, candidates: u64, correct: u64) {
        let Some(sink) = &self.0 else {
            return;
        };
        let phase = |phase: &str| JournalEvent::Phase {
            phase: phase.to_string(),
        };
        let timing = |label: &str, units| JournalEvent::Timing {
            label: label.to_string(),
            units,
        };
        let rejected = samples.saturating_sub(correct);
        let events = [
            phase("submitted"),
            phase("sampled"),
            timing("samples", samples),
            phase("verifying"),
            timing("distinct-candidates", candidates),
            JournalEvent::Verdict {
                accepted: correct,
                rejected,
            },
            phase("done"),
        ];
        let terminal = JournalEvent::Terminal {
            outcome: SessionEnd::Completed,
        };
        let seqs = (0..).take(events.len()).chain([TERMINAL_SEQ]);
        let records = seqs.zip(events.into_iter().chain([terminal]));
        sink.record(records.map(|(seq, event)| JournalRecord::new(session, seq, event)));
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

/// Counter snapshot of a [`JournalSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCounters {
    /// Events recorded.
    pub recorded: u64,
    /// Records currently buffered; zero after a drain.
    pub buffered: usize,
}

/// The in-memory event sink: one append-only buffer, drained sorted.
///
/// Install it on configs via [`JournalSink::handle`].  See the module docs for
/// the buffering and drain contract.
#[derive(Default)]
pub struct JournalSink {
    records: Mutex<Vec<JournalRecord>>,
    recorded: AtomicU64,
}

impl JournalSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared empty sink, ready to wrap in a handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// A [`TracerHandle`] pointing at this sink.
    pub fn handle(self: &Arc<Self>) -> TracerHandle {
        TracerHandle(Some(Arc::clone(self)))
    }

    /// Appends records in one lock acquisition.
    fn record(&self, records: impl IntoIterator<Item = JournalRecord>) {
        let mut buffer = lock_recover(&self.records);
        let before = buffer.len();
        buffer.extend(records);
        let added = buffer.len() - before;
        self.recorded.fetch_add(added as u64, Ordering::Relaxed);
    }

    /// Takes every buffered record, sorted by `(session, seq, rendered bytes)`
    /// — the canonical order the JSONL serialization uses.
    pub fn drain_sorted(&self) -> Vec<JournalRecord> {
        let mut records = std::mem::take(&mut *lock_recover(&self.records));
        records.sort_by_cached_key(|record| (record.session, record.seq, record.render()));
        records
    }

    /// Snapshot of the sink's counters.
    pub fn counters(&self) -> JournalCounters {
        JournalCounters {
            recorded: self.recorded.load(Ordering::Relaxed),
            buffered: lock_recover(&self.records).len(),
        }
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
        JournalSink::shared()
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
    fn off_handle_is_inert() {
        let handle = TracerHandle::off();
        assert!(!handle.is_on());
        assert!(!TracerHandle::default().is_on());
        handle.case(1, 8, 3, 1);
        assert!(sink().handle().is_on());
    }

    #[test]
    fn deterministic_events_survive_overflow_and_sort_canonically() {
        let sink = sink();
        // 64 events over 4 sessions, appended in a scrambled order: nothing
        // may be dropped, and the drain restores the canonical order.
        for seq in (0..16u32).rev() {
            sink.record([3u64, 1, 2, 0].map(|session| {
                let units = u64::from(seq);
                let label = "t".to_string();
                JournalRecord::new(session, seq, JournalEvent::Timing { label, units })
            }));
        }
        let counters = sink.counters();
        assert_eq!(counters.recorded, 64);
        assert_eq!(counters.buffered, 64, "the buffer keeps every record");
        let records = sink.drain_sorted();
        assert_eq!(records.len(), 64);
        let keys: Vec<(u64, u32)> = records.iter().map(|r| (r.session, r.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "drain must sort by (session, seq)");
        assert_eq!(sink.counters().buffered, 0, "drain empties the buffer");
    }

    #[test]
    fn a_journaled_case_is_eight_records_ending_in_one_completed_terminal() {
        let sink = sink();
        sink.handle().case(11, 8, 5, 3);
        let records = sink.drain_sorted();
        let seqs: Vec<u32> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5, 6, TERMINAL_SEQ]);
        assert!(records.iter().all(|r| r.session == 11));
        assert!(records.iter().all(|r| r.tick == logical_tick(11, r.seq)));
        let phase = |phase: &str| JournalEvent::Phase {
            phase: phase.to_string(),
        };
        let timing = |label: &str, units| JournalEvent::Timing {
            label: label.to_string(),
            units,
        };
        let events: Vec<JournalEvent> = records.into_iter().map(|r| r.event).collect();
        assert_eq!(
            events,
            [
                phase("submitted"),
                phase("sampled"),
                timing("samples", 8),
                phase("verifying"),
                timing("distinct-candidates", 5),
                JournalEvent::Verdict {
                    accepted: 3,
                    rejected: 5
                },
                phase("done"),
                JournalEvent::Terminal {
                    outcome: SessionEnd::Completed
                },
            ]
        );
        assert_eq!(sink.counters().recorded, 8);

        // The off handle records nothing.
        TracerHandle::off().case(12, 8, 5, 3);
        assert!(sink.drain_sorted().is_empty());
    }

    #[test]
    fn render_parse_roundtrip_validates_checksum() {
        let sink = sink();
        sink.handle().case(42, 8, 6, 3);
        let header = JournalHeader::expected("{\"recipe\":\"test\"}");
        let rendered = render_journal(&header, &sink.drain_sorted(), "payload bytes");
        let parsed = parse_journal(&rendered).expect("roundtrip parses");
        assert_eq!(parsed.header, header);
        assert_eq!(parsed.records.len(), 8);
        assert_eq!(parsed.footer.events, 8);
        assert_eq!(parsed.footer.payload, "payload bytes");
        assert_eq!(
            rendered,
            render_journal(&header, &parsed.records, "payload bytes")
        );

        // Corruption in a record line must fail the checksum (or the parse).
        let tampered = rendered.replace("\"units\":8", "\"units\":9");
        assert_ne!(tampered, rendered);
        assert!(parse_journal(&tampered).is_err());
        assert!(header
            .mismatch(&JournalHeader::expected("{\"recipe\":\"other\"}"))
            .is_some());
    }
}
