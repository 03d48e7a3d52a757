//! Session journal: one record per judged case, rendered as a
//! byte-deterministic JSONL artifact.
//!
//! Counters ([`crate::ServiceMetrics`] and friends) say *how much* happened;
//! the journal says how each case's verdicts fell.  A case is scored by three
//! counts — samples drawn, distinct candidates among them, samples judged
//! correct — so its [`JournalRecord`] is exactly those counts keyed by
//! **session id** (the 64-bit fold of the request's content hash).  The case
//! driver returns that record beside the case's result, so the journal of an
//! evaluation is a pure function of its inputs — the same determinism
//! contract the caches honour.  What depends on interleaving or cache
//! temperature (cache lookups, panics) is not journaled: the memo metrics
//! count it, so a warm run and a cold run render the same journal bytes.
//!
//! The evaluation sorts its records by their derived order, which is what
//! makes the rendered JSONL independent of which driver judged which case;
//! [`render_journal`] then writes the versioned header (mirroring
//! [`crate::persist::SnapshotHeader`]), one record per line, and a
//! checksummed footer carrying an opaque payload — the same atomic-write
//! flush path the cache snapshots use.

use crate::persist::{self, fnv64};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Journal file layout version (bumped on any incompatible change).
pub(crate) const JOURNAL_FORMAT_VERSION: u32 = 2;

/// Header kind tag for session-journal files.
pub(crate) const JOURNAL_KIND: &str = "session-journal";

/// One judged case: the counts its pass@k contribution is computed from.
///
/// The derived order (session first) is the journal's canonical line order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Session id (64-bit fold of the request content hash).
    pub session: u64,
    /// Samples drawn (`n`).
    pub samples: u64,
    /// Distinct candidates among the samples.
    pub candidates: u64,
    /// Samples judged correct (`c`).
    pub correct: u64,
}

/// Ignored: a case driver returns its journal record.  The benchmark
/// harness still passes `TracerHandle::off()` to
/// `assertsolver::evaluate_model_observed`; it goes with the next change to
/// the harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracerHandle;

impl TracerHandle {
    /// The placeholder.
    pub fn off() -> Self {
        Self
    }
}

/// First line of a journal file (mirrors [`crate::persist::SnapshotHeader`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Layout version (`JOURNAL_FORMAT_VERSION`).
    pub format_version: u32,
    /// Always `JOURNAL_KIND` (`"session-journal"`).
    pub kind: String,
    /// Opaque recipe string (the caller's manifest, typically JSON) describing
    /// how to reproduce the run — model tag, corpus tag, protocol knobs.
    /// Deliberately excludes the driver count: it must not change bytes.
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
}

/// Last line of a journal file: record count, opaque payload (e.g. the run's
/// serialized `ModelEvaluation`), and an FNV-1a/64 checksum over every byte
/// that precedes the footer line plus the payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalFooter {
    /// Number of record lines between header and footer.
    pub events: u64,
    /// Opaque payload the journal certifies (may be empty).
    pub payload: String,
    /// Lower-hex FNV-1a/64 of the preceding bytes plus the payload.
    pub(crate) fnv: String,
}

/// Renders a complete journal file: header line, one line per record (in the
/// order given — pass them sorted), footer line.
pub fn render_journal(header: &JournalHeader, records: &[JournalRecord], payload: &str) -> String {
    let mut out = serde_json::to_string(header).expect("journal header serializes");
    out.push('\n');
    for record in records {
        out.push_str(&serde_json::to_string(record).expect("journal record serializes"));
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
            "footer counts {} records, file has {}",
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

    #[test]
    fn a_journaled_case_is_one_record_of_its_counts() {
        let record = JournalRecord {
            session: 11,
            samples: 8,
            candidates: 5,
            correct: 3,
        };
        assert_eq!(
            serde_json::to_string(&record).unwrap(),
            r#"{"session":11,"samples":8,"candidates":5,"correct":3}"#
        );
    }

    #[test]
    fn render_parse_roundtrip_validates_checksum() {
        let records = [JournalRecord {
            session: 42,
            samples: 8,
            candidates: 6,
            correct: 3,
        }];
        let header = JournalHeader::expected("{\"recipe\":\"test\"}");
        let rendered = render_journal(&header, &records, "payload bytes");
        let parsed = parse_journal(&rendered).expect("roundtrip parses");
        assert_eq!(parsed.header, header);
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.footer.events, 1);
        assert_eq!(parsed.footer.payload, "payload bytes");
        assert_eq!(
            rendered,
            render_journal(&header, &parsed.records, "payload bytes")
        );

        // Corruption in a record line must fail the checksum (or the parse).
        let tampered = rendered.replace("\"samples\":8", "\"samples\":9");
        assert_ne!(tampered, rendered);
        assert!(parse_journal(&tampered).is_err());

        // A journal of another layout version is refused before its records.
        let old = rendered.replace("\"format_version\":2", "\"format_version\":1");
        assert_eq!(
            parse_journal(&old).unwrap_err(),
            "format version 1 (expected 2)"
        );
    }
}
