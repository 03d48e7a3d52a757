//! Versioned on-disk snapshots for the response and verdict caches.
//!
//! Both pool caches are pure content-addressed maps — responses are a deterministic
//! function of `(case, samples, temperature, model, seed)` and verdicts of
//! `(case, response, CheckConfig)` — so their contents can be spilled to disk and
//! reloaded by a later process without changing any result.  This module is the
//! "cache persistence & warmup" layer: repeated benchmark runs against the same
//! [`CACHE_DIR_ENV`] directory skip already-resolved cases entirely.
//!
//! ## Snapshot format
//!
//! A snapshot is a single JSON document (vendored `serde_json`) with two parts:
//!
//! * a [`SnapshotHeader`] carrying the format version, the cache kind
//!   ([`RESPONSE_KIND`] or [`VERDICT_KIND`]), a hex fingerprint of the
//!   configuration the cached values depend on (service seed for responses,
//!   `svverify::CheckConfig::fingerprint()` for verdicts), and the model identity;
//! * the entries, each pairing a hex-encoded 128-bit content key with its cached
//!   value, sorted by key so `snapshot → load → snapshot` is byte-stable.
//!
//! ## Invalidation rules
//!
//! Loading **never** fails the service: every problem degrades to a cold start.
//! A snapshot is rejected (and counted in the pool's `snapshot_rejects` metric)
//! when any of the following mismatch the expectations of the loading pool:
//!
//! | check | guards against |
//! |---|---|
//! | file parses as JSON | corruption, truncated writes, nesting past the parser's cap |
//! | `format_version` | old processes reading a future layout |
//! | `kind` | pointing a verdict pool at a response snapshot |
//! | `fingerprint` | stale seeds / changed bounded-check parameters |
//! | `model` | responses sampled by a different model |
//! | every key decodes as 128-bit hex | hand-edited or garbled entries |
//!
//! ## Atomicity
//!
//! [`write_atomic`] writes to a process-unique temporary file in the target
//! directory and renames it into place, so readers only ever observe either the
//! previous snapshot or the complete new one — never a torn write.  A crashed
//! writer leaves at worst a stale `.tmp` file behind, which later writers ignore.

use crate::cache::{CaseKey, ContentKey, VerdictKey};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use svmodel::Response;

/// Version stamp written into every snapshot; bump on any layout change so older
/// binaries invalidate newer snapshots (and vice versa) instead of misreading them.
/// Version 2 added the header generation counter and per-entry `gen` stamps that
/// drive age-based compaction.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// Default [`PersistSpec::compact_after`] used by `assertsolver::EvalConfig`:
/// a snapshot entry survives this many consecutive runs without a warm hit
/// before a flush drops it.  Generous on purpose — compaction is a disk-hygiene
/// mechanism, not an eviction policy (the in-memory LRU handles pressure).
pub const DEFAULT_COMPACT_AFTER_RUNS: u64 = 16;

/// Snapshot kind tag for response-cache files (repair pool).
pub const RESPONSE_KIND: &str = "response-cache";

/// Snapshot kind tag for verdict-cache files (verify pool).
pub const VERDICT_KIND: &str = "verdict-cache";

/// Environment variable naming the cache directory `assertsolver::EvalConfig`
/// persists to; when set, `evaluate_model` runs warm across process invocations.
pub const CACHE_DIR_ENV: &str = "ASSERTSOLVER_CACHE_DIR";

/// Reads the cache-directory override from the environment, if set and non-empty.
pub fn env_cache_dir() -> Option<PathBuf> {
    std::env::var(CACHE_DIR_ENV)
        .ok()
        .map(|raw| raw.trim().to_string())
        .filter(|raw| !raw.is_empty())
        .map(PathBuf::from)
}

/// Where and under what identity a pool persists its cache.
///
/// The fingerprint and model are folded into the [`SnapshotHeader`]; a pool loading
/// a snapshot whose header disagrees with its own spec falls back to a cold start.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistSpec {
    /// Snapshot file path (parent directories are created on save).
    pub path: PathBuf,
    /// Raw bytes of the configuration the cached values depend on (service seed
    /// for responses, `CheckConfig::fingerprint()` for verdicts).
    pub fingerprint: Vec<u8>,
    /// Identity of the model the cached values were computed with; verdict
    /// snapshots, being model-agnostic, conventionally use `"-"`.
    pub model: String,
    /// Age-based compaction window, in runs (snapshot generations).  At flush
    /// time a pool drops every entry that has not been warm-hit (or recomputed)
    /// for more than this many generations, counting the dropped entries in the
    /// `snapshot_compacted_entries` metric.  `0` disables compaction (the
    /// default): every loaded entry is carried forward forever.
    pub compact_after: u64,
}

impl PersistSpec {
    /// Convenience constructor (compaction disabled).
    pub fn new(path: impl Into<PathBuf>, fingerprint: &[u8], model: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            fingerprint: fingerprint.to_vec(),
            model: model.into(),
            compact_after: 0,
        }
    }

    /// Returns the spec with age-based compaction enabled: entries not
    /// warm-hit for more than `runs` snapshot generations are dropped at flush.
    pub fn with_compaction(mut self, runs: u64) -> Self {
        self.compact_after = runs;
        self
    }
}

/// The identity block at the top of every snapshot file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Layout version; see [`SNAPSHOT_FORMAT_VERSION`].
    pub format_version: u32,
    /// Cache kind: [`RESPONSE_KIND`] or [`VERDICT_KIND`].
    pub kind: String,
    /// Lower-hex encoding of the configuration fingerprint bytes.
    pub fingerprint: String,
    /// Model identity the cached values were computed with.
    pub model: String,
    /// Monotonic run counter: each flush writes `loaded generation + 1`.
    /// Entries carry the generation they were last useful in, and age-based
    /// compaction drops entries more than [`PersistSpec::compact_after`] runs
    /// behind.  Informational for identity purposes — [`SnapshotHeader::mismatch`]
    /// deliberately ignores it, since two valid snapshots of one cache differ
    /// only by generation.
    pub generation: u64,
}

impl SnapshotHeader {
    /// The header a pool with the given spec expects (and writes).
    ///
    /// `generation` starts at 0 here; writers override it with the actual run
    /// counter, and readers ignore it when matching.
    pub fn expected(kind: &str, spec: &PersistSpec) -> Self {
        Self {
            format_version: SNAPSHOT_FORMAT_VERSION,
            kind: kind.to_string(),
            fingerprint: hex(&spec.fingerprint),
            model: spec.model.clone(),
            generation: 0,
        }
    }

    /// Returns the first reason this header does not match `expected`, if any.
    /// The [`SnapshotHeader::generation`] counter is not an identity field and
    /// is never compared.
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
        if self.fingerprint != expected.fingerprint {
            return Some("configuration fingerprint mismatch".to_string());
        }
        if self.model != expected.model {
            return Some(format!(
                "model {:?} (expected {:?})",
                self.model, expected.model
            ));
        }
        None
    }
}

/// FNV-1a/64 of arbitrary bytes.
///
/// The shared short-hash helper for snapshot-adjacent naming and identity (e.g.
/// collision-proof snapshot file names, protocol-keyed reference files) so call
/// sites don't each hand-roll the constants.  Not a cache key — the caches use
/// the 128-bit variant in [`crate::cache`].
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Lower-hex encoding of arbitrary bytes (used for header fingerprints).
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// Encodes a 128-bit content key as fixed-width lower hex.
pub fn encode_key(raw: u128) -> String {
    format!("{raw:032x}")
}

/// Decodes a key written by [`encode_key`]; `None` on any malformed input.
///
/// Only the canonical form is accepted — exactly 32 lower-hex digits — so
/// non-canonical spellings `from_str_radix` would tolerate (a leading `+`,
/// uppercase digits) are rejected, keeping load → save byte-stable.
pub fn decode_key(text: &str) -> Option<u128> {
    if text.len() != 32
        || !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(text, 16).ok()
}

/// One persisted response-cache entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEntry {
    /// Hex-encoded [`CaseKey`].
    pub key: String,
    /// Snapshot generation this entry was last useful in (warm-hit or computed);
    /// see [`SnapshotHeader::generation`].
    pub gen: u64,
    /// The cached response set, in sampling order.
    pub responses: Vec<Response>,
}

/// On-disk form of a repair pool's response cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseSnapshot {
    /// Identity block; checked before any entry is loaded.
    pub header: SnapshotHeader,
    /// Entries sorted by key.
    pub entries: Vec<ResponseEntry>,
}

/// One persisted verdict-cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictEntry {
    /// Hex-encoded [`VerdictKey`].
    pub key: String,
    /// Snapshot generation this entry was last useful in (warm-hit or computed);
    /// see [`SnapshotHeader::generation`].
    pub gen: u64,
    /// The cached verdict.
    pub verdict: bool,
}

/// On-disk form of a verify pool's verdict cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictSnapshot {
    /// Identity block; checked before any entry is loaded.
    pub header: SnapshotHeader,
    /// Entries sorted by key.
    pub entries: Vec<VerdictEntry>,
}

/// Outcome of attempting to load a snapshot.
///
/// `Missing` and `Rejected` both mean "cold start" — the distinction only matters
/// for metrics (`snapshot_rejects`) and diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotLoad<T> {
    /// The snapshot matched and its entries were decoded.
    Loaded(T),
    /// No snapshot file exists yet (the normal first-run case).
    Missing,
    /// A file exists but is corrupt, truncated, or carries a mismatched header;
    /// the string says why.  The pool starts cold.
    Rejected(String),
}

/// A successfully loaded snapshot: the run counter plus the aged entries
/// (`(key, value, last_useful_generation)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotContents<K, V> {
    /// The snapshot's [`SnapshotHeader::generation`].
    pub generation: u64,
    /// Entries with the generation each was last useful in.
    pub entries: Vec<(K, V, u64)>,
}

/// What [`load_response_snapshot`] yields: response sets by [`CaseKey`].
pub type ResponseLoad = SnapshotContents<CaseKey, Arc<Vec<Response>>>;

/// What [`load_verdict_snapshot`] yields: verdicts by [`VerdictKey`].
pub type VerdictLoad = SnapshotContents<VerdictKey, bool>;

/// One concrete on-disk snapshot type, as the generic codec ([`load_snapshot`] /
/// [`save_snapshot_aged`]) sees it: a kind tag plus the mapping between the
/// file's entries and `(key, value, generation)` triples.  The vendored
/// `serde_derive` rejects generic types, so the file structs stay concrete and
/// this trait is the seam between them and the one codec.
pub trait SnapshotFile: Serialize + Deserialize {
    /// The [`SnapshotHeader::kind`] tag files of this type carry.
    const KIND: &'static str;
    /// The cache key the entries are addressed by.
    type Key: ContentKey;
    /// The cached value.
    type Value: Clone + Send;

    /// Builds the file from a header and entries already sorted by key.  Keys
    /// cross this trait hex-encoded in both directions: the codec owns
    /// [`encode_key`] / [`decode_key`] and the malformed-key rejection.
    fn pack(header: SnapshotHeader, entries: Vec<(String, Self::Value, u64)>) -> Self;

    /// Splits the file into its header and entries.
    fn unpack(self) -> (SnapshotHeader, Vec<(String, Self::Value, u64)>);
}

impl SnapshotFile for ResponseSnapshot {
    const KIND: &'static str = RESPONSE_KIND;
    type Key = CaseKey;
    type Value = Arc<Vec<Response>>;

    fn pack(header: SnapshotHeader, entries: Vec<(String, Self::Value, u64)>) -> Self {
        let entry = |(key, responses, gen): (String, Self::Value, u64)| ResponseEntry {
            key,
            gen,
            responses: (*responses).clone(),
        };
        Self {
            header,
            entries: entries.into_iter().map(entry).collect(),
        }
    }

    fn unpack(self) -> (SnapshotHeader, Vec<(String, Self::Value, u64)>) {
        let entry = |entry: ResponseEntry| (entry.key, Arc::new(entry.responses), entry.gen);
        (self.header, self.entries.into_iter().map(entry).collect())
    }
}

impl SnapshotFile for VerdictSnapshot {
    const KIND: &'static str = VERDICT_KIND;
    type Key = VerdictKey;
    type Value = bool;

    fn pack(header: SnapshotHeader, entries: Vec<(String, bool, u64)>) -> Self {
        let entry = |(key, verdict, gen)| VerdictEntry { key, gen, verdict };
        Self {
            header,
            entries: entries.into_iter().map(entry).collect(),
        }
    }

    fn unpack(self) -> (SnapshotHeader, Vec<(String, bool, u64)>) {
        let entry = |entry: VerdictEntry| (entry.key, entry.verdict, entry.gen);
        (self.header, self.entries.into_iter().map(entry).collect())
    }
}

/// Loads a snapshot of file type `S`, validating the header against `spec`.
///
/// Every failure mode — missing file, corrupt JSON, version/kind/fingerprint/model
/// mismatch, malformed key — degrades to a cold start; nothing panics or errors.
pub fn load_snapshot<S: SnapshotFile>(
    spec: &PersistSpec,
) -> SnapshotLoad<SnapshotContents<S::Key, S::Value>> {
    let text = match std::fs::read_to_string(&spec.path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return SnapshotLoad::Missing,
        Err(err) => return SnapshotLoad::Rejected(format!("unreadable snapshot: {err}")),
    };
    let (header, encoded) = match serde_json::from_str::<S>(&text) {
        Ok(snapshot) => snapshot.unpack(),
        Err(err) => return SnapshotLoad::Rejected(format!("unparseable snapshot: {err}")),
    };
    if let Some(reason) = header.mismatch(&SnapshotHeader::expected(S::KIND, spec)) {
        return SnapshotLoad::Rejected(reason);
    }
    let mut entries = Vec::with_capacity(encoded.len());
    for (key, value, gen) in encoded {
        let Some(raw) = decode_key(&key) else {
            return SnapshotLoad::Rejected(format!("malformed key {key:?}"));
        };
        entries.push((S::Key::from_raw(raw), value, gen));
    }
    SnapshotLoad::Loaded(SnapshotContents {
        generation: header.generation,
        entries,
    })
}

/// Saves a snapshot of file type `S` atomically under an explicit run counter,
/// with per-entry `last useful` generations; returns the number of entries
/// written.
///
/// Entries are sorted by key before writing, so saving, loading and saving again
/// (at the same generation) produces byte-identical files regardless of cache
/// insertion order or worker count.
pub fn save_snapshot_aged<S: SnapshotFile>(
    spec: &PersistSpec,
    generation: u64,
    mut entries: Vec<(S::Key, S::Value, u64)>,
) -> io::Result<usize> {
    entries.sort_by_key(|(key, ..)| *key);
    let count = entries.len();
    let header = SnapshotHeader {
        generation,
        ..SnapshotHeader::expected(S::KIND, spec)
    };
    let encoded = entries
        .into_iter()
        .map(|(key, value, gen)| (encode_key(key.raw()), value, gen));
    let json = serde_json::to_string(&S::pack(header, encoded.collect()))
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
    write_atomic(&spec.path, &json)?;
    Ok(count)
}

/// Stamps a freshly computed cache with no history — generation 1, every
/// entry current — and saves it.
fn save_snapshot<S: SnapshotFile>(
    spec: &PersistSpec,
    entries: Vec<(S::Key, S::Value)>,
) -> io::Result<usize> {
    let aged = entries.into_iter().map(|(key, value)| (key, value, 1));
    save_snapshot_aged::<S>(spec, 1, aged.collect())
}

/// Loads a response snapshot; see [`load_snapshot`] for the degradation contract.
pub fn load_response_snapshot(spec: &PersistSpec) -> SnapshotLoad<ResponseLoad> {
    load_snapshot::<ResponseSnapshot>(spec)
}

/// Loads a verdict snapshot; see [`load_snapshot`] for the degradation contract.
pub fn load_verdict_snapshot(spec: &PersistSpec) -> SnapshotLoad<VerdictLoad> {
    load_snapshot::<VerdictSnapshot>(spec)
}

/// Saves a response snapshot atomically as generation 1 with every entry
/// current; returns the number of entries written.
pub fn save_response_snapshot(
    spec: &PersistSpec,
    entries: Vec<(CaseKey, Arc<Vec<Response>>)>,
) -> io::Result<usize> {
    save_snapshot::<ResponseSnapshot>(spec, entries)
}

/// Saves a response snapshot; see [`save_snapshot_aged`] for the byte-stability
/// contract.
pub fn save_response_snapshot_aged(
    spec: &PersistSpec,
    generation: u64,
    entries: Vec<(CaseKey, Arc<Vec<Response>>, u64)>,
) -> io::Result<usize> {
    save_snapshot_aged::<ResponseSnapshot>(spec, generation, entries)
}

/// Saves a verdict snapshot atomically as generation 1 with every entry
/// current; returns the number of entries written.
///
/// ```
/// use svserve::persist::{
///     load_verdict_snapshot, save_verdict_snapshot, PersistSpec, SnapshotLoad, VerdictLoad,
/// };
/// use svserve::VerdictKey;
///
/// let dir = std::env::temp_dir().join(format!("svserve-doc-{}", std::process::id()));
/// let spec = PersistSpec::new(dir.join("verdicts.json"), b"check-config", "-");
/// save_verdict_snapshot(&spec, vec![(VerdictKey(7), true), (VerdictKey(3), false)]).unwrap();
/// assert_eq!(
///     load_verdict_snapshot(&spec),
///     SnapshotLoad::Loaded(VerdictLoad {
///         generation: 1,
///         entries: vec![(VerdictKey(3), false, 1), (VerdictKey(7), true, 1)],
///     }),
/// );
/// // A spec with a different fingerprint rejects the file instead of loading it.
/// let stale = PersistSpec::new(spec.path.clone(), b"other-config", "-");
/// assert!(matches!(load_verdict_snapshot(&stale), SnapshotLoad::Rejected(_)));
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub fn save_verdict_snapshot(
    spec: &PersistSpec,
    entries: Vec<(VerdictKey, bool)>,
) -> io::Result<usize> {
    save_snapshot::<VerdictSnapshot>(spec, entries)
}

/// Saves a verdict snapshot; see [`save_snapshot_aged`] for the byte-stability
/// contract.
pub fn save_verdict_snapshot_aged(
    spec: &PersistSpec,
    generation: u64,
    entries: Vec<(VerdictKey, bool, u64)>,
) -> io::Result<usize> {
    save_snapshot_aged::<VerdictSnapshot>(spec, generation, entries)
}

/// Applies the aging + compaction step pools run at flush time.
///
/// `entries` is the aged cache export (`(key, value, last_useful_gen, touched)`);
/// `next_generation` is the counter the new snapshot will be written under.
/// Touched entries (warm-hit or computed this run) are re-stamped to
/// `next_generation`; untouched entries keep their old stamp (clamped to the
/// loaded generation, so a hand-edited future stamp cannot pin an entry
/// forever).  With `compact_after > 0`, entries more than that many generations
/// behind are dropped.  Returns the surviving entries plus the dropped count.
pub fn age_entries<K, V>(
    entries: Vec<(K, V, u64, bool)>,
    loaded_generation: u64,
    next_generation: u64,
    compact_after: u64,
) -> (Vec<(K, V, u64)>, usize) {
    let mut kept = Vec::with_capacity(entries.len());
    let mut compacted = 0usize;
    for (key, value, gen, touched) in entries {
        let gen = if touched {
            next_generation
        } else {
            gen.min(loaded_generation)
        };
        if compact_after > 0 && next_generation.saturating_sub(gen) > compact_after {
            compacted += 1;
        } else {
            kept.push((key, value, gen));
        }
    }
    (kept, compacted)
}

/// Writes `contents` to `path` atomically: temp file in the same directory, then
/// rename.  Creates parent directories as needed.  Readers never observe a torn
/// write because the rename either fully replaces the old file or leaves it alone.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            )
        })?
        .to_string_lossy()
        .into_owned();
    // The temp name is unique per write (pid + global counter) so concurrent
    // writers — including two pools in one process flushing a shared snapshot —
    // cannot clobber each other's half-written file; the final rename still races
    // benignly (last complete snapshot wins).
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}.{seq}", std::process::id()));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        // A failed or partial write (ENOSPC) leaves the temp file behind just as
        // a failed rename does; its name is unique per call, so without this
        // every retried flush would leak another one.
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_spec(tag: &str) -> PersistSpec {
        let dir =
            std::env::temp_dir().join(format!("svserve-persist-unit-{}-{tag}", std::process::id()));
        PersistSpec::new(dir.join("snap.json"), b"fp", "model-a")
    }

    fn cleanup(spec: &PersistSpec) {
        if let Some(dir) = spec.path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn response(line: u32) -> Response {
        Response {
            bug_line_number: line,
            buggy_line: format!("buggy {line}"),
            fixed_line: format!("fixed {line}"),
            cot: if line.is_multiple_of(2) {
                Some(format!("because {line}"))
            } else {
                None
            },
        }
    }

    #[test]
    fn key_codec_round_trips_and_rejects_garbage() {
        for raw in [0u128, 1, u128::MAX, 0xdead_beef] {
            assert_eq!(decode_key(&encode_key(raw)), Some(raw));
        }
        assert_eq!(decode_key(""), None);
        assert_eq!(decode_key("zz"), None);
        assert_eq!(decode_key(&"f".repeat(33)), None);
        // Non-canonical but parseable widths are rejected too (fixed 32 chars).
        assert_eq!(decode_key("ff"), None);
        // Only canonical lower-hex digits: no sign, no uppercase, no whitespace.
        assert_eq!(decode_key("+0000000000000000000000000000001"), None);
        assert_eq!(decode_key(&"F".repeat(32)), None);
        assert_eq!(decode_key(" 000000000000000000000000000000f"), None);
    }

    #[test]
    fn response_snapshot_round_trips_with_recency_independent_bytes() {
        let spec = temp_spec("resp-roundtrip");
        let entries = vec![
            (CaseKey(9), Arc::new(vec![response(1), response(2)])),
            (CaseKey(2), Arc::new(vec![])),
        ];
        save_response_snapshot(&spec, entries.clone()).unwrap();
        let first_bytes = std::fs::read(&spec.path).unwrap();
        let SnapshotLoad::Loaded(loaded) = load_response_snapshot(&spec) else {
            panic!("snapshot must load");
        };
        assert_eq!(loaded.generation, 1);
        // Loaded sorted by key, every entry stamped with the file generation.
        assert_eq!(loaded.entries[0].0, CaseKey(2));
        assert_eq!(loaded.entries[1].0, CaseKey(9));
        assert_eq!(*loaded.entries[1].1, vec![response(1), response(2)]);
        assert!(loaded.entries.iter().all(|(.., gen)| *gen == 1));
        // Saving what was loaded at the same generation reproduces the file
        // byte for byte.
        save_response_snapshot_aged(&spec, loaded.generation, loaded.entries).unwrap();
        assert_eq!(std::fs::read(&spec.path).unwrap(), first_bytes);
        cleanup(&spec);
    }

    #[test]
    fn age_entries_restamps_touched_and_drops_stale() {
        // Generation 5 snapshot flushing as generation 6, K = 3.
        let entries = vec![
            ("touched-old", 'a', 1, true),   // re-stamped to 6
            ("idle-fresh", 'b', 5, false),   // kept at 5 (6-5 = 1 <= 3)
            ("idle-edge", 'c', 3, false),    // kept at 3 (6-3 = 3 <= 3)
            ("idle-stale", 'd', 2, false),   // dropped (6-2 = 4 > 3)
            ("idle-future", 'e', 99, false), // clamped to 5, kept
        ];
        let (kept, compacted) = age_entries(entries.clone(), 5, 6, 3);
        assert_eq!(compacted, 1);
        let kept: std::collections::HashMap<&str, u64> =
            kept.into_iter().map(|(k, _, gen)| (k, gen)).collect();
        assert_eq!(kept["touched-old"], 6);
        assert_eq!(kept["idle-fresh"], 5);
        assert_eq!(kept["idle-edge"], 3);
        assert_eq!(kept["idle-future"], 5);
        assert!(!kept.contains_key("idle-stale"));
        // compact_after = 0 disables compaction entirely.
        let (kept, compacted) = age_entries(entries, 5, 6, 0);
        assert_eq!(compacted, 0);
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn missing_corrupt_and_mismatched_snapshots_degrade_to_cold_start() {
        let spec = temp_spec("degrade");
        assert_eq!(load_verdict_snapshot(&spec), SnapshotLoad::Missing);

        // Corrupt bytes.
        std::fs::create_dir_all(spec.path.parent().unwrap()).unwrap();
        std::fs::write(&spec.path, "{ not json at all").unwrap();
        assert!(matches!(
            load_verdict_snapshot(&spec),
            SnapshotLoad::Rejected(_)
        ));

        // Truncated valid JSON.
        save_verdict_snapshot(&spec, vec![(VerdictKey(1), true)]).unwrap();
        let full = std::fs::read_to_string(&spec.path).unwrap();
        std::fs::write(&spec.path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            load_verdict_snapshot(&spec),
            SnapshotLoad::Rejected(_)
        ));

        // Version mismatch.
        let bumped = full.replace(
            &format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}"),
            &format!("\"format_version\":{}", SNAPSHOT_FORMAT_VERSION + 1),
        );
        assert_ne!(bumped, full, "version field must be present to rewrite");
        std::fs::write(&spec.path, &bumped).unwrap();
        let SnapshotLoad::Rejected(reason) = load_verdict_snapshot(&spec) else {
            panic!("future format version must be rejected");
        };
        assert!(
            reason.contains("format version"),
            "unexpected reason {reason}"
        );

        // Fingerprint and model mismatches.
        std::fs::write(&spec.path, &full).unwrap();
        let other_fp = PersistSpec {
            fingerprint: b"other".to_vec(),
            ..spec.clone()
        };
        assert!(matches!(
            load_verdict_snapshot(&other_fp),
            SnapshotLoad::Rejected(_)
        ));
        let other_model = PersistSpec {
            model: "model-b".into(),
            ..spec.clone()
        };
        assert!(matches!(
            load_verdict_snapshot(&other_model),
            SnapshotLoad::Rejected(_)
        ));

        // Kind confusion: a verdict file is not a response snapshot.
        std::fs::write(&spec.path, &full).unwrap();
        assert!(matches!(
            load_response_snapshot(&spec),
            SnapshotLoad::Rejected(_)
        ));

        // And the matching spec still loads the intact file.
        assert_eq!(
            load_verdict_snapshot(&spec),
            SnapshotLoad::Loaded(VerdictLoad {
                generation: 1,
                entries: vec![(VerdictKey(1), true, 1)],
            })
        );
        cleanup(&spec);
    }

    #[test]
    fn a_snapshot_nested_past_the_parser_cap_is_rejected_not_fatal() {
        // 200 KB of `[` used to overflow the parser's stack and abort the
        // process; "loading never fails the service" covers this file too.
        let spec = temp_spec("too-deep");
        std::fs::create_dir_all(spec.path.parent().unwrap()).unwrap();
        std::fs::write(&spec.path, "[".repeat(200_000)).unwrap();
        let unparseable = |reason: &str| reason.starts_with("unparseable snapshot: ");
        assert!(matches!(
            load_verdict_snapshot(&spec),
            SnapshotLoad::Rejected(reason) if unparseable(&reason)
        ));
        assert!(matches!(
            load_response_snapshot(&spec),
            SnapshotLoad::Rejected(reason) if unparseable(&reason)
        ));
        // A pool pointed at it counts the reject and starts cold.
        let pool: crate::VerifyPool<String> = crate::VerifyPool::start(
            Arc::new(|_: &String, _: &Response| true),
            crate::VerifyConfig::default().with_persist(spec.clone()),
        );
        let metrics = pool.metrics();
        assert_eq!(metrics.snapshot_rejects, 1);
        assert_eq!(metrics.snapshot_loaded_entries, 0);
        pool.shutdown();
        cleanup(&spec);
    }

    #[test]
    fn write_atomic_replaces_previous_contents() {
        let spec = temp_spec("atomic");
        write_atomic(&spec.path, "first").unwrap();
        write_atomic(&spec.path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&spec.path).unwrap(), "second");
        // No temp litter left behind.
        let residue: Vec<_> = std::fs::read_dir(spec.path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(residue.is_empty(), "temp files must be renamed away");
        cleanup(&spec);
    }

    #[test]
    fn a_failed_write_atomic_leaves_no_temp_file_behind() {
        // The target is a non-empty directory, so the write cannot land; every
        // failure (a short write just like this failed rename) must take its
        // uniquely named temp file with it, or each retried flush leaks one.
        let spec = temp_spec("atomic-failure");
        std::fs::create_dir_all(spec.path.join("occupied")).unwrap();
        for _ in 0..3 {
            assert!(write_atomic(&spec.path, "contents").is_err());
        }
        let names: Vec<_> = std::fs::read_dir(spec.path.parent().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, [spec.path.file_name().unwrap()], "no temp litter");
        cleanup(&spec);
    }
}
