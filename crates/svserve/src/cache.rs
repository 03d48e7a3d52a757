//! Content keys and the map that every [`crate::Memo`] caches in.
//!
//! Cache keys are 128-bit FNV-1a hashes over the full job content:
//!
//! * [`CaseKey`] (repair pool) — spec, buggy source, failure log, sample count and
//!   temperature, so two requests share an entry exactly when the model would be
//!   asked the identical question.  The same key also seeds the sampler (see
//!   [`crate::service`]), which is what makes service results independent of
//!   arrival order.
//! * [`VerdictKey`] (verdict cache) — the caller-supplied case fingerprint, every field
//!   of the candidate [`svmodel::Response`], and the checker-configuration fingerprint, so a
//!   cached verdict is reused exactly when the same candidate would be re-judged for
//!   the same case under the same bounded-check settings.
//!
//! All fields are folded with a length prefix, so field boundaries can never alias
//! (`("ab", "c")` hashes differently from `("a", "bc")`).

use std::collections::HashMap;
use std::hash::Hash;
use svmodel::CaseInput;

/// Content hash of one repair request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CaseKey(pub u128);

impl CaseKey {
    /// Folds the 128-bit key into 64 bits (the sampler seed, session id and
    /// wire placement derive from it).
    pub fn fold64(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }
}

/// A 128-bit content hash a memo can cache and persist by: what
/// [`crate::pool`] and the [`crate::persist`] codec need from [`CaseKey`] and
/// [`VerdictKey`] alike.
pub trait ContentKey: Copy + Eq + Hash + Ord + Send + Sync + 'static {
    /// Wraps a raw hash (the snapshot codec's decode direction).
    fn from_raw(raw: u128) -> Self;

    /// The raw hash.
    fn raw(self) -> u128;
}

impl ContentKey for CaseKey {
    fn from_raw(raw: u128) -> Self {
        Self(raw)
    }

    fn raw(self) -> u128 {
        self.0
    }
}

impl ContentKey for VerdictKey {
    fn from_raw(raw: u128) -> Self {
        Self(raw)
    }

    fn raw(self) -> u128 {
        self.0
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

fn fnv1a128(state: u128, bytes: &[u8]) -> u128 {
    let mut hash = state;
    for &byte in bytes {
        hash ^= byte as u128;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes one field with a length prefix so field boundaries cannot alias
/// (`("ab", "c")` must not collide with `("a", "bc")`).
fn fold_field(state: u128, bytes: &[u8]) -> u128 {
    let with_len = fnv1a128(state, &(bytes.len() as u64).to_le_bytes());
    fnv1a128(with_len, bytes)
}

/// Computes the content-addressed key of a request.
pub(crate) fn case_key(case: &CaseInput, samples: usize, temperature: f64) -> CaseKey {
    let mut hash = FNV_OFFSET;
    hash = fold_field(hash, case.spec.as_bytes());
    hash = fold_field(hash, case.buggy_source.as_bytes());
    hash = fold_field(hash, case.logs.as_bytes());
    hash = fold_field(hash, &(samples as u64).to_le_bytes());
    hash = fold_field(hash, &temperature.to_bits().to_le_bytes());
    CaseKey(hash)
}

/// Content hash of one `(case, candidate response, checker config)` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerdictKey(pub u128);

/// The case half of a [`VerdictKey`]: the hash state after folding a case's
/// fields, which every candidate judged against that case shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictCaseState(u128);

/// Folds `case_fields` once, for [`verdict_key_of_fields`] to finish per
/// candidate.
///
/// `case_fields` is the caller's stable fingerprint of the case being judged
/// (this crate knows no case type, so it cannot hash the case itself).  Every
/// field is folded with a length prefix, and so is the field *count*, so no
/// two distinct field lists alias.
pub fn verdict_case_state(case_fields: &[&[u8]]) -> VerdictCaseState {
    let mut hash = FNV_OFFSET;
    hash = fold_field(hash, &(case_fields.len() as u64).to_le_bytes());
    for field in case_fields {
        hash = fold_field(hash, field);
    }
    VerdictCaseState(hash)
}

/// Finishes a [`VerdictKey`] from its case half: folds a candidate
/// response's fields, borrowed, and `config`, the byte fingerprint of the
/// checker configuration (e.g. `svverify::CheckConfig::fingerprint`).  A
/// caller that keys a normalised response (say, an empty buggy line and no
/// reasoning) folds the fields it holds without building a
/// [`svmodel::Response`].
pub fn verdict_key_of_fields(
    case: VerdictCaseState,
    bug_line_number: u32,
    buggy_line: &str,
    fixed_line: &str,
    cot: Option<&str>,
    config: &[u8],
) -> VerdictKey {
    let mut hash = case.0;
    hash = fold_field(hash, &u64::from(bug_line_number).to_le_bytes());
    hash = fold_field(hash, buggy_line.as_bytes());
    hash = fold_field(hash, fixed_line.as_bytes());
    match cot {
        Some(cot) => {
            hash = fold_field(hash, b"cot");
            hash = fold_field(hash, cot.as_bytes());
        }
        None => hash = fold_field(hash, b"no-cot"),
    }
    hash = fold_field(hash, config);
    VerdictKey(hash)
}

struct Entry<V> {
    value: V,
    /// Whether the entry was preloaded from a persisted snapshot (see
    /// [`crate::persist`]) rather than computed in this process.
    warm: bool,
    /// Snapshot generation the entry was last useful in: the generation recorded
    /// in the snapshot it was preloaded from (0 for entries computed in-process,
    /// whose age is "now" by definition).  Used by age-based snapshot compaction.
    generation: u64,
    /// Whether the entry was used (hit or computed) in this process.  A warm
    /// entry that is never touched keeps its old generation at flush time, which
    /// is what lets compaction age it out.
    touched: bool,
}

/// The map of a [`crate::Memo`]: content-addressed, and it never
/// evicts (snapshot compaction in [`crate::persist`] ages entries out, across
/// runs).  Entries preloaded from a snapshot are tagged warm, so a memo can
/// report how much of its traffic a snapshot absorbed.
pub(crate) struct CacheMap<K, V> {
    map: HashMap<K, Entry<V>>,
}

impl<K, V> Default for CacheMap<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Clone> CacheMap<K, V> {
    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks up a key, also reporting whether the entry was preloaded from a
    /// snapshot ([`CacheMap::preload_aged`]) rather than computed this
    /// process.  Values are cloned out; pick a cheap-to-clone value type
    /// (`Arc<...>`, `bool`).
    pub(crate) fn get_tagged(&mut self, key: K) -> Option<(V, bool)> {
        let entry = self.map.get_mut(&key)?;
        entry.touched = true;
        Some((entry.value.clone(), entry.warm))
    }

    /// Inserts a value computed in this process.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.insert_entry(key, value, false, 0);
    }

    /// Inserts a snapshot-restored value, tagged warm (see
    /// [`CacheMap::get_tagged`]), with the snapshot generation it was last
    /// useful in, so age-based compaction ([`crate::persist`]) can drop
    /// entries that go unused for several runs.
    pub(crate) fn preload_aged(&mut self, key: K, value: V, generation: u64) {
        self.insert_entry(key, value, true, generation);
    }

    fn insert_entry(&mut self, key: K, value: V, warm: bool, generation: u64) {
        let entry = Entry {
            value,
            warm,
            generation,
            // Computed entries were, by construction, useful this run.
            touched: !warm,
        };
        self.map.insert(key, entry);
    }

    /// Clones every entry out, in no particular order, with its age:
    /// `(key, value, last_useful_generation, touched_this_process)`.  Memos
    /// use this at flush time to re-stamp touched entries with the new
    /// snapshot generation and to compact entries that have gone unused for
    /// too many runs (see `PersistSpec::compact_after`); the snapshot sorts
    /// by key.
    pub(crate) fn export_aged(&self) -> Vec<(K, V, u64, bool)> {
        self.map
            .iter()
            .map(|(key, entry)| (*key, entry.value.clone(), entry.generation, entry.touched))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svmodel::Response;

    fn case(spec: &str, source: &str, logs: &str) -> CaseInput {
        CaseInput {
            spec: spec.to_string(),
            buggy_source: source.to_string(),
            logs: logs.to_string(),
        }
    }

    fn response(line: u32) -> Response {
        Response {
            bug_line_number: line,
            buggy_line: format!("line {line}"),
            fixed_line: format!("fixed {line}"),
            cot: None,
        }
    }

    /// The verdict key of every field of `response`, folded through the case
    /// half and then the response half.
    fn verdict_key(case_fields: &[&[u8]], response: &Response, config: &[u8]) -> VerdictKey {
        let Response {
            bug_line_number,
            buggy_line,
            fixed_line,
            cot,
        } = response;
        let case = verdict_case_state(case_fields);
        let cot = cot.as_deref();
        verdict_key_of_fields(case, *bug_line_number, buggy_line, fixed_line, cot, config)
    }

    #[test]
    fn key_is_stable_and_content_addressed() {
        let a = case_key(&case("spec", "src", "log"), 8, 0.2);
        let b = case_key(&case("spec", "src", "log"), 8, 0.2);
        assert_eq!(a, b, "identical content must produce identical keys");

        // Every key component must matter.
        assert_ne!(a, case_key(&case("spec2", "src", "log"), 8, 0.2));
        assert_ne!(a, case_key(&case("spec", "src2", "log"), 8, 0.2));
        assert_ne!(a, case_key(&case("spec", "src", "log2"), 8, 0.2));
        assert_ne!(a, case_key(&case("spec", "src", "log"), 9, 0.2));
        assert_ne!(a, case_key(&case("spec", "src", "log"), 8, 0.3));
    }

    #[test]
    fn key_fields_do_not_alias_across_boundaries() {
        let a = case_key(&case("ab", "c", ""), 1, 0.0);
        let b = case_key(&case("a", "bc", ""), 1, 0.0);
        assert_ne!(a, b, "field boundaries must be part of the hash");
    }

    #[test]
    fn verdict_key_covers_every_component() {
        let base = verdict_key(&[b"case"], &response(3), b"cfg");
        assert_eq!(base, verdict_key(&[b"case"], &response(3), b"cfg"));

        // Case fingerprint, each response field, and config must all matter.
        assert_ne!(base, verdict_key(&[b"case2"], &response(3), b"cfg"));
        assert_ne!(base, verdict_key(&[b"case"], &response(4), b"cfg"));
        assert_ne!(base, verdict_key(&[b"case"], &response(3), b"cfg2"));
        let mut with_cot = response(3);
        with_cot.cot = Some("because".into());
        assert_ne!(base, verdict_key(&[b"case"], &with_cot, b"cfg"));
        let mut other_fix = response(3);
        other_fix.fixed_line = "something else".into();
        assert_ne!(base, verdict_key(&[b"case"], &other_fix, b"cfg"));
    }

    /// Verdict keys name every cached verdict on disk: the split into a case
    /// half and a response half must not move a single bit of them.
    #[test]
    fn verdict_key_bits_are_pinned() {
        let key = verdict_key(&[b"case"], &response(3), b"cfg");
        assert_eq!(key.0, 0x834e_d33c_3669_6ecf_439f_fc58_48fd_b489);
    }

    #[test]
    fn verdict_key_case_fields_do_not_alias() {
        // Neither field boundaries nor the field count may alias.
        let r = response(1);
        assert_ne!(
            verdict_key(&[b"ab", b"c"], &r, b""),
            verdict_key(&[b"a", b"bc"], &r, b"")
        );
        assert_ne!(
            verdict_key(&[b"ab"], &r, b""),
            verdict_key(&[b"a", b"b"], &r, b"")
        );
    }

    #[test]
    fn verdict_cache_holds_bools() {
        let keys: Vec<VerdictKey> = (0..3)
            .map(|i| verdict_key(&[b"case"], &response(i), b"cfg"))
            .collect();
        let mut cache: CacheMap<VerdictKey, bool> = CacheMap::default();
        cache.insert(keys[0], true);
        cache.insert(keys[1], false);
        assert_eq!(cache.get_tagged(keys[0]), Some((true, false)));
        cache.insert(keys[2], true);
        assert_eq!(cache.len(), 3, "the map never evicts");
        assert_eq!(cache.get_tagged(keys[1]), Some((false, false)));
        assert_eq!(cache.get_tagged(keys[2]), Some((true, false)));
    }

    #[test]
    fn preloaded_entries_are_tagged_until_recomputed() {
        let keys: Vec<CaseKey> = (0..3)
            .map(|i| case_key(&case(&format!("s{i}"), "", ""), 1, 0.0))
            .collect();
        let mut cache = CacheMap::default();
        cache.preload_aged(keys[0], Arc::new(vec![response(0)]), 1);
        cache.insert(keys[1], Arc::new(vec![response(1)]));
        assert!(cache.get_tagged(keys[0]).unwrap().1);
        assert!(!cache.get_tagged(keys[1]).unwrap().1);
        assert!(cache.get_tagged(keys[2]).is_none());
        // Recomputing over a warm entry clears the tag; exporting and preloading
        // restores it.
        cache.insert(keys[0], Arc::new(vec![response(9)]));
        assert!(!cache.get_tagged(keys[0]).unwrap().1);
        let exported = cache.export_aged();
        assert_eq!(exported.len(), 2);
        let mut reloaded = CacheMap::default();
        for (key, value, generation, _) in exported {
            reloaded.preload_aged(key, value, generation);
        }
        let (value, warm) = reloaded.get_tagged(keys[0]).unwrap();
        assert!(warm);
        assert_eq!(value[0].bug_line_number, 9);
    }

    #[test]
    fn aged_export_distinguishes_touched_from_idle_entries() {
        let keys: Vec<CaseKey> = (0..3)
            .map(|i| case_key(&case(&format!("s{i}"), "", ""), 1, 0.0))
            .collect();
        let mut cache = CacheMap::default();
        cache.preload_aged(keys[0], Arc::new(vec![response(0)]), 4);
        cache.preload_aged(keys[1], Arc::new(vec![response(1)]), 4);
        cache.insert(keys[2], Arc::new(vec![response(2)]));
        // Hit only the first preloaded entry.
        assert!(cache.get_tagged(keys[0]).is_some());
        let aged: std::collections::HashMap<CaseKey, (u64, bool)> = cache
            .export_aged()
            .into_iter()
            .map(|(key, _, gen, touched)| (key, (gen, touched)))
            .collect();
        assert_eq!(aged[&keys[0]], (4, true), "hit warm entry is touched");
        assert_eq!(aged[&keys[1]], (4, false), "idle warm entry is untouched");
        assert_eq!(aged[&keys[2]], (0, true), "computed entry is touched");
        // Recomputing over an idle warm entry marks it touched.
        cache.insert(keys[1], Arc::new(vec![response(9)]));
        let (_, _, _, touched) = cache
            .export_aged()
            .into_iter()
            .find(|(key, ..)| *key == keys[1])
            .unwrap();
        assert!(touched);
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_cache() {
        let key = case_key(&case("s", "", ""), 1, 0.0);
        let mut cache = CacheMap::default();
        cache.insert(key, Arc::new(vec![response(1)]));
        cache.insert(key, Arc::new(vec![response(2)]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get_tagged(key).unwrap().0[0].bug_line_number, 2);
    }
}
