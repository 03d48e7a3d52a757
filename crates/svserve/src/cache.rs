//! Content-addressed caches with LRU eviction, shared by both worker pools.
//!
//! Cache keys are 128-bit FNV-1a hashes over the full job content:
//!
//! * [`CaseKey`] (repair pool) — spec, buggy source, failure log, sample count and
//!   temperature, so two requests share an entry exactly when the model would be
//!   asked the identical question.  The same key also seeds the sampler (see
//!   [`crate::service`]), which is what makes service results independent of worker
//!   count and arrival order.
//! * [`VerdictKey`] (verify pool) — the caller-supplied case fingerprint, every field
//!   of the candidate [`Response`], and the checker-configuration fingerprint, so a
//!   cached verdict is reused exactly when the same candidate would be re-judged for
//!   the same case under the same bounded-check settings.
//!
//! All fields are folded with a length prefix, so field boundaries can never alias
//! (`("ab", "c")` hashes differently from `("a", "bc")`).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;
use svmodel::{CaseInput, Response};

/// Content hash of one repair request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CaseKey(pub u128);

impl CaseKey {
    /// Folds the 128-bit key into 64 bits (used for shard routing and seeding).
    pub fn fold64(self) -> u64 {
        ContentKey::fold64(self)
    }
}

/// A 128-bit content hash a pool can route, cache and persist by: what
/// [`crate::pool`] and the [`crate::persist`] codec need from [`CaseKey`] and
/// [`VerdictKey`] alike.
pub trait ContentKey: Copy + Eq + Hash + Ord + Send + Sync + 'static {
    /// Wraps a raw hash (the snapshot codec's decode direction).
    fn from_raw(raw: u128) -> Self;

    /// The raw hash.
    fn raw(self) -> u128;

    /// Folds the key into 64 bits; shard placement is `fold64() % workers`.
    fn fold64(self) -> u64 {
        (self.raw() as u64) ^ ((self.raw() >> 64) as u64)
    }
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
pub fn case_key(case: &CaseInput, samples: usize, temperature: f64) -> CaseKey {
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

impl VerdictKey {
    /// Folds the 128-bit key into 64 bits (used for verify-shard routing).
    pub fn fold64(self) -> u64 {
        ContentKey::fold64(self)
    }
}

/// Computes the content-addressed key of one verdict.
///
/// `case_fields` is the caller's stable fingerprint of the case being judged (the
/// verify pool is generic over the case type, so it cannot hash the case itself);
/// `config` is the byte fingerprint of the checker configuration (e.g.
/// `svverify::CheckConfig::fingerprint`).  Every field is folded with a length
/// prefix, including the field *count*, so no two distinct triples alias.
pub fn verdict_key(case_fields: &[&[u8]], response: &Response, config: &[u8]) -> VerdictKey {
    let mut hash = FNV_OFFSET;
    hash = fold_field(hash, &(case_fields.len() as u64).to_le_bytes());
    for field in case_fields {
        hash = fold_field(hash, field);
    }
    hash = fold_field(hash, &u64::from(response.bug_line_number).to_le_bytes());
    hash = fold_field(hash, response.buggy_line.as_bytes());
    hash = fold_field(hash, response.fixed_line.as_bytes());
    match &response.cot {
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
    stamp: u64,
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

/// A least-recently-used content-addressed cache.
///
/// Defaults to the repair pool's shape (response sets keyed by [`CaseKey`]); the
/// verify pool instantiates it as `LruCache<VerdictKey, bool>`.  Recency is tracked
/// with a monotonically increasing stamp per access plus a stamp-ordered index,
/// giving `O(log n)` lookup/insert/evict without unsafe code.
///
/// Entries inserted with [`LruCache::preload`] (snapshot warm-start) are tagged, so
/// pools can report how much of their traffic a persisted snapshot absorbed:
///
/// ```
/// use svserve::LruCache;
///
/// let mut cache: LruCache<u64, String> = LruCache::new(2);
/// cache.preload(1, "from snapshot".to_string());
/// cache.insert(2, "computed".to_string());
/// assert_eq!(cache.get_tagged(1), Some(("from snapshot".to_string(), true)));
/// assert_eq!(cache.get_tagged(2), Some(("computed".to_string(), false)));
/// // Plain `get` ignores the tag, and re-inserting clears it.
/// assert_eq!(cache.get(1).as_deref(), Some("from snapshot"));
/// cache.insert(1, "recomputed".to_string());
/// assert_eq!(cache.get_tagged(1), Some(("recomputed".to_string(), false)));
/// ```
pub struct LruCache<K = CaseKey, V = Arc<Vec<Response>>> {
    map: HashMap<K, Entry<V>>,
    by_stamp: BTreeMap<u64, K>,
    next_stamp: u64,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum one).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            next_stamp: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a key, refreshing its recency on a hit.  Values are cloned out;
    /// pick a cheap-to-clone value type (`Arc<...>`, `bool`).
    pub fn get(&mut self, key: K) -> Option<V> {
        self.get_tagged(key).map(|(value, _)| value)
    }

    /// Like [`LruCache::get`], but also reports whether the entry was preloaded
    /// from a snapshot ([`LruCache::preload`]) rather than computed this process.
    pub fn get_tagged(&mut self, key: K) -> Option<(V, bool)> {
        let entry = self.map.get_mut(&key)?;
        self.by_stamp.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        entry.touched = true;
        self.by_stamp.insert(self.next_stamp, key);
        self.next_stamp += 1;
        Some((entry.value.clone(), entry.warm))
    }

    /// Inserts a value, evicting the least recently used entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_entry(key, value, false, 0);
    }

    /// Inserts a snapshot-restored value, tagging it as warm so later hits can be
    /// attributed to the snapshot (see [`LruCache::get_tagged`]).
    pub fn preload(&mut self, key: K, value: V) {
        self.insert_entry(key, value, true, 0);
    }

    /// Like [`LruCache::preload`], but also records the snapshot generation the
    /// entry was last useful in, so age-based compaction ([`crate::persist`]) can
    /// drop entries that go unused for several runs.
    pub fn preload_aged(&mut self, key: K, value: V, generation: u64) {
        self.insert_entry(key, value, true, generation);
    }

    fn insert_entry(&mut self, key: K, value: V, warm: bool, generation: u64) {
        if let Some(existing) = self.map.get(&key) {
            self.by_stamp.remove(&existing.stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest_stamp, &oldest_key)) = self.by_stamp.iter().next() {
                self.by_stamp.remove(&oldest_stamp);
                self.map.remove(&oldest_key);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.next_stamp,
                warm,
                generation,
                // Computed entries were, by construction, useful this run.
                touched: !warm,
            },
        );
        self.by_stamp.insert(self.next_stamp, key);
        self.next_stamp += 1;
    }

    /// Clones every entry out, least-recently-used first.  Used by
    /// [`crate::persist`] to build snapshots — which re-sort by key for
    /// byte-stable files, so recency deliberately resets to insertion order on a
    /// warm start (harmless: eviction order never affects results, only what a
    /// small cache keeps).
    pub fn export(&self) -> Vec<(K, V)> {
        self.by_stamp
            .values()
            .map(|key| (*key, self.map[key].value.clone()))
            .collect()
    }

    /// Like [`LruCache::export`], but each entry carries its age:
    /// `(key, value, last_useful_generation, touched_this_process)`.  Pools use
    /// this at flush time to re-stamp touched entries with the new snapshot
    /// generation and to compact entries that have gone unused for too many
    /// runs (see `PersistSpec::compact_after`).
    pub fn export_aged(&self) -> Vec<(K, V, u64, bool)> {
        self.by_stamp
            .values()
            .map(|key| {
                let entry = &self.map[key];
                (*key, entry.value.clone(), entry.generation, entry.touched)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut cache: LruCache<VerdictKey, bool> = LruCache::new(2);
        cache.insert(keys[0], true);
        cache.insert(keys[1], false);
        assert_eq!(cache.get(keys[0]), Some(true));
        cache.insert(keys[2], true);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(keys[1]), None, "LRU verdict must be evicted");
        assert_eq!(cache.get(keys[2]), Some(true));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let keys: Vec<CaseKey> = (0..4)
            .map(|i| case_key(&case(&format!("s{i}"), "", ""), 1, 0.0))
            .collect();
        let mut cache = LruCache::new(3);
        for (i, &key) in keys.iter().take(3).enumerate() {
            cache.insert(key, Arc::new(vec![response(i as u32)]));
        }
        // Touch key 0 so key 1 becomes the LRU entry.
        assert!(cache.get(keys[0]).is_some());
        cache.insert(keys[3], Arc::new(vec![response(3)]));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(keys[1]).is_none(), "LRU entry must be evicted");
        assert!(cache.get(keys[0]).is_some());
        assert!(cache.get(keys[2]).is_some());
        assert!(cache.get(keys[3]).is_some());
    }

    #[test]
    fn preloaded_entries_are_tagged_until_recomputed() {
        let keys: Vec<CaseKey> = (0..3)
            .map(|i| case_key(&case(&format!("s{i}"), "", ""), 1, 0.0))
            .collect();
        let mut cache = LruCache::new(8);
        cache.preload(keys[0], Arc::new(vec![response(0)]));
        cache.insert(keys[1], Arc::new(vec![response(1)]));
        assert!(cache.get_tagged(keys[0]).unwrap().1);
        assert!(!cache.get_tagged(keys[1]).unwrap().1);
        assert!(cache.get_tagged(keys[2]).is_none());
        // Recomputing over a warm entry clears the tag; exporting and preloading
        // restores it.
        cache.insert(keys[0], Arc::new(vec![response(9)]));
        assert!(!cache.get_tagged(keys[0]).unwrap().1);
        let exported = cache.export();
        assert_eq!(exported.len(), 2);
        let mut reloaded = LruCache::new(8);
        for (key, value) in exported {
            reloaded.preload(key, value);
        }
        assert!(reloaded.get_tagged(keys[0]).unwrap().1);
        assert_eq!(reloaded.get(keys[0]).unwrap()[0].bug_line_number, 9);
    }

    #[test]
    fn export_preserves_lru_order() {
        let keys: Vec<CaseKey> = (0..3)
            .map(|i| case_key(&case(&format!("s{i}"), "", ""), 1, 0.0))
            .collect();
        let mut cache = LruCache::new(8);
        for (i, &key) in keys.iter().enumerate() {
            cache.insert(key, Arc::new(vec![response(i as u32)]));
        }
        // Touch key 0 so it becomes most recent.
        cache.get(keys[0]);
        let order: Vec<CaseKey> = cache.export().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![keys[1], keys[2], keys[0]]);
    }

    #[test]
    fn aged_export_distinguishes_touched_from_idle_entries() {
        let keys: Vec<CaseKey> = (0..3)
            .map(|i| case_key(&case(&format!("s{i}"), "", ""), 1, 0.0))
            .collect();
        let mut cache = LruCache::new(8);
        cache.preload_aged(keys[0], Arc::new(vec![response(0)]), 4);
        cache.preload_aged(keys[1], Arc::new(vec![response(1)]), 4);
        cache.insert(keys[2], Arc::new(vec![response(2)]));
        // Hit only the first preloaded entry.
        assert!(cache.get(keys[0]).is_some());
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
        let mut cache = LruCache::new(2);
        cache.insert(key, Arc::new(vec![response(1)]));
        cache.insert(key, Arc::new(vec![response(2)]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(key).unwrap()[0].bug_line_number, 2);
    }
}
