//! Property-style tests (vendored `rand`) for the verdict cache: key uniqueness
//! over random `(case, response, config)` triples, and counter consistency
//! under concurrent submitters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use svmodel::Response;
use svserve::{verdict_case_state, verdict_key, verdict_key_after, Memo, VerifyConfig};

fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn random_response(rng: &mut StdRng) -> Response {
    Response {
        bug_line_number: rng.gen_range(0..64u32),
        buggy_line: random_string(rng, 12),
        fixed_line: random_string(rng, 12),
        cot: if rng.gen_bool(0.3) {
            Some(random_string(rng, 8))
        } else {
            None
        },
    }
}

/// One flattened `(case, response fields, config)` triple.
type Triple = (String, String, u32, String, Option<String>, Vec<u8>);

#[test]
fn distinct_triples_never_alias_to_one_key() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CA5E);
    // Deliberately tiny alphabets and short strings so the generator produces many
    // near-collisions (shared prefixes, shifted field boundaries).
    let mut triples: BTreeSet<Triple> = BTreeSet::new();
    while triples.len() < 4096 {
        let response = random_response(&mut rng);
        let config: Vec<u8> = (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen::<u8>())
            .collect();
        triples.insert((
            random_string(&mut rng, 6),
            response.buggy_line,
            response.bug_line_number,
            response.fixed_line,
            response.cot,
            config,
        ));
    }
    let keys: HashSet<u128> = triples
        .iter()
        .map(|(case, buggy_line, line, fixed_line, cot, config)| {
            let response = Response {
                bug_line_number: *line,
                buggy_line: buggy_line.clone(),
                fixed_line: fixed_line.clone(),
                cot: cot.clone(),
            };
            verdict_key(&[case.as_bytes()], &response, config).0
        })
        .collect();
    assert_eq!(
        keys.len(),
        triples.len(),
        "distinct (case, response, config) triples aliased to one verdict key"
    );
}

#[test]
fn a_case_folded_once_finishes_to_the_whole_key() {
    let mut rng = StdRng::seed_from_u64(0xCA5E_4A1F);
    for _ in 0..512 {
        let fields: Vec<String> = (0..rng.gen_range(0..4usize))
            .map(|_| random_string(&mut rng, 6))
            .collect();
        let fields: Vec<&[u8]> = fields.iter().map(|field| field.as_bytes()).collect();
        let case = verdict_case_state(&fields);
        for _ in 0..rng.gen_range(1..8usize) {
            let response = random_response(&mut rng);
            let config: Vec<u8> = (0..rng.gen_range(0..4usize))
                .map(|_| rng.gen::<u8>())
                .collect();
            assert_eq!(
                verdict_key(&fields, &response, &config),
                verdict_key_after(case, &response, &config),
                "{fields:?} {response:?} {config:?}"
            );
        }
    }
}

#[test]
fn hit_and_miss_counters_stay_consistent_under_concurrent_submitters() {
    let pool = Memo::verdicts(VerifyConfig::default().with_workers(4));
    const THREADS: u64 = 4;
    const PER_THREAD: usize = 120;
    let keys = std::sync::Mutex::new(HashSet::new());
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (pool, keys) = (&pool, &keys);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD1CE ^ thread);
                for _ in 0..PER_THREAD {
                    // A small id space, so threads collide on identical jobs and
                    // exercise the hit path concurrently.
                    let case = random_string(&mut rng, 4);
                    let response = Response {
                        bug_line_number: rng.gen_range(0..8u32),
                        buggy_line: String::new(),
                        fixed_line: random_string(&mut rng, 2),
                        cot: None,
                    };
                    let key = verdict_key(&[case.as_bytes()], &response, b"prop");
                    let judge = || {
                        let verdict = case.len().is_multiple_of(2)
                            && !response.bug_line_number.is_multiple_of(2);
                        pool.tally(verdict);
                        verdict
                    };
                    pool.serve(key, judge).expect("memo open");
                    keys.lock().expect("no submitter panics").insert(key);
                }
            });
        }
    });
    pool.close();
    let metrics = pool.metrics();
    let total = THREADS * PER_THREAD as u64;
    assert_eq!(metrics.submitted, total);
    assert_eq!(metrics.completed, total);
    assert_eq!(
        metrics.cache_hits + metrics.cache_misses,
        metrics.completed,
        "every completed job is exactly one hit or one miss"
    );
    assert_eq!(
        metrics.verdicts_true + metrics.verdicts_false,
        metrics.cache_misses,
        "every miss computes exactly one verdict (no panics in this workload)"
    );
    assert_eq!(metrics.verdict_panics, 0);
    assert!(metrics.cache_hits > 0, "duplicate-heavy workload must hit");
    // Nothing is evicted and nothing panics: every distinct key stays.  Two
    // submitters that miss one key at once both judge it, so misses can
    // exceed entries, never fall short of them.
    assert_eq!(metrics.cache_entries, keys.into_inner().unwrap().len());
    assert!(metrics.cache_entries as u64 <= metrics.cache_misses);
}
