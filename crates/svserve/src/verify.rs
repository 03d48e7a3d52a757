//! Verdicts: the verdict cache's configuration and metrics view.
//!
//! A verdict cache is a [`Memo`] over the [`VerdictSnapshot`] file: keyed by
//! a caller-built [`crate::VerdictKey`], valued by a `bool`.
//! `assertsolver::EvalVerifier` holds one and serves each candidate through
//! it, judging on a miss on the thread that asks and tallying the verdict
//! ([`Memo::tally`]) where it computed it.
//!
//! ## Determinism
//!
//! Verdicts are pure functions of `(case, response, checker config)` — exactly the
//! content hashed into the key — so the memo introduces no nondeterminism: a
//! verdict is the same in any arrival order, on a cold cache or a warm one.
//!
//! ## Panic absorption
//!
//! A panicking judge yields a *failed* (`false`) verdict for that candidate,
//! counted in [`VerifyMetrics::verdict_panics`] and **not** cached, so a retry
//! reaches the judge again.

use crate::metrics::VerifyMetrics;
use crate::persist::{PersistSpec, VerdictSnapshot};
use crate::pool::Memo;

/// Verdict-cache parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyConfig {
    /// On-disk snapshot of the verdict cache: preloaded at start, written by
    /// [`Memo::flush`] / close / drop.  `None` keeps the cache purely
    /// in-memory.  See [`crate::persist`] for the format and invalidation
    /// rules.
    pub persist: Option<PersistSpec>,
}

impl VerifyConfig {
    /// Returns the config with verdict-cache persistence enabled.
    pub fn with_persist(mut self, persist: PersistSpec) -> Self {
        self.persist = Some(persist);
        self
    }
}

impl Memo<VerdictSnapshot> {
    /// The verdict cache `config` describes, its snapshot preloaded when one
    /// is configured.
    pub fn verdicts(config: VerifyConfig) -> Self {
        Memo::new(config.persist)
    }

    /// Counts one computed verdict, true or false.
    pub fn tally(&self, verdict: bool) {
        self.recorder.record_verdict(verdict);
    }

    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> VerifyMetrics {
        (self.recorder).snapshot_verify(self.cache_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{verdict_case_state, verdict_key_of_fields};
    use crate::pool::{contract, Served};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A judge whose verdict is "does the fixed line contain the case text?",
    /// plus an invocation counter so tests can prove cache hits skip it.
    /// Panics on a fix that says `poison`.
    #[derive(Default)]
    struct SubstringJudge {
        calls: AtomicUsize,
    }

    impl SubstringJudge {
        /// Serves `(case, fixed_line)` through `memo`, judging and tallying
        /// on a miss.
        fn serve(
            &self,
            memo: &Memo<VerdictSnapshot>,
            case: &str,
            fixed_line: &str,
        ) -> Served<bool> {
            let case_state = verdict_case_state(&[case.as_bytes()]);
            let key =
                verdict_key_of_fields(case_state, 1, "buggy", fixed_line, None, b"test-config");
            let judge = || {
                self.calls.fetch_add(1, Ordering::SeqCst);
                assert!(!fixed_line.contains("poison"), "malformed candidate");
                let verdict = fixed_line.contains(case);
                memo.tally(verdict);
                verdict
            };
            memo.serve(key, judge).expect("memo open")
        }
    }

    fn memo() -> Memo<VerdictSnapshot> {
        Memo::verdicts(VerifyConfig::default())
    }

    #[test]
    fn owned_pool_judges_and_shuts_down() {
        let judge = SubstringJudge::default();
        let memo = memo();
        for i in 0..16 {
            let fix = format!("fix {i} needle={}", i % 2 == 0);
            assert!(judge.serve(&memo, "needle", &fix).value);
        }
        memo.close();
        let metrics = memo.metrics();
        assert_eq!(metrics.completed, 16);
        assert_eq!(metrics.cache_misses, 16);
        assert_eq!(metrics.verdicts_true, 16);
        assert_eq!(judge.calls.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn repeated_jobs_are_served_from_the_verdict_cache() {
        let judge = SubstringJudge::default();
        let memo = memo();
        let first = judge.serve(&memo, "abc", "has abc inside");
        let second = judge.serve(&memo, "abc", "has abc inside");
        assert!(first.value && second.value);
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(
            judge.calls.load(Ordering::SeqCst),
            1,
            "cache hit must not re-invoke the judge"
        );
        let metrics = memo.metrics();
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.cache_misses, 1);
    }

    #[test]
    fn verdicts_are_identical_across_arrival_orders() {
        let workload: Vec<(String, String)> = (0..40)
            .map(|i| (format!("case {}", i % 7), format!("fix case {}", i % 5)))
            .collect();
        let mut reversed = workload.clone();
        reversed.reverse();

        let run = |jobs: &[(String, String)]| -> Vec<bool> {
            let (judge, memo) = (SubstringJudge::default(), memo());
            let verdict = |(case, fix): &(String, String)| judge.serve(&memo, case, fix).value;
            jobs.iter().map(verdict).collect()
        };

        let forward = run(&workload);
        let mut reversed_verdicts = run(&reversed);
        reversed_verdicts.reverse();
        assert_eq!(
            forward, reversed_verdicts,
            "arrival order must not change verdicts"
        );
    }

    #[test]
    fn submit_after_close_is_refused() {
        contract::submit_after_close_is_refused::<VerdictSnapshot>(true);
    }

    #[test]
    fn a_panicking_judge_fails_the_candidate_without_poisoning_the_pool() {
        contract::panicking_work_is_absorbed::<VerdictSnapshot>(true);
        // A panicked invocation tallies no verdict, true or false.
        let (judge, memo) = (SubstringJudge::default(), memo());
        assert!(judge.serve(&memo, "case 0", "fix case 0").value);
        assert!(!judge.serve(&memo, "case 1", "poison case 1").value);
        memo.close();
        let metrics = memo.metrics();
        assert_eq!(metrics.verdicts_true + metrics.verdicts_false, 1);
        assert_eq!(metrics.cache_misses - metrics.verdict_panics, 1);
    }

    #[test]
    fn an_idle_pool_never_overwrites_a_valuable_snapshot() {
        contract::an_idle_memo_never_overwrites_a_valuable_snapshot::<VerdictSnapshot>(true);
    }

    #[test]
    fn idle_entries_are_compacted_once_the_write_lands() {
        contract::idle_entries_are_compacted_once_the_write_lands::<VerdictSnapshot>(true);
    }

    #[test]
    fn every_served_verdict_stays_cached() {
        contract::every_served_key_stays_cached::<VerdictSnapshot>(true);
    }

    #[test]
    fn scoped_pool_reports_metrics() {
        let (judge, memo) = (SubstringJudge::default(), memo());
        for i in 0..10 {
            judge.serve(&memo, "x", &format!("{} x={}", i, i % 2 == 0));
        }
        let metrics = memo.metrics();
        assert_eq!(metrics.completed, 10);
        assert_eq!(metrics.verdicts_true + metrics.verdicts_false, 10);
    }
}
