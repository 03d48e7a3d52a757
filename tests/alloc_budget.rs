//! Heap allocations per `solve`, per case front end and per judged
//! candidate, pinned as counts.
//!
//! A cold evaluation samples every (model, case) once and then judges every
//! distinct candidate that misses `response_is_correct`'s textual fast path:
//! the case's `svparse::FrontEnd`, built once, re-parses the one item the
//! edit changes (else the whole edited text is parsed), the module is
//! elaborated and checked.  These fixed costs bound it.  This binary counts
//! the heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) of each
//! stage over one `svbench` `eval_cold` round — the three checkpoints, n = 20
//! at T = 0.2, over the first 16 SVA-Bug cases and the five human cases of a
//! 16-design training run — and holds the mean under a ceiling:
//!
//! | stage | ceiling | mean of | what runs |
//! |---|---|---|---|
//! | sample | 630 | the 63 (model, case) calls | `RepairModel::solve` under the service's seed |
//! | front end | 165 | the (model, case) pairs with a judged candidate | `FrontEnd::new` of the buggy source |
//! | parse | 26 | the judged candidates | `FrontEnd::edit_line`, else `parse_module` of `apply_line_edit` |
//! | elaborate | 75 | the candidates that parse and change the text | `Design::from_module` of the module |
//! | check | 45 | the candidates that elaborate | `BoundedChecker::passes` on the design |
//!
//! It also holds that at least 97 % of the judged candidates take the
//! one-item delta, so a silent fallback to the whole text fails here.
//!
//! The ceilings are counts, not seconds, so they do not move with the host.
//! To re-measure, run `cargo test --release --test alloc_budget -- --nocapture`:
//! the test prints the call and candidate counts and the mean of each stage
//! (debug and release builds allocate alike).  The binary holds one test only,
//! because the counter is global and a second test would count into it.

#[path = "../crates/core/tests/support/line_edits.rs"]
mod line_edits;

use assertsolver::{apply_line_edit, EvalConfig};
use line_edits::{eval_cold_cases, sampled_edits, CaseEdits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use svmodel::{CaseInput, RepairModel, Response};
use svparse::FrontEnd;
use svsim::Design;
use svverify::BoundedChecker;

/// `System`, counting every call that hands out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter has no
// bearing on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const SAMPLE_CEILING: u64 = 630;
const FRONT_END_CEILING: u64 = 165;
const PARSE_CEILING: u64 = 26;
const ELABORATE_CEILING: u64 = 75;
const CHECK_CEILING: u64 = 45;
/// The least share of judged candidates, in percent, that the one-item delta
/// must answer: a silent fallback to the whole text fails here.
const DELTA_SHARE_PCT: u64 = 97;

/// A model that counts the calls to its `solve` and the allocations they make.
struct Sampled<'m, M> {
    model: &'m M,
    calls: Cell<u64>,
    allocations: Cell<u64>,
}

impl<M: RepairModel> RepairModel for Sampled<'_, M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn identity(&self) -> String {
        self.model.identity()
    }

    fn solve(&self, case: &CaseInput, samples: usize, t: f64, seed: u64) -> Vec<Response> {
        let (responses, allocs) = counted(|| self.model.solve(case, samples, t, seed));
        self.calls.set(self.calls.get() + 1);
        self.allocations.set(self.allocations.get() + allocs);
        responses
    }
}

/// One `eval_cold` round's judged candidates per (model, case), with the
/// check that judges them, and its `solve` calls and their allocations.
fn eval_cold_candidates() -> (Vec<CaseEdits>, BoundedChecker, u64, u64) {
    let (artifacts, cases) = eval_cold_cases();
    let checkpoints = [&artifacts.base, &artifacts.sft, &artifacts.assert_solver];
    let models = checkpoints.map(|model| Sampled {
        model,
        calls: Cell::new(0),
        allocations: Cell::new(0),
    });
    let sampled: Vec<&dyn RepairModel> = models.iter().map(|m| m as &dyn RepairModel).collect();
    let eval = EvalConfig::default();
    let candidates = sampled_edits(&sampled, &cases, &eval);
    let calls = models.iter().map(|m| m.calls.get()).sum();
    let allocations = models.iter().map(|m| m.allocations.get()).sum();
    (
        candidates,
        BoundedChecker::new(eval.check),
        calls,
        allocations,
    )
}

/// Running totals of one stage: how many times it ran and what it allocated.
#[derive(Default)]
struct Stage {
    runs: u64,
    allocations: u64,
}

impl Stage {
    fn add(&mut self, allocations: u64) {
        self.runs += 1;
        self.allocations += allocations;
    }

    fn mean(&self) -> f64 {
        self.allocations as f64 / self.runs as f64
    }
}

#[test]
fn a_judged_candidate_stays_under_its_allocation_ceilings() {
    let (cases, checker, calls, sample_allocs) = eval_cold_candidates();
    let [mut front_ends, mut parse, mut elaborate, mut check] = [(); 4].map(|_| Stage::default());
    let mut delta = 0u64;
    for case in cases.iter().filter(|case| !case.edits.is_empty()) {
        let (front_end, allocs) = counted(|| FrontEnd::new(&case.entry.buggy_source));
        let mut front_end = front_end.expect("a buggy source parses");
        front_ends.add(allocs);
        let source = &case.entry.buggy_source;
        for (line, text) in &case.edits {
            // The judge's parse: the one-item delta, else the whole edited text.
            let (edit, allocs) = counted(|| front_end.edit_line(*line, text));
            let Some(edit) = edit else {
                let (module, more) = counted(|| {
                    apply_line_edit(source, *line, text)
                        .map(|edited| svparse::parse_module(&edited))
                });
                parse.add(allocs + more);
                let Some(Ok(module)) = module else { continue };
                if svparse::emits_as(&module, source) {
                    continue;
                }
                let (design, allocs) = counted(|| Design::from_module(module));
                elaborate.add(allocs);
                let Ok(design) = design else { continue };
                check.add(counted(|| checker.passes(&design)).1);
                continue;
            };
            parse.add(allocs);
            delta += 1;
            if front_end.is_no_op(source, &edit) {
                continue;
            }
            front_end.lend(edit, |module| {
                let (design, allocs) = counted(|| Design::from_module(module));
                elaborate.add(allocs);
                let Ok(design) = design else {
                    return ((), None);
                };
                check.add(counted(|| checker.passes(&design)).1);
                ((), Some(design.module))
            });
        }
    }
    assert_eq!(calls, 63, "one solve per (model, case)");
    assert!(
        check.runs > 100,
        "only {} candidates reached the check",
        check.runs
    );
    let sample = sample_allocs as f64 / calls as f64;
    println!("{calls} solve calls: sample {sample:.1} allocations each");
    println!(
        "{} front ends: {:.1} allocations each",
        front_ends.runs,
        front_ends.mean()
    );
    println!(
        "{} candidates ({delta} delta): parse {:.1} allocations each, \
         elaborate {:.1} ({}), passes {:.1} ({})",
        parse.runs,
        parse.mean(),
        elaborate.mean(),
        elaborate.runs,
        check.mean(),
        check.runs
    );
    assert!(
        delta * 100 >= parse.runs * DELTA_SHARE_PCT,
        "only {delta} of {} candidates took the one-item delta",
        parse.runs
    );
    let within = |stage: &str, mean: f64, ceiling: u64| {
        assert!(mean <= ceiling as f64, "{stage}: {mean:.1} allocations");
    };
    within("sample", sample, SAMPLE_CEILING);
    within("front end", front_ends.mean(), FRONT_END_CEILING);
    within("parse", parse.mean(), PARSE_CEILING);
    within("elaborate", elaborate.mean(), ELABORATE_CEILING);
    within("passes", check.mean(), CHECK_CEILING);
}
