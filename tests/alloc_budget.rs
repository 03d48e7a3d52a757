//! Heap allocations per `solve` and per judged candidate, pinned as counts.
//!
//! A cold evaluation samples every (model, case) once and then parses,
//! elaborates and checks every distinct candidate that misses
//! `response_is_correct`'s textual fast path, so these fixed costs bound it.
//! This binary counts the heap allocations (`alloc`, `alloc_zeroed` and
//! `realloc` calls) of each stage over one `svbench` `eval_cold` round — the
//! three checkpoints, n = 20 at T = 0.2, over the first 16 SVA-Bug cases and
//! the five human cases of a 16-design training run — and holds the mean
//! under a ceiling:
//!
//! | stage | ceiling | mean of | what runs |
//! |---|---|---|---|
//! | sample | 630 | the 63 (model, case) calls | `RepairModel::solve` under the service's seed |
//! | parse | 100 | the judged candidates | `svparse::parse_module` of the edited source |
//! | elaborate | 120 | the judged candidates | `Design::from_module` of the parsed module |
//! | check | 45 | the judged candidates | `BoundedChecker::passes` on the design |
//!
//! The ceilings are counts, not seconds, so they do not move with the host.
//! To re-measure, run `cargo test --release --test alloc_budget -- --nocapture`:
//! the test prints the call and candidate counts and the mean of each stage
//! (debug and release builds allocate alike).  The binary holds one test only,
//! because the counter is global and a second test would count into it.

use assertsolver::{apply_line_edit, train, EvalConfig, TrainConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use svdata::{PipelineConfig, SvaBugEntry};
use svmodel::{CaseInput, RepairModel, Response};
use svserve::{serve_scoped, RepairRequest};
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
const PARSE_CEILING: u64 = 100;
const ELABORATE_CEILING: u64 = 120;
const CHECK_CEILING: u64 = 45;

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

/// One `eval_cold` round's sampling: the `solve` calls and their allocations.
struct Sampling {
    calls: u64,
    allocations: u64,
}

/// The edited sources of every distinct candidate an `eval_cold` round hands
/// the bounded check, per case, with the check that judges them, and what
/// sampling them took.
fn eval_cold_candidates() -> (Vec<(SvaBugEntry, String)>, BoundedChecker, Sampling) {
    let pipeline = PipelineConfig::default();
    let config = TrainConfig {
        pipeline: PipelineConfig {
            corpus: svgen::CorpusConfig {
                golden_designs: 16,
                ..pipeline.corpus
            },
            bugs_per_design: 4,
            ..pipeline
        },
        ..TrainConfig::default()
    };
    let artifacts = train(&config);
    let eval = EvalConfig::default();
    let machine = artifacts.datasets.sva_bug.iter().take(16);
    let cases: Vec<&SvaBugEntry> = machine.chain(&artifacts.sva_eval.human).collect();
    let mut candidates = Vec::new();
    let mut sampling = Sampling {
        calls: 0,
        allocations: 0,
    };
    for model in [&artifacts.base, &artifacts.sft, &artifacts.assert_solver] {
        let model = Sampled {
            model,
            calls: Cell::new(0),
            allocations: Cell::new(0),
        };
        let requests = cases
            .iter()
            .map(|entry| {
                let case = CaseInput::from_entry(entry);
                RepairRequest::new(case, eval.samples, eval.temperature)
            })
            .collect();
        let outcomes = serve_scoped(&model, eval.service_config(), |service| {
            service.solve_all(requests)
        });
        sampling.calls += model.calls.get();
        sampling.allocations += model.allocations.get();
        for (entry, outcome) in cases.iter().zip(outcomes) {
            let mut seen = BTreeSet::new();
            for response in outcome.responses.iter() {
                if let Some(source) = judged_source(entry, response) {
                    if seen.insert(source.clone()) {
                        candidates.push(((*entry).clone(), source));
                    }
                }
            }
        }
    }
    (candidates, BoundedChecker::new(eval.check), sampling)
}

/// The source `response_is_correct` parses for a response, or `None` when the
/// textual fast path or a malformed edit decides it first.
fn judged_source(entry: &SvaBugEntry, response: &Response) -> Option<String> {
    let line_matches = response.bug_line_number == entry.bug_line_number;
    if line_matches && response.fixed_line.trim() == entry.fixed_line.trim() {
        return None;
    }
    if response.bug_line_number == 0 || response.fixed_line.trim().is_empty() {
        return None;
    }
    apply_line_edit(
        &entry.buggy_source,
        response.bug_line_number,
        &response.fixed_line,
    )
}

#[test]
fn a_judged_candidate_stays_under_its_allocation_ceilings() {
    let (candidates, checker, sampling) = eval_cold_candidates();
    let (mut parsed, mut elaborated, mut checked) = (0u64, 0u64, 0u64);
    let (mut parse_allocs, mut elaborate_allocs, mut check_allocs) = (0u64, 0u64, 0u64);
    for (entry, source) in &candidates {
        let (module, allocs) = counted(|| svparse::parse_module(source));
        parsed += 1;
        parse_allocs += allocs;
        let Ok(module) = module else { continue };
        if svparse::emits_as(&module, &entry.buggy_source) {
            continue;
        }
        let (design, allocs) = counted(|| Design::from_module(module));
        elaborated += 1;
        elaborate_allocs += allocs;
        let Ok(design) = design else { continue };
        let (_, allocs) = counted(|| checker.passes(&design));
        checked += 1;
        check_allocs += allocs;
    }
    assert_eq!(sampling.calls, 63, "one solve per (model, case)");
    assert!(checked > 100, "only {checked} candidates reached the check");
    let mean = |total: u64, count: u64| total as f64 / count as f64;
    let sample = mean(sampling.allocations, sampling.calls);
    let parse = mean(parse_allocs, parsed);
    let elaborate = mean(elaborate_allocs, elaborated);
    let check = mean(check_allocs, checked);
    println!(
        "{} solve calls: sample {sample:.1} allocations each",
        sampling.calls
    );
    println!(
        "{} candidates: parse {parse:.1} allocations each ({parsed}), \
         elaborate {elaborate:.1} ({elaborated}), passes {check:.1} ({checked})",
        candidates.len()
    );
    assert!(
        sample <= SAMPLE_CEILING as f64,
        "sample: {sample:.1} allocations"
    );
    assert!(
        parse <= PARSE_CEILING as f64,
        "parse: {parse:.1} allocations"
    );
    assert!(
        elaborate <= ELABORATE_CEILING as f64,
        "elaborate: {elaborate:.1} allocations"
    );
    assert!(
        check <= CHECK_CEILING as f64,
        "passes: {check:.1} allocations"
    );
}
