//! `augment`: the data-augmentation half of the paper — the stage entry
//! points behind `svdata::run_pipeline` (filter, inject and validate, CoT).
//!
//! Golden designs pass their assertions, so every bounded check of a golden
//! sweeps its whole stimulus set: this is the workload where `svsim` does
//! nearly all the work and `svserve` none.

use crate::bench::{measure, timed, Clock, Gate, Lap, Plan, Report};
use crate::layers;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::workloads::pipeline_config;
use svdata::pipeline::{
    stage1_filter, stage2_generate, stage3_cot, AcceptedDesign, Stage1Output, Stage2Output, SvaCase,
};
use svdata::{PipelineConfig, SvaBugEntry, VerilogBugEntry};
use svgen::{CorpusGenerator, RawSample};
use svmutate::{classify_visibility, single_line_diff, BugInjector, BugProfile};
use svsim::failing_assertions_in_log;
use svverify::Verdict;

/// What one pass over the stage entry points produces.
#[derive(PartialEq)]
struct Staged {
    stage1: Stage1Output,
    /// One output per accepted design, in corpus order.
    stage2: Vec<Stage2Output>,
    sva_bug: Vec<SvaBugEntry>,
}

impl Staged {
    /// Mutants that reached (or were discarded on the way to) a bounded check.
    fn mutants(&self) -> usize {
        self.stage2
            .iter()
            .map(|s| s.cases.len() + s.verilog_bug.len() + s.discarded_mutants)
            .sum()
    }

    fn invalid_goldens(&self) -> usize {
        self.stage2.iter().map(|s| s.invalid_sva_designs).sum()
    }

    /// Bounded checks of one pass: one per accepted golden, one per mutant.
    fn checks(&self) -> usize {
        self.stage1.accepted.len() + self.mutants()
    }
}

/// The pipeline of `svdata::run_pipeline`, one stage entry point at a time
/// and stage 2 one design at a time, so that every timed call is short.
fn staged(config: &PipelineConfig, corpus: &[RawSample], clock: &mut impl Clock) -> Staged {
    let stage1 = clock.time("svdata.stage1", || stage1_filter(corpus));
    let stage2: Vec<Stage2Output> = stage1
        .accepted
        .iter()
        .map(|design| {
            clock.time("svdata.stage2", || {
                stage2_generate(std::slice::from_ref(design), config)
            })
        })
        .collect();
    let cases: Vec<SvaCase> = stage2
        .iter()
        .flat_map(|s| s.cases.iter().cloned())
        .collect();
    let (sva_bug, _) = clock.time("svdata.stage3", || stage3_cot(cases, config.seed ^ 0xC07));
    Staged {
        stage1,
        stage2,
        sva_bug,
    }
}

struct State {
    config: PipelineConfig,
    corpus: Vec<RawSample>,
    /// What the untimed warm-up pass produced; every round must reproduce it.
    reference: Staged,
    gate: Gate,
}

fn setup(plan: &Plan) -> State {
    // The seed picks each family's variant and which samples arrive corrupted
    // or duplicated; the golden population's cost does not move with it.
    let config = pipeline_config(plan, plan.seed);
    let corpus = CorpusGenerator::new(config.corpus).generate();
    let reference = staged(&config, &corpus, &mut Lap::default());
    State {
        config,
        corpus,
        reference,
        gate: Gate::default(),
    }
}

fn round(state: &mut State, lap: &mut Lap) {
    let output = staged(&state.config, &state.corpus, lap);
    state.gate.check(output == state.reference, || {
        "a round's pipeline output differs from the warm-up pass".into()
    });
}

pub fn run(plan: &Plan) -> Report {
    let (state, timing) = measure(plan, || setup(plan), round);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", timing.setup_s);
    metrics.set("wall_s", timing.wall_s());
    metrics.set(
        "work_per_s",
        state.reference.checks() as f64 / timing.wall_s(),
    );
    Report {
        gate: state.gate,
        metrics,
    }
}

pub fn trace(plan: &Plan, t: &mut Tracer) -> Report {
    let (mut state, timing) = measure(plan, || setup(plan), round);
    let mut metrics = Metrics::default();
    timing.describe(&mut metrics);

    // Parent spans: the real entry points on the same inputs.
    let corpus = t.span("svgen.generate", |_| {
        CorpusGenerator::new(state.config.corpus).generate()
    });
    let (traced, traced_s) = timed(|| staged(&state.config, &corpus, t));
    state
        .gate
        .check(corpus == state.corpus && traced == state.reference, || {
            "the traced pass differs from the warm-up pass".into()
        });

    // Child spans: stage 2's inputs re-driven through the layers' public
    // functions.  (Stage 1 is a millisecond; it keeps its parent span only.)
    for (design, expected) in traced.stage1.accepted.iter().zip(&traced.stage2) {
        let replayed = t.span("replay.stage2", |t| replay_stage2(t, design, &state.config));
        state.gate.check(replayed == *expected, || {
            format!(
                "the stage-2 replay of {} does not reproduce stage2_generate",
                design.module_name
            )
        });
    }

    let reference = &state.reference;
    metrics.set("svgen.generate_ms", t.seconds("svgen.generate") * 1e3);
    metrics.set("svgen.samples", corpus.len() as f64);
    layers::report(t, &mut metrics);
    metrics.set("svmutate.inject_ms", t.seconds("svmutate.inject") * 1e3);
    metrics.set("svmutate.mutants", reference.mutants() as f64);
    metrics.set("svdata.stage1_s", t.seconds("svdata.stage1"));
    metrics.set("svdata.stage2_s", t.seconds("svdata.stage2"));
    metrics.set("svdata.stage3_s", t.seconds("svdata.stage3"));
    let entry_s = t.seconds("svdata.stage2");
    let accounted_s = t.accounted("replay.stage2");
    metrics.set("svdata.stage2_other_s", entry_s - accounted_s);
    metrics.set("svdata.cases", reference.sva_bug.len() as f64);
    metrics.set("svdata.invalid_goldens", reference.invalid_goldens() as f64);
    let discarded: usize = reference.stage2.iter().map(|s| s.discarded_mutants).sum();
    metrics.set("svdata.discarded_mutants", discarded as f64);
    metrics.set_pct(
        "svdata.yield_pct",
        reference.sva_bug.len() as f64,
        reference.mutants() as f64,
    );
    timing.describe_trace(&mut metrics, traced_s, entry_s, accounted_s);
    Report {
        gate: state.gate,
        metrics,
    }
}

/// `stage2_generate` of one design from outside: parse → check the golden →
/// emit → inject → per mutant emit → elaborate → stimuli → simulate → check
/// assertions.
fn replay_stage2(t: &mut Tracer, design: &AcceptedDesign, config: &PipelineConfig) -> Stage2Output {
    let mut out = Stage2Output::default();
    let Ok(golden) = layers::parse(t, &design.source) else {
        out.discarded_mutants += 1;
        return out;
    };
    if !layers::check_module(t, &golden, &config.check).passed() {
        out.invalid_sva_designs += 1;
        return out;
    }
    let golden_text = layers::emit(t, &golden);
    // A slice of one design: its index, which salts the injector's seed, is 0.
    let bugs = t.span("svmutate.inject", |_| {
        BugInjector::new(config.seed).inject_batch(&golden, config.bugs_per_design)
    });
    for bug in bugs {
        let buggy_text = layers::emit(t, &bug.buggy);
        let Some(diff) = single_line_diff(&golden_text, &buggy_text) else {
            out.discarded_mutants += 1;
            continue;
        };
        match layers::check_module(t, &bug.buggy, &config.check) {
            Verdict::Unverifiable { .. } => out.discarded_mutants += 1,
            Verdict::Fail { witness, .. } => {
                let Ok(outcome) = svsim::simulate(&bug.buggy, &witness) else {
                    out.discarded_mutants += 1;
                    continue;
                };
                let failing = failing_assertions_in_log(&outcome.log);
                let visibility = classify_visibility(&golden, &bug.affected_signals, &failing);
                out.cases.push(SvaCase {
                    module_name: design.module_name.clone(),
                    spec: design.spec.clone(),
                    golden_source: golden_text.clone(),
                    buggy_source: buggy_text.clone(),
                    logs: outcome.log,
                    failing_assertions: failing,
                    bug_line_number: diff.line,
                    buggy_line: diff.buggy_line,
                    fixed_line: diff.golden_line,
                    profile: BugProfile::new(bug.kind, bug.structural, visibility),
                    code_lines: buggy_text.lines().count(),
                });
            }
            Verdict::Pass { .. } => out.verilog_bug.push(VerilogBugEntry {
                module_name: design.module_name.clone(),
                spec: design.spec.clone(),
                buggy_source: buggy_text,
                golden_source: golden_text.clone(),
                bug_line_number: diff.line,
                buggy_line: diff.buggy_line,
                fixed_line: diff.golden_line,
            }),
        }
    }
    out
}
