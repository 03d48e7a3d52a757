//! `eval_cold` and `eval_warm`: the Table III protocol (n = 20, T = 0.2, the
//! bounded check decides "solves the failure") for the base, SFT and
//! AssertSolver checkpoints over SVA-Bug and human cases of one training run.
//!
//! Cold calls `evaluate_model` once per model and case, each call with fresh
//! pools and no cache directory: hundreds of distinct wrong candidates are
//! parsed, elaborated and checked with an early exit on the first failing
//! stimulus, with sampling, both pools and the session engine on the path.
//! Warm calls it once per model over all the cases, with `cache_dir` pointing
//! at snapshots a cold evaluation wrote during setup: it reads where cold
//! writes, so snapshot load, cache preload and cache-hit sessions do all the
//! work and `svsim` none.

use crate::bench::{measure, timed, Clock, Gate, Lap, Plan, Report, WORKERS};
use crate::layers;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::workloads::pipeline_config;
use assertsolver::{
    apply_line_edit, evaluate_model_instrumented, evaluate_model_journaled,
    evaluate_model_observed, evaluate_model_with, train, EvalConfig, EvalVerifier, JournalManifest,
    ModelEvaluation, TrainConfig, TrainedArtifacts,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use svdata::SvaBugEntry;
use svgen::CorpusConfig;
use svmodel::{AssertSolverModel, CaseInput, RepairModel, Response};
use svserve::persist::{
    load_response_snapshot, load_verdict_snapshot, save_response_snapshot_aged,
    save_verdict_snapshot_aged,
};
use svserve::{
    serve_scoped, MetricsRegistry, PersistSpec, RepairRequest, SnapshotLoad, TelemetryHandle,
    TraceHandle, TracerHandle, VerifyMetrics,
};

/// One training run and the cases every evaluation judges.
pub struct Trained {
    pub artifacts: TrainedArtifacts,
    /// The first [`Plan::machine_cases`] SVA-Bug cases (either side of the
    /// split) and the human cases, shuffled by the seed.
    pub cases: Vec<SvaBugEntry>,
    /// Seconds `train` took, its pipeline run included.
    pub train_s: f64,
}

impl Trained {
    pub fn models(&self) -> [(&'static str, &AssertSolverModel); 3] {
        [
            ("base", &self.artifacts.base),
            ("sft", &self.artifacts.sft),
            ("assertsolver", &self.artifacts.assert_solver),
        ]
    }
}

/// Trains on the default corpus and draws the cases in an order the seed
/// decides.  The seed does not reach the corpus here: a different corpus is
/// a different model and different candidates, and how many of those happen
/// to pass a 4096-sequence sweep moved a cold round by 13 % between seeds.
/// Every seed therefore evaluates the same cases, in its own order.
pub fn train_corpus(plan: &Plan) -> Trained {
    let config = TrainConfig {
        pipeline: pipeline_config(plan, CorpusConfig::default().seed),
        ..TrainConfig::default()
    };
    let (artifacts, train_s) = timed(|| train(&config));
    let machine = artifacts.datasets.sva_bug.iter().take(plan.machine_cases());
    let human = artifacts.sva_eval.human.iter().take(plan.human_cases());
    let mut cases: Vec<SvaBugEntry> = machine.chain(human).cloned().collect();
    cases.shuffle(&mut StdRng::seed_from_u64(plan.seed));
    Trained {
        artifacts,
        cases,
        train_s,
    }
}

/// The requests an evaluation under `config` submits for `cases`.
pub fn requests(cases: &[SvaBugEntry], config: &EvalConfig) -> Vec<RepairRequest> {
    cases
        .iter()
        .map(|entry| {
            RepairRequest::new(
                CaseInput::from_entry(entry),
                config.samples,
                config.temperature,
            )
        })
        .collect()
}

/// The paper protocol with the pool shape pinned (never `0 = auto`).
fn eval_config(plan: &Plan, cache_dir: Option<&Path>) -> EvalConfig {
    EvalConfig {
        check: plan.check(EvalConfig::default().check),
        workers: WORKERS,
        verify_workers: WORKERS,
        drivers: WORKERS,
        cache_dir: cache_dir.map(|dir| dir.to_string_lossy().into_owned()),
        ..EvalConfig::default()
    }
}

/// One model's evaluation: what `assertsolver::evaluate_model` does when no
/// environment knob is set, keeping the verifier's final metrics.
fn evaluate(
    model: &AssertSolverModel,
    cases: &[SvaBugEntry],
    config: &EvalConfig,
) -> (ModelEvaluation, VerifyMetrics) {
    let verifier = EvalVerifier::start(config);
    let evaluation = evaluate_model_with(model, cases, config, &verifier);
    (evaluation, verifier.shutdown())
}

const EVALUATE_SPANS: [&str; 3] = [
    "core.evaluate.base",
    "core.evaluate.sft",
    "core.evaluate.assertsolver",
];

/// One pass of the three models over the cases.
struct Pass {
    /// Per model, the evaluation of every case (merged when evaluated apart).
    evaluations: Vec<ModelEvaluation>,
    /// Per model, the verify pools' counters summed over its calls.
    verify: Vec<VerifyTally>,
}

/// The verify-pool counters the gates and the ledger read.
#[derive(Default)]
struct VerifyTally {
    judged: u64,
    hits: u64,
    warm_hits: u64,
    misses: u64,
    refusals: u64,
}

impl VerifyTally {
    fn add(&mut self, metrics: &VerifyMetrics) {
        self.judged += metrics.completed;
        self.hits += metrics.cache_hits;
        self.warm_hits += metrics.warm_hits;
        self.misses += metrics.cache_misses;
        self.refusals += metrics.verdict_panics + metrics.shed_busy + metrics.snapshot_rejects;
    }
}

/// Evaluates every model; `chunk` cases per `evaluate_model` call.
fn evaluate_all(
    trained: &Trained,
    config: &EvalConfig,
    chunk: usize,
    clock: &mut impl Clock,
) -> Pass {
    let mut pass = Pass {
        evaluations: Vec::new(),
        verify: Vec::new(),
    };
    for (index, (name, model)) in trained.models().into_iter().enumerate() {
        let mut merged = ModelEvaluation {
            model: name.to_string(),
            results: Vec::new(),
        };
        let mut tally = VerifyTally::default();
        for cases in trained.cases.chunks(chunk) {
            let (evaluation, verify) =
                clock.time(EVALUATE_SPANS[index], || evaluate(model, cases, config));
            merged.model = evaluation.model;
            merged.results.extend(evaluation.results);
            tally.add(&verify);
        }
        pass.evaluations.push(merged);
        pass.verify.push(tally);
    }
    pass
}

/// Every case judged with n samples, no pool panic or refusal, and results
/// identical to `reference` (a cold pass).  A warm pass must also never
/// miss its verdict cache.
fn gate_pass(
    gate: &mut Gate,
    trained: &Trained,
    config: &EvalConfig,
    pass: &Pass,
    reference: &[ModelEvaluation],
    warm: bool,
) {
    for (index, (name, _)) in trained.models().into_iter().enumerate() {
        let evaluation = &pass.evaluations[index];
        let verify = &pass.verify[index];
        gate.check(evaluation.results.len() == trained.cases.len(), || {
            format!("{name}: cases are missing from the evaluation")
        });
        for result in &evaluation.results {
            gate.check(result.n == config.samples, || {
                format!("{name}: {} drew {} samples", result.module_name, result.n)
            });
        }
        gate.check(verify.refusals == 0, || {
            format!("{name}: the verify pool reported panics, refusals or rejected snapshots")
        });
        gate.check(*evaluation == reference[index], || {
            format!("{name}: results differ from the cold reference")
        });
        if warm {
            gate.check(verify.misses == 0, || {
                format!("{name}: a warm evaluation missed its verdict cache")
            });
        }
    }
}

fn end_to_end(metrics: &mut Metrics, setup_s: f64, wall_s: f64, cases: usize) {
    metrics.set("setup_s", setup_s);
    metrics.set("wall_s", wall_s);
    metrics.set("work_per_s", (3 * cases) as f64 / wall_s);
}

fn pass_at_k(metrics: &mut Metrics, reference: &[ModelEvaluation]) {
    let passk = reference[2].passk();
    metrics.set("core.pass1_pct", passk.pass1_percent());
    metrics.set("core.pass5_pct", passk.pass5_percent());
}

fn verify_metrics(metrics: &mut Metrics, verify: &[VerifyTally]) {
    let sum = |field: fn(&VerifyTally) -> u64| verify.iter().map(field).sum::<u64>() as f64;
    let judged = sum(|v| v.judged);
    metrics.set("svserve.verify.judged", judged);
    metrics.set_pct("svserve.verify.hit_pct", sum(|v| v.hits), judged);
    metrics.set_pct("svserve.verify.warm_hit_pct", sum(|v| v.warm_hits), judged);
}

// ---------------------------------------------------------------------------
// eval_cold
// ---------------------------------------------------------------------------

struct Cold {
    trained: Trained,
    config: EvalConfig,
    /// The first round's results; every later pass must reproduce them.
    reference: Option<Vec<ModelEvaluation>>,
    gate: Gate,
}

/// One case per `evaluate_model` call keeps every timed call short.
const COLD_CHUNK: usize = 1;

fn cold_setup(plan: &Plan) -> Cold {
    Cold {
        trained: train_corpus(plan),
        config: eval_config(plan, None),
        reference: None,
        gate: Gate::default(),
    }
}

fn cold_round(state: &mut Cold, lap: &mut Lap) {
    let pass = evaluate_all(&state.trained, &state.config, COLD_CHUNK, lap);
    let reference = state
        .reference
        .get_or_insert_with(|| pass.evaluations.clone());
    gate_pass(
        &mut state.gate,
        &state.trained,
        &state.config,
        &pass,
        reference,
        false,
    );
}

pub fn run_cold(plan: &Plan) -> Report {
    let (state, timing) = measure(plan, || cold_setup(plan), cold_round);
    let mut metrics = Metrics::default();
    end_to_end(
        &mut metrics,
        timing.setup_s,
        timing.wall_s(),
        state.trained.cases.len(),
    );
    Report {
        gate: state.gate,
        metrics,
    }
}

const SOLVE_SPANS: [&str; 3] = [
    "svmodel.solve.base",
    "svmodel.solve.sft",
    "svmodel.solve.assertsolver",
];

/// One pass with a parent span around each `evaluate_model` call; reports
/// the seconds per model and returns their sum.
fn traced_pass(
    t: &mut Tracer,
    metrics: &mut Metrics,
    trained: &Trained,
    config: &EvalConfig,
    chunk: usize,
) -> (Pass, f64) {
    let pass = evaluate_all(trained, config, chunk, t);
    let seconds = EVALUATE_SPANS.map(|name| t.seconds(name));
    metrics.set("core.evaluate_s.base", seconds[0]);
    metrics.set("core.evaluate_s.sft", seconds[1]);
    metrics.set("core.evaluate_s.assertsolver", seconds[2]);
    (pass, seconds.iter().sum())
}

pub fn trace_cold(plan: &Plan, t: &mut Tracer) -> Report {
    let (state, timing) = measure(plan, || cold_setup(plan), cold_round);
    let Cold {
        trained,
        config,
        reference,
        mut gate,
    } = state;
    let (trained, config) = (&trained, &config);
    let reference = reference.expect("at least one round ran");
    let mut metrics = Metrics::default();
    timing.describe(&mut metrics);

    // Parent spans: the real entry point, once per model and case.
    let (pass, entry_s) = traced_pass(t, &mut metrics, trained, config, COLD_CHUNK);
    gate_pass(&mut gate, trained, config, &pass, &reference, false);

    // Child spans: the service's samples, then every distinct candidate
    // through edit → parse → emit → elaborate → bounded check.
    t.span("replay.evaluate", |t| {
        for (index, (name, model)) in trained.models().into_iter().enumerate() {
            let counts = replay_model(t, model, SOLVE_SPANS[index], &trained.cases, config);
            let expected: Vec<(usize, usize)> = reference[index]
                .results
                .iter()
                .map(|r| (r.n, r.c))
                .collect();
            gate.check(counts == expected, || {
                format!("{name}: the replay's per-case correct counts differ from evaluate_model")
            });
        }
    });
    let accounted_s = t.accounted("replay.evaluate");

    layers::report(t, &mut metrics);
    let samples = (trained.cases.len() * config.samples) as f64;
    metrics.set_per(
        "svmodel.solve_us_per_sample.base",
        t.seconds(SOLVE_SPANS[0]) * 1e6,
        samples,
    );
    metrics.set_per(
        "svmodel.solve_us_per_sample.assertsolver",
        t.seconds(SOLVE_SPANS[2]) * 1e6,
        samples,
    );
    metrics.set_pct(
        "svmodel.distinct_pct",
        t.counted("svmodel.distinct") as f64,
        t.counted("svmodel.responses") as f64,
    );
    metrics.set_pct(
        "core.fastpath_pct",
        t.counted("core.fastpath") as f64,
        t.counted("svmodel.distinct") as f64,
    );
    metrics.set("core.evaluate_other_s", entry_s - accounted_s);
    pass_at_k(&mut metrics, &reference);
    verify_metrics(&mut metrics, &pass.verify);
    facility_metrics(&mut metrics, trained, config, &mut gate);
    timing.describe_trace(&mut metrics, entry_s, entry_s, accounted_s);
    Report { gate, metrics }
}

/// `evaluate_model` from outside for one model: sample through a repair
/// service under the evaluation's `service_config()`, collapse identical
/// candidates, judge each distinct one.  Returns `(n, c)` per case.
fn replay_model(
    t: &mut Tracer,
    model: &AssertSolverModel,
    solve_span: &'static str,
    cases: &[SvaBugEntry],
    config: &EvalConfig,
) -> Vec<(usize, usize)> {
    let requests = requests(cases, config);
    let outcomes = t.span(solve_span, |_| {
        serve_scoped(model, config.service_config(), |service| {
            service.solve_all(requests)
        })
    });
    cases
        .iter()
        .zip(&outcomes)
        .map(|(entry, outcome)| {
            let mut distinct: Vec<(&Response, usize)> = Vec::new();
            for response in outcome.responses.iter() {
                let same = |seen: &&Response| {
                    seen.bug_line_number == response.bug_line_number
                        && seen.fixed_line == response.fixed_line
                };
                match distinct.iter_mut().find(|(seen, _)| same(seen)) {
                    Some((_, count)) => *count += 1,
                    None => distinct.push((response, 1)),
                }
            }
            t.count("svmodel.responses", outcome.responses.len() as u64);
            t.count("svmodel.distinct", distinct.len() as u64);
            let correct = distinct
                .into_iter()
                .filter(|(response, _)| judge(t, entry, response, config))
                .map(|(_, count)| count)
                .sum();
            (outcome.responses.len(), correct)
        })
        .collect()
}

/// `response_is_correct` from outside.
fn judge(t: &mut Tracer, entry: &SvaBugEntry, response: &Response, config: &EvalConfig) -> bool {
    let fix = response.fixed_line.trim();
    if response.bug_line_number == entry.bug_line_number && fix == entry.fixed_line.trim() {
        t.count("core.fastpath", 1);
        return true;
    }
    if response.bug_line_number == 0 || fix.is_empty() {
        t.count("core.fastpath", 1);
        return false;
    }
    let Some(source) = apply_line_edit(&entry.buggy_source, response.bug_line_number, fix) else {
        return false;
    };
    let Ok(repaired) = layers::parse(t, &source) else {
        return false;
    };
    if layers::emit(t, &repaired) == entry.buggy_source {
        return false;
    }
    layers::check_module(t, &repaired, &config.check).passed()
}

/// The AssertSolver evaluation as one call over all the cases, plain and
/// then with one observability facility on at a time.
fn facility_metrics(
    metrics: &mut Metrics,
    trained: &Trained,
    config: &EvalConfig,
    gate: &mut Gate,
) {
    let model = &trained.artifacts.assert_solver;
    let cases = &trained.cases;
    let ((plain, _), plain_s) = timed(|| evaluate(model, cases, config));
    let manifest = JournalManifest::for_protocol("", "", &model.identity(), cases, config);
    let ((journaled, _), journal_s) =
        timed(|| evaluate_model_journaled(model, cases, config, &manifest));
    let (traced, trace_s) = timed(|| {
        let verifier = EvalVerifier::start(config);
        let evaluation = evaluate_model_observed(
            model,
            cases,
            config,
            &verifier,
            &TracerHandle::off(),
            &TelemetryHandle::off(),
            &TraceHandle::new(0),
        );
        verifier.shutdown();
        evaluation
    });
    let telemetry = TelemetryHandle::new(Arc::new(MetricsRegistry::new()));
    let (instrumented, telemetry_s) =
        timed(|| evaluate_model_instrumented(model, cases, config, &telemetry));
    gate.check(
        journaled == plain && traced == plain && instrumented == plain,
        || "an observability facility changed the evaluation".into(),
    );
    metrics.set("core.evaluate_batch_s.assertsolver", plain_s);
    metrics.set("svserve.journal.eval_s", journal_s);
    metrics.set("svserve.trace.eval_s", trace_s);
    metrics.set("svserve.telemetry.eval_s", telemetry_s);
}

// ---------------------------------------------------------------------------
// eval_warm
// ---------------------------------------------------------------------------

struct Warm {
    trained: Trained,
    /// Snapshots exactly as the cold evaluation left them.
    pristine: PathBuf,
    /// The directory evaluations read and rewrite; restored after each round.
    work: PathBuf,
    config: EvalConfig,
    /// What the cold evaluation that wrote the snapshots answered.
    reference: Vec<ModelEvaluation>,
    gate: Gate,
}

/// One `evaluate_model` call per model: a warm evaluation loads whole
/// snapshots, so splitting it by case would time the load once per case.
const WARM_CHUNK: usize = usize::MAX;

fn warm_setup(plan: &Plan) -> Warm {
    let pristine = plan.scratch.join("pristine");
    let work = plan.scratch.join("work");
    std::fs::create_dir_all(&pristine).expect("scratch directory is writable");
    let trained = train_corpus(plan);
    let cold = evaluate_all(
        &trained,
        &eval_config(plan, Some(&pristine)),
        WARM_CHUNK,
        &mut Lap::default(),
    );
    restore(&pristine, &work);
    Warm {
        trained,
        pristine,
        config: eval_config(plan, Some(&work)),
        work,
        reference: cold.evaluations,
        gate: Gate::default(),
    }
}

/// Makes `work` a fresh copy of `pristine`, so every round reads the same bytes.
fn restore(pristine: &Path, work: &Path) {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).expect("scratch directory is writable");
    for file in std::fs::read_dir(pristine).expect("snapshot directory exists") {
        let file = file.expect("snapshot directory is readable");
        std::fs::copy(file.path(), work.join(file.file_name())).expect("snapshot copies");
    }
}

fn warm_round(state: &mut Warm, lap: &mut Lap) {
    let pass = evaluate_all(&state.trained, &state.config, WARM_CHUNK, lap);
    restore(&state.pristine, &state.work);
    gate_pass(
        &mut state.gate,
        &state.trained,
        &state.config,
        &pass,
        &state.reference,
        true,
    );
}

pub fn run_warm(plan: &Plan) -> Report {
    let (state, timing) = measure(plan, || warm_setup(plan), warm_round);
    let mut metrics = Metrics::default();
    end_to_end(
        &mut metrics,
        timing.setup_s,
        timing.wall_s(),
        state.trained.cases.len(),
    );
    Report {
        gate: state.gate,
        metrics,
    }
}

pub fn trace_warm(plan: &Plan, t: &mut Tracer) -> Report {
    let (state, timing) = measure(plan, || warm_setup(plan), warm_round);
    let Warm {
        trained,
        pristine,
        work,
        config,
        reference,
        mut gate,
    } = state;
    let (trained, config) = (&trained, &config);
    let mut metrics = Metrics::default();
    timing.describe(&mut metrics);

    // Parent spans: the real entry point, once per model.
    let (pass, entry_s) = traced_pass(t, &mut metrics, trained, config, WARM_CHUNK);
    restore(&pristine, &work);
    gate_pass(&mut gate, trained, config, &pass, &reference, true);

    // Child spans: what a warm evaluation does before its first session —
    // read each snapshot back — and after its last — write it again.
    let pristine_config = eval_config(plan, Some(&pristine));
    let counts = t.span("replay.snapshots", |t| {
        replay_snapshots(t, &plan.scratch.join("resaved"), trained, &pristine_config)
    });
    for (index, (name, _)) in trained.models().into_iter().enumerate() {
        let expected: Vec<usize> = reference[index].results.iter().map(|r| r.c).collect();
        gate.check(counts.get(index) == Some(&expected), || {
            format!("{name}: the snapshots do not reproduce the per-case correct counts")
        });
    }
    let persist_s = t.seconds("svserve.persist.load") + t.seconds("svserve.persist.save");

    let bytes = t.counted("svserve.persist.bytes") as f64;
    metrics.set("svserve.persist.load_s", t.seconds("svserve.persist.load"));
    metrics.set("svserve.persist.save_s", t.seconds("svserve.persist.save"));
    metrics.set("svserve.persist.bytes", bytes);
    metrics.set_per(
        "svserve.persist.load_mb_per_s",
        bytes / 1e6,
        t.seconds("svserve.persist.load"),
    );
    metrics.set_per(
        "serde_json.parse_mb_per_s",
        bytes / 1e6,
        t.seconds("serde_json.parse"),
    );
    metrics.set_per(
        "serde_json.render_mb_per_s",
        bytes / 1e6,
        t.seconds("serde_json.render"),
    );
    // What the evaluations took beyond reading and rewriting their
    // snapshots, spread over the sessions: 0 while the load's own
    // run-to-run difference is larger than all the sessions together.
    let other_s = entry_s - persist_s;
    metrics.set_per(
        "svserve.session.us_per_session",
        other_s.max(0.0) * 1e6,
        (3 * trained.cases.len()) as f64,
    );
    metrics.set("core.evaluate_other_s", other_s);
    pass_at_k(&mut metrics, &reference);
    verify_metrics(&mut metrics, &pass.verify);
    timing.describe_trace(&mut metrics, entry_s, entry_s, persist_s);
    Report { gate, metrics }
}

/// Loads every snapshot `pristine` (the configuration that wrote them)
/// names through `svserve::persist`, and its text through `serde_json`
/// alone; saves it again under `resaved`; recounts each case's correct
/// samples from what was loaded.  Returns the counts per model, fewer than
/// three models on a rejected snapshot.
fn replay_snapshots(
    t: &mut Tracer,
    resaved: &Path,
    trained: &Trained,
    pristine: &EvalConfig,
) -> Vec<Vec<usize>> {
    std::fs::create_dir_all(resaved).expect("scratch directory is writable");
    let resave_spec = |spec: &PersistSpec| PersistSpec {
        path: resaved.join(spec.path.file_name().expect("snapshot files are named")),
        ..spec.clone()
    };

    let verdict_spec = pristine.verify_config().persist.expect("cache_dir is set");
    json_round_trip(t, &verdict_spec.path);
    let loaded = t.span("svserve.persist.load", |_| {
        load_verdict_snapshot(&verdict_spec)
    });
    let SnapshotLoad::Loaded(verdicts) = loaded else {
        return Vec::new();
    };
    t.span("svserve.persist.save", |_| {
        save_verdict_snapshot_aged(
            &resave_spec(&verdict_spec),
            verdicts.generation,
            verdicts.entries.clone(),
        )
    })
    .expect("scratch directory is writable");
    let verdicts: BTreeMap<_, _> = verdicts
        .entries
        .into_iter()
        .map(|(key, verdict, _)| (key, verdict))
        .collect();

    // Only its key function is used; no candidate is submitted.
    let keyer = EvalVerifier::start(&EvalConfig {
        cache_dir: None,
        ..pristine.clone()
    });
    let requests = requests(&trained.cases, pristine);
    let mut counts = Vec::new();
    for (_, model) in trained.models() {
        let service = pristine.service_config_for(&model.identity());
        let mut spec = service.persist.expect("cache_dir is set");
        // The service folds its seed into the fingerprint before it saves.
        spec.fingerprint
            .extend_from_slice(&service.seed.to_le_bytes());
        json_round_trip(t, &spec.path);
        let loaded = t.span("svserve.persist.load", |_| load_response_snapshot(&spec));
        let SnapshotLoad::Loaded(responses) = loaded else {
            break;
        };
        t.span("svserve.persist.save", |_| {
            save_response_snapshot_aged(
                &resave_spec(&spec),
                responses.generation,
                responses.entries.clone(),
            )
        })
        .expect("scratch directory is writable");
        let responses: BTreeMap<_, _> = responses
            .entries
            .into_iter()
            .map(|(key, set, _)| (key, set))
            .collect();
        let correct = |(entry, request): (&SvaBugEntry, &RepairRequest)| {
            // A case the snapshot lacks can match no reference count.
            responses.get(&request.key()).map_or(usize::MAX, |set| {
                set.iter()
                    .filter(|response| verdicts.get(&keyer.key_for(entry, response)) == Some(&true))
                    .count()
            })
        };
        counts.push(trained.cases.iter().zip(&requests).map(correct).collect());
    }
    keyer.shutdown();
    counts
}

/// One snapshot's text through `serde_json` alone; its size is counted.
fn json_round_trip(t: &mut Tracer, path: &Path) {
    if let Ok(text) = std::fs::read_to_string(path) {
        t.count("svserve.persist.bytes", text.len() as u64);
        layers::json_round_trip(t, &text);
    }
}
