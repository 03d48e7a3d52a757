//! `svobs prof` and `svobs trace`: where an evaluation's time goes, by stage
//! and by session.

use crate::{Failure, Flags, Outcome, Quick};
use assertsolver::{
    evaluate_model_observed, evaluate_model_over_fleet_traced, evaluate_model_profiled,
    EvalVerifier,
};
use std::time::{Duration, Instant};
use svmodel::RepairModel;
use svserve::{
    CollapsedProfile, ShardFleet, TelemetryHandle, TraceForest, TraceHandle, TracerHandle,
};

/// `svobs prof` — dual-clock stage profiler for the quick evaluation protocol.
///
/// Runs the quick protocol over the human-crafted corpus with the telemetry
/// plane's stage timers on (`eval.stage.setup` / `.sessions` / `.report`),
/// prints the collapsed-stack profile to stdout (flamegraph.pl's input
/// format: `stack value` per line), and reports on stderr how much of the
/// measured wall-clock the named stages attribute.  The stage timers tile
/// the evaluation contiguously, so attribution answers "which stage
/// dominates" directly — `evaluate;sessions` is where `ASSERTSOLVER_SCALE`
/// buys parallelism; `setup`/`report` are the serial floor.
///
/// With `--profile-dir` (or `ASSERTSOLVER_PROFILE_DIR`) the same profile is
/// also written as a content-keyed `.folded` artifact.  With
/// `--min-coverage PCT` the exit status asserts attribution: below the bar
/// exits 1, so CI can pin "≥95% of wall-clock is named".
pub fn prof(mut flags: Flags) -> Outcome {
    let (mut seed, mut limit) = (2025u64, usize::MAX);
    let mut profile_dir: Option<String> = None;
    let mut min_coverage: Option<f64> = None;
    while let Some(flag) = flags.token() {
        match flag.as_str() {
            "--seed" => seed = flags.value(&flag)?,
            "--limit" => limit = flags.value(&flag)?,
            "--profile-dir" => profile_dir = Some(flags.value(&flag)?),
            "--min-coverage" => min_coverage = Some(flags.value(&flag)?),
            _ => return Err(Flags::unexpected(&flag)),
        }
    }
    let mut quick = Quick::new(seed, limit, None)?;
    quick.config.profile_dir = profile_dir;

    let wall_start = Instant::now();
    let (evaluation, profile) =
        evaluate_model_profiled(&quick.model, &quick.entries, &quick.config);
    let wall = wall_start.elapsed();

    // The rendered profile must round-trip through the parser — the same
    // contract CI leans on before feeding it to flamegraph tooling.
    let rendered = profile.render();
    let reparsed = CollapsedProfile::parse(&rendered)
        .map_err(|err| format!("rendered profile does not re-parse: {err}"))?;
    if reparsed.total() != profile.total() {
        return Err(Failure::Runtime(
            "profile render/parse round-trip lost observations".to_string(),
        ));
    }
    print!("{rendered}");

    let coverage = 100.0 * profile.total() as f64 / wall.as_nanos().max(1) as f64;
    eprintln!(
        "svobs prof: {} cases, pass@1 {:.1}%, wall {:.3}s, {:.1}% attributed to {} stages",
        quick.entries.len(),
        evaluation.passk().pass1_percent(),
        wall.as_secs_f64(),
        coverage,
        profile.frames().count(),
    );
    match min_coverage {
        Some(bar) if coverage < bar => Err(Failure::Runtime(format!(
            "attribution {coverage:.1}% is below the {bar:.1}% bar"
        ))),
        _ => Ok(()),
    }
}

/// `svobs trace` — render the distributed causal trace tree of an evaluation.
///
/// Runs the quick protocol over the human-crafted corpus with the trace
/// plane on and prints the reconstructed trace forest: one tree per repair
/// session, `session` at the root, `submit`/`sample`/`verify`/`evaluate`
/// (and `rung.N` under a router) below it, each line carrying the span's
/// logical start tick, content-derived units and wall-clock nanoseconds.
/// With `--sockets` the same evaluation runs against a live `shard-serve`
/// fleet instead: the shard-side `sample` spans travel back in `TraceReply`
/// frames and merge into the driver's tree, so the printed forest is the
/// full cross-process reconstruction — byte-identical (in its
/// `--deterministic` projection) to the in-process run.
///
/// * `--deterministic` prints only the content-derived fields (the
///   byte-comparison projection; wall clocks omitted).
/// * `--flame` prints collapsed stacks (`session;verify 1234` per line) —
///   the format `svobs prof`, `flamegraph.pl` and `inferno` consume; the root
///   frame carries the unattributed residual so totals tile.
/// * `--slowest N` prints the N slowest sessions by root wall-clock with
///   their attribution coverage (how much of each session's wall the named
///   child spans explain).
/// * `--min-coverage PCT` exits 1 unless every listed session attributes at
///   least PCT% of its wall-clock to named spans (CI pins 95).
/// * `--out PATH` additionally writes the forest as JSONL (the same artifact
///   form `ASSERTSOLVER_TRACE=1` evaluations drop in the profile dir).
pub fn trace(mut flags: Flags) -> Outcome {
    let (mut seed, mut limit) = (2025u64, usize::MAX);
    let (mut sockets, mut timeout_ms) = (Vec::new(), 5_000u64);
    let (mut deterministic, mut flame) = (false, false);
    let mut slowest: Option<usize> = None;
    let mut min_coverage: Option<f64> = None;
    let mut out: Option<String> = None;
    while let Some(flag) = flags.token() {
        match flag.as_str() {
            "--seed" => seed = flags.value(&flag)?,
            "--limit" => limit = flags.value(&flag)?,
            "--sockets" => sockets = flags.sockets(&flag)?,
            "--timeout-ms" => timeout_ms = flags.value(&flag)?,
            "--deterministic" => deterministic = true,
            "--flame" => flame = true,
            "--slowest" => slowest = Some(flags.value(&flag)?),
            "--min-coverage" => min_coverage = Some(flags.value(&flag)?),
            "--out" => out = Some(flags.value(&flag)?),
            _ => return Err(Flags::unexpected(&flag)),
        }
    }
    let quick = Quick::new(seed, limit, None)?;
    // Salt 0: the salt keys multi-tenant separation, not privacy; a fixed
    // salt keeps the output comparable across invocations and against the
    // `ASSERTSOLVER_TRACE=1` artifact of the same corpus.
    let trace = TraceHandle::new(0);

    let wall_start = Instant::now();
    let verifier = EvalVerifier::start(&quick.config);
    let (evaluation, wire_errors) = if sockets.is_empty() {
        let evaluation = evaluate_model_observed(
            &quick.model,
            &quick.entries,
            &quick.config,
            &verifier,
            &TracerHandle::off(),
            &TelemetryHandle::off(),
            &trace,
        );
        (evaluation, 0)
    } else {
        let fleet = ShardFleet::connect_unix(
            &sockets,
            Some(&quick.model.identity()),
            Duration::from_millis(timeout_ms.max(1)),
        );
        let evaluation = evaluate_model_over_fleet_traced(
            &quick.model,
            &quick.entries,
            &quick.config,
            &fleet,
            &verifier,
            &trace,
        );
        (evaluation, fleet.metrics().wire_errors)
    };
    verifier.shutdown();
    if wire_errors > 0 {
        return Err(Failure::Runtime(format!(
            "{wire_errors} wire errors against the fleet — trace is partial"
        )));
    }
    let wall = wall_start.elapsed();

    let forest = TraceForest::from_spans(trace.drain());
    if forest.is_empty() {
        return Err(Failure::Runtime("no spans collected".to_string()));
    }
    if let Some(path) = &out {
        std::fs::write(path, forest.render_jsonl())
            .map_err(|err| format!("cannot write {path}: {err}"))?;
    }

    if flame {
        print!("{}", forest.collapsed().render());
    } else if let Some(n) = slowest {
        print!("{}", render_slowest(&forest, n));
    } else if deterministic {
        print!("{}", forest.render_deterministic());
    } else {
        print!("{}", forest.render());
    }
    eprintln!(
        "svobs trace: {} cases, pass@1 {:.1}%, wall {:.3}s, {} spans in {} sessions",
        quick.entries.len(),
        evaluation.passk().pass1_percent(),
        wall.as_secs_f64(),
        forest.len(),
        forest.sessions().len(),
    );

    if let Some(bar) = min_coverage {
        let listed = match slowest {
            Some(n) => forest.slowest(n),
            None => forest.sessions(),
        };
        for session in &listed {
            let coverage = 100.0 * session.coverage();
            if coverage < bar {
                return Err(Failure::Runtime(format!(
                    "session {:016x} attributes only {coverage:.1}% of its wall-clock \
                     (bar {bar:.1}%)",
                    session.trace
                )));
            }
        }
    }
    Ok(())
}

/// The `--slowest` listing: rank, trace id, wall, attribution coverage and
/// the root's content-derived units.
fn render_slowest(forest: &TraceForest, n: usize) -> String {
    let mut out = format!(
        "{:>4}  {:>16}  {:>12}  {:>10}  {:>9}  {:>6}\n",
        "rank", "trace", "wall_ns", "attrib_ns", "coverage", "units"
    );
    for (rank, session) in forest.slowest(n).iter().enumerate() {
        out.push_str(&format!(
            "{:>4}  {:016x}  {:>12}  {:>10}  {:>8.1}%  {:>6}\n",
            rank + 1,
            session.trace,
            session.wall_ns,
            session.attributed_ns,
            100.0 * session.coverage(),
            session.units,
        ));
    }
    out
}
