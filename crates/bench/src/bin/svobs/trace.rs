//! `svobs trace`: where an evaluation's time goes, by session and stage.

use crate::{Failure, Flags, Outcome, Quick};
use assertsolver::Evaluation;
use std::time::Instant;
use svserve::{TraceForest, TraceHandle};

/// `svobs trace` — render the causal trace tree of an evaluation.
///
/// Runs the quick protocol over the human-crafted corpus with the trace
/// plane on and prints the rendered trace forest: one tree per traced case,
/// `session` at the root, `submit`/`sample`/`verify`/`evaluate` below it,
/// each line carrying the span's logical start tick, content-derived units
/// and wall-clock nanoseconds.
///
/// * `--deterministic` prints only the content-derived fields (the
///   byte-comparison projection; wall clocks omitted).
/// * `--flame` prints collapsed stacks (`session;verify 1234` per line) —
///   the format `flamegraph.pl` and `inferno` consume; the root frame
///   carries the unattributed residual so totals tile.
/// * `--slowest N` prints the N slowest sessions by root wall-clock with
///   their attribution coverage (how much of each session's wall the named
///   child spans explain).
/// * `--min-coverage PCT` exits 1 unless every listed session attributes at
///   least PCT% of its wall-clock to its stage spans (CI pins 95).
/// * `--out PATH` additionally writes the forest as JSONL, one span per
///   line.
pub fn trace(mut flags: Flags) -> Outcome {
    let (mut seed, mut limit) = (2025u64, usize::MAX);
    let (mut deterministic, mut flame) = (false, false);
    let mut slowest: Option<usize> = None;
    let mut min_coverage: Option<f64> = None;
    let mut out: Option<String> = None;
    while let Some(flag) = flags.token() {
        match flag.as_str() {
            "--seed" => seed = flags.value(&flag)?,
            "--limit" => limit = flags.value(&flag)?,
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
    // salt keeps the output comparable across invocations.
    let trace = TraceHandle::new(0);

    let wall_start = Instant::now();
    let evaluation = Evaluation::new(&quick.model, &quick.entries, &quick.config)
        .trace(&trace)
        .run()
        .evaluation;
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
