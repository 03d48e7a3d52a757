//! `svbench`: the repository's benchmark.  Measures the paper flow end to end
//! on four workloads (`run`), each layer from outside (`trace`), and its own
//! repeatability (`aa`).  See `benchmark/README.md`.

mod aa;
mod bench;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use bench::Plan;
use metrics::Manifest;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Each of these silently changes what the library does under the harness.
const FORBIDDEN_ENV: [&str; 10] = [
    "ASSERTSOLVER_CACHE_DIR",
    "ASSERTSOLVER_JOURNAL_DIR",
    "ASSERTSOLVER_PROFILE_DIR",
    "ASSERTSOLVER_SHARD_SOCKETS",
    "ASSERTSOLVER_TRACE",
    "ASSERTSOLVER_TELEMETRY",
    "ASSERTSOLVER_VERIFY_WORKERS",
    "ASSERTSOLVER_DRIVERS",
    "ASSERTSOLVER_SCALE",
    "ASSERTSOLVER_WINDOW_WIDTH",
];

const USAGE: &str =
    "usage: svbench [run|trace|aa] --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace 0|1] [--smoke] [--sets <n>]";

#[derive(PartialEq)]
enum Mode {
    Run,
    Trace,
    Aa,
}

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::Run,
        workload: None,
        seed: 1,
        seconds: None,
        smoke: false,
        sets: 2,
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = |name: &str| rest.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "run" => parsed.mode = Mode::Run,
            "trace" => parsed.mode = Mode::Trace,
            "aa" => parsed.mode = Mode::Aa,
            "--smoke" => parsed.smoke = true,
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => parsed.seed = number(value("--seed")?)?,
            "--seconds" => parsed.seconds = Some(number(value("--seconds")?)?),
            "--sets" => parsed.sets = number(value("--sets")?)?,
            "--trace" => match value("--trace")?.as_str() {
                "0" => {}
                "1" => parsed.mode = Mode::Trace,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{text} is not a number"))
}

/// The benchmark's own output directory; nothing is written outside it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("svbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = FORBIDDEN_ENV
        .iter()
        .find(|name| std::env::var_os(name).is_some())
    {
        eprintln!("svbench: {name} is set and would change the workload; unset it");
        return ExitCode::from(2);
    }
    let manifest = Manifest::load();
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    if args.mode == Mode::Aa {
        return aa::run(&manifest, args.seed, seconds, args.smoke, args.sets);
    }
    let Some(workload) = args.workload.filter(|w| manifest.workloads.contains(w)) else {
        eprintln!(
            "svbench: --workload must be one of {:?}\n{USAGE}",
            manifest.workloads
        );
        return ExitCode::from(2);
    };

    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("svbench: cannot create {}: {err}", scratch.display());
        return ExitCode::from(2);
    }
    let traced = args.mode == Mode::Trace;
    // A traced run measures untraced rounds only as the baseline its traced
    // pass is compared with; a third of the time and one round are enough.
    let plan = Plan {
        seed: args.seed,
        min_seconds: if traced { seconds / 3.0 } else { seconds },
        min_rounds: if traced || args.smoke { 1 } else { 3 },
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let mut tracer = spans::Tracer::new();
    let report = if traced {
        workloads::trace(&workload, &plan, &mut tracer)
    } else {
        workloads::run(&workload, &plan)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if traced {
        let path = out_dir().join(format!("trace-{workload}.json"));
        if let Err(err) = std::fs::write(&path, tracer.render_json(&workload)) {
            eprintln!("svbench: cannot write {}: {err}", path.display());
        }
    }

    let declared = if traced {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    if let Some(failure) = report.gate.first_failure() {
        eprintln!(
            "svbench: {} of {} checks failed, first: {failure}",
            report.gate.failed, report.gate.attempted
        );
    }
    // An end-to-end metric left unset would print as 0 and pass for a measurement.
    let unset = declared
        .iter()
        .find(|d| !traced && report.metrics.get(&d.name).is_none());
    if let Some(unset) = unset {
        eprintln!("svbench: {workload} did not measure {}", unset.name);
        return ExitCode::FAILURE;
    }
    let correct = report.gate.failed == 0;
    match report.metrics.render(
        declared,
        correct,
        report.gate.attempted.max(1),
        report.gate.failed,
    ) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("svbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
