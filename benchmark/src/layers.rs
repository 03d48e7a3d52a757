//! The layers, driven from outside: each function calls one layer's public
//! entry points under a span, in the order the real flow calls them, and
//! returns what the real flow would have computed so the caller can check the
//! replay against the entry point it mirrors.

use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::time::Instant;
use svparse::Module;
use svsim::{check_assertions, Design, InputVector, Simulator};
use svverify::bmc::CheckMethod;
use svverify::{stimulus, CheckConfig, Verdict};

pub fn parse(t: &mut Tracer, source: &str) -> Result<Module, svparse::ParseError> {
    t.span("svparse.parse", |_| svparse::parse_module(source))
}

pub fn emit(t: &mut Tracer, module: &Module) -> String {
    t.span("svparse.emit", |_| svparse::emit_module(module))
}

/// `Design::elaborate`, preceded by a separately timed semantic check (the
/// same call elaboration makes first) so sema has a number of its own.
pub fn elaborate(t: &mut Tracer, module: &Module) -> Result<Design, svsim::ElabError> {
    t.span("svparse.sema", |_| {
        std::hint::black_box(svparse::sema::check_module(module));
    });
    t.span("svsim.elaborate", |_| Design::elaborate(module))
}

/// `BoundedChecker::check_module` from outside: elaborate, then sweep.
pub fn check_module(t: &mut Tracer, module: &Module, config: &CheckConfig) -> Verdict {
    match elaborate(t, module) {
        Ok(design) => check_design(t, &design, config),
        Err(err) => Verdict::Unverifiable {
            reason: err.to_string(),
        },
    }
}

/// `BoundedChecker::check_design` from outside: the same stimulus choice, the
/// same early exit on the first failing sequence, with stimulus generation,
/// simulation and assertion evaluation timed apart.
pub fn check_design(t: &mut Tracer, design: &Design, config: &CheckConfig) -> Verdict {
    if !design.has_assertions() {
        return Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: 0,
        };
    }
    t.span("svverify.check", |t| {
        let depth = config.depth.max(design.max_property_horizon() as usize + 4);
        let exhaustive =
            stimulus::exhaustive_is_tractable(design, depth, config.max_exhaustive_bits);
        let (method, stimuli) = t.span("svverify.stimulus", |_| {
            if exhaustive {
                (
                    CheckMethod::Exhaustive,
                    stimulus::exhaustive_stimuli(design, depth),
                )
            } else {
                (
                    CheckMethod::Randomised,
                    stimulus::random_stimuli(design, depth, config.random_cases, config.seed),
                )
            }
        });
        t.count("svverify.checks", 1);
        t.count("svverify.exhaustive_checks", u64::from(exhaustive));
        let verdict = t.span("svverify.sweep", |t| sweep(t, design, method, &stimuli));
        t.count("svverify.pass_checks", u64::from(verdict.passed()));
        t.count("svverify.fail_checks", u64::from(verdict.failed()));
        verdict
    })
}

fn sweep(
    t: &mut Tracer,
    design: &Design,
    method: CheckMethod,
    stimuli: &[Vec<InputVector>],
) -> Verdict {
    let (mut simulate_ns, mut sva_ns) = (0u64, 0u64);
    let (mut sequences, mut cycles) = (0usize, 0u64);
    let mut verdict = None;
    for stim in stimuli {
        let started = Instant::now();
        let run = Simulator::run(design, stim);
        let simulated = Instant::now();
        simulate_ns += (simulated - started).as_nanos() as u64;
        match run {
            Ok(trace) => {
                sequences += 1;
                cycles += trace.len() as u64;
                let failures = check_assertions(design, &trace);
                sva_ns += simulated.elapsed().as_nanos() as u64;
                if !failures.is_empty() {
                    verdict = Some(Verdict::Fail {
                        method,
                        witness: stim.clone(),
                        failures,
                    });
                    break;
                }
            }
            Err(svsim::SimError::CombinationalLoop { module }) => {
                verdict = Some(Verdict::Unverifiable {
                    reason: format!("combinational loop in module `{module}`"),
                });
                break;
            }
            Err(other) => {
                verdict = Some(Verdict::Unverifiable {
                    reason: other.to_string(),
                });
                break;
            }
        }
    }
    t.laps(&[("svsim.simulate", simulate_ns), ("svsim.sva", sva_ns)]);
    t.count("svsim.sequences", sequences as u64);
    t.count("svsim.cycles", cycles);
    verdict.unwrap_or(Verdict::Pass { method, sequences })
}

/// Parses `text` and renders it again with `serde_json` alone.
pub fn json_round_trip(t: &mut Tracer, text: &str) {
    let value = t.span("serde_json.parse", |_| {
        serde_json::from_str::<serde_json::Value>(text)
    });
    if let Ok(value) = value {
        t.span("serde_json.render", |_| serde_json::to_string(&value))
            .ok();
    }
}

/// The `svparse`, `svsim` and `svverify` rows of the ledger, from whatever
/// the replay recorded through the functions above.
pub fn report(t: &Tracer, metrics: &mut Metrics) {
    for (name, span) in [
        ("svparse.parse_us_per_module", "svparse.parse"),
        ("svparse.emit_us_per_module", "svparse.emit"),
        ("svparse.sema_us_per_module", "svparse.sema"),
        ("svsim.elaborate_us_per_design", "svsim.elaborate"),
    ] {
        metrics.set(name, t.per_call(span, 1e6));
    }
    metrics.set("svparse.modules", t.calls("svparse.parse") as f64);
    let cycles = t.counted("svsim.cycles") as f64;
    let (simulate_s, sva_s) = (t.seconds("svsim.simulate"), t.seconds("svsim.sva"));
    metrics.set("svsim.simulate_s", simulate_s);
    metrics.set_per("svsim.simulate_ns_per_cycle", simulate_s * 1e9, cycles);
    metrics.set("svsim.sva_s", sva_s);
    metrics.set_per("svsim.sva_ns_per_cycle", sva_s * 1e9, cycles);
    metrics.set("svsim.cycles", cycles);
    metrics.set("svsim.sequences", t.counted("svsim.sequences") as f64);
    let checks = t.counted("svverify.checks") as f64;
    metrics.set("svverify.stimulus_s", t.seconds("svverify.stimulus"));
    metrics.set("svverify.checks", checks);
    metrics.set(
        "svverify.exhaustive_checks",
        t.counted("svverify.exhaustive_checks") as f64,
    );
    metrics.set(
        "svverify.pass_checks",
        t.counted("svverify.pass_checks") as f64,
    );
    metrics.set_pct(
        "svverify.early_exit_pct",
        t.counted("svverify.fail_checks") as f64,
        checks,
    );
    metrics.set("svverify.ms_per_check", t.per_call("svverify.check", 1e3));
}

#[cfg(test)]
mod tests {
    use super::*;
    use svverify::BoundedChecker;

    #[test]
    fn replayed_check_agrees_with_the_bounded_checker() {
        let config = svdata::PipelineConfig::default().check;
        let checker = BoundedChecker::new(config.clone());
        let mut t = Tracer::new();
        let designs = svgen::CorpusGenerator::new(svgen::CorpusConfig {
            golden_designs: 3,
            ..Default::default()
        })
        .golden_designs();
        for golden in designs {
            let module = parse(&mut t, &golden.source).expect("golden designs parse");
            assert_eq!(
                check_module(&mut t, &module, &config),
                checker.check_module(&module)
            );
            let mut injector = svmutate::BugInjector::new(7);
            for bug in injector.inject_batch(&module, 3) {
                assert_eq!(
                    check_module(&mut t, &bug.buggy, &config),
                    checker.check_module(&bug.buggy)
                );
            }
        }
        assert_eq!(
            t.counted("svverify.checks"),
            t.counted("svverify.pass_checks") + t.counted("svverify.fail_checks")
        );
        assert!(t.counted("svsim.cycles") >= t.counted("svsim.sequences"));
        assert!(t.seconds("svsim.simulate") > 0.0);
    }
}
