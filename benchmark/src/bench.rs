//! What every workload shares: the plan a run is given, the setup/rounds
//! measurement loop, and the gate that counts correctness failures.

use crate::metrics::Metrics;
use crate::stats;
use std::time::Instant;

/// What one invocation asks of a workload.
pub struct Plan {
    /// `augment` generates its corpus from it; the other three draw their
    /// cases in an order it decides.
    pub seed: u64,
    /// Rounds repeat until this many seconds have been measured...
    pub min_seconds: f64,
    /// ...and this many rounds are done.
    pub min_rounds: usize,
    /// Four designs, a few cases, randomised checks only: exercises every
    /// path and gate in seconds.
    pub smoke: bool,
    /// A directory of this run's own for snapshot files, removed at exit.
    pub scratch: std::path::PathBuf,
}

impl Plan {
    /// Golden designs in the corpus; sixteen is one per `svgen::Family`.
    pub fn designs(&self) -> usize {
        if self.smoke {
            4
        } else {
            16
        }
    }

    /// SVA-Bug cases evaluated, of the 18 the default corpus yields.
    pub fn machine_cases(&self) -> usize {
        if self.smoke {
            3
        } else {
            16
        }
    }

    /// The bounded check a layer's configuration asks for; a smoke run never
    /// enumerates exhaustively, so no check of its costs more than a few
    /// random sequences.
    pub fn check(&self, check: svverify::CheckConfig) -> svverify::CheckConfig {
        svverify::CheckConfig {
            max_exhaustive_bits: if self.smoke {
                0
            } else {
                check.max_exhaustive_bits
            },
            ..check
        }
    }

    /// Human-crafted cases evaluated: all five, or the first for a smoke run.
    pub fn human_cases(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Pool shape pinned for every evaluation: one sampler, one verifier, one
/// session driver keeps the busy threads at or under this box's two cores
/// (auto-sizing spreads 12 % run to run here, pinned spreads 3 %).
pub const WORKERS: usize = 1;

/// Counts correctness checks; any failure makes the run exit non-zero.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// A finished run or trace of one workload.
pub struct Report {
    pub gate: Gate,
    pub metrics: Metrics,
}

/// Collects the segment timings of one round.  A segment is one call into a
/// public entry point, short enough to fit between the host's slow spells.
#[derive(Default)]
pub struct Lap {
    segments: Vec<f64>,
}

/// Something that times named calls: a [`Lap`] during measured rounds, the
/// span recorder during the traced pass, so both drive the same code.
pub trait Clock {
    fn time<R>(&mut self, name: &'static str, body: impl FnOnce() -> R) -> R;
}

impl Clock for Lap {
    /// Times `body` as this round's next segment.
    fn time<R>(&mut self, _name: &'static str, body: impl FnOnce() -> R) -> R {
        let (result, seconds) = timed(body);
        self.segments.push(seconds);
        result
    }
}

impl Clock for crate::spans::Tracer {
    fn time<R>(&mut self, name: &'static str, body: impl FnOnce() -> R) -> R {
        self.span(name, |_| body())
    }
}

/// Timings of one setup-then-rounds measurement.
pub struct Timing {
    pub setup_s: f64,
    /// Segment timings of every measured round; each round has the same segments.
    pub rounds: Vec<Vec<f64>>,
    pub cpu_s_per_round: f64,
    /// The slower of the calibration loops run before and after the rounds.
    pub calib_ms: f64,
}

impl Timing {
    /// Fastest observation of each segment.  Rounds replay identical work, so
    /// interference only ever adds time; on this host it arrives in spells of
    /// 0.1 to 6 s that slow allocation-heavy code by half, so whole rounds are
    /// rarely undisturbed while every short segment is, in some round.
    pub fn best(&self) -> Vec<f64> {
        stats::segment_minima(&self.rounds)
    }

    /// The undisturbed round: the sum of the segments' fastest observations.
    pub fn wall_s(&self) -> f64 {
        self.best().iter().sum()
    }

    fn round_totals(&self) -> Vec<f64> {
        self.rounds.iter().map(|round| round.iter().sum()).collect()
    }

    pub fn round_median_s(&self) -> f64 {
        stats::median(&self.round_totals())
    }

    /// The diagnostics every traced run reports about the measurement itself.
    pub fn describe(&self, metrics: &mut Metrics) {
        metrics.set("bench.rounds", self.rounds.len() as f64);
        metrics.set("bench.segments", self.best().len() as f64);
        metrics.set("bench.round_min_s", stats::min(&self.round_totals()));
        metrics.set("bench.round_median_s", self.round_median_s());
        metrics.set("bench.cpu_s_per_round", self.cpu_s_per_round);
        metrics.set("bench.calib_ms", self.calib_ms);
    }

    /// What a traced run reports about its trace.  Coverage: the share of
    /// the entry points' wall that the replay's calls into the layers
    /// account for.  Overhead: the pass with parent spans against the median
    /// untraced round.
    pub fn describe_trace(
        &self,
        metrics: &mut Metrics,
        traced_s: f64,
        entry_s: f64,
        accounted_s: f64,
    ) {
        metrics.set_pct(
            "bench.trace_coverage_pct",
            accounted_s.min(entry_s),
            entry_s,
        );
        metrics.set_pct(
            "bench.trace_overhead_pct",
            traced_s - self.round_median_s(),
            self.round_median_s(),
        );
    }
}

/// Runs `setup` (timed) and then `round` until both the plan's seconds and
/// its round count are met.  Only what `round` times through its [`Lap`] is
/// measured, so it may prepare and check untimed.
pub fn measure<S>(
    plan: &Plan,
    setup: impl FnOnce() -> S,
    mut round: impl FnMut(&mut S, &mut Lap),
) -> (S, Timing) {
    let (mut state, setup_s) = timed(setup);
    let calib_before = stats::calibrate_ms();
    let cpu_before = stats::cpu_seconds();
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut measured = 0.0;
    while rounds.len() < plan.min_rounds || measured < plan.min_seconds {
        let mut lap = Lap::default();
        round(&mut state, &mut lap);
        assert!(
            rounds
                .first()
                .is_none_or(|first| first.len() == lap.segments.len()),
            "every round times the same segments"
        );
        measured += lap.segments.iter().sum::<f64>();
        rounds.push(lap.segments);
    }
    let cpu_s_per_round = (stats::cpu_seconds() - cpu_before) / rounds.len() as f64;
    let calib_ms = calib_before.max(stats::calibrate_ms());
    let timing = Timing {
        setup_s,
        rounds,
        cpu_s_per_round,
        calib_ms,
    };
    eprintln!(
        "svbench: setup {:.3} s, {} rounds of {} segments, best {:.4} s, median round {:.4} s, calib {:.1} ms",
        timing.setup_s,
        timing.rounds.len(),
        timing.best().len(),
        timing.wall_s(),
        timing.round_median_s(),
        timing.calib_ms,
    );
    (state, timing)
}

/// Times one call.
pub fn timed<R>(body: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = body();
    (result, started.elapsed().as_secs_f64())
}
