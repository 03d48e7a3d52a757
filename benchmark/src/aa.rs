//! A/A mode: every workload measured `sets` times by the same code, each
//! end-to-end metric's values and relative gap printed beside its bound.

use crate::metrics::{parse_result, Manifest};
use crate::stats;
use std::process::{Command, ExitCode};

/// One child process per measurement, so peak memory and allocator state
/// start fresh exactly as they do under the driver.
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|err| err.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(parse_result);
    match parsed {
        Some((true, metrics)) if output.status.success() => Ok(metrics.into_iter().collect()),
        _ => Err(format!(
            "{workload} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// Largest minus smallest value over their mean.
pub fn relative_gap(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (max - stats::min(values)) / mean
}

pub fn run(manifest: &Manifest, seed: u64, seconds: f64, smoke: bool, sets: usize) -> ExitCode {
    let mut worst = ExitCode::SUCCESS;
    for workload in &manifest.workloads {
        let mut calib_ms = Vec::new();
        let mut runs = Vec::new();
        for _ in 0..sets.max(2) {
            calib_ms.push(stats::calibrate_ms());
            match measure(workload, seed, seconds, smoke) {
                Ok(metrics) => runs.push(metrics),
                Err(message) => {
                    eprintln!("svbench aa: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{workload}  (calib_ms before each set: {calib_ms:.1?})");
        for declared in &manifest.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.iter().find(|(name, _)| *name == declared.name))
                .map(|(_, value)| *value)
                .collect();
            let gap = relative_gap(&values);
            let bound = declared.bound.unwrap_or(0.0);
            let verdict = if gap <= bound { "ok" } else { "EXCEEDS BOUND" };
            println!(
                "  {:<12} {:>5} {:.4?}  gap {:5.2} %  bound {:4.1} %  {verdict}",
                declared.name,
                declared.unit,
                values,
                gap * 100.0,
                bound * 100.0
            );
            if gap > bound {
                worst = ExitCode::FAILURE;
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::relative_gap;

    #[test]
    fn gap_is_range_over_mean() {
        assert_eq!(relative_gap(&[1.0, 1.0]), 0.0);
        assert!((relative_gap(&[0.9, 1.1]) - 0.2).abs() < 1e-12);
        assert!((relative_gap(&[2.0, 3.0, 4.0]) - 2.0 / 3.0).abs() < 1e-12);
    }
}
