//! Order statistics over timing samples, and the process-level readings
//! (peak memory, CPU time, a fixed calibration loop) every workload reports.

use std::hint::black_box;
use std::time::Instant;

/// Smallest sample; 0.0 for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median (mean of the two middle samples for an even count); 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100), but only when at least
/// `MIN_BEYOND` samples lie beyond it: a tail read off fewer samples is one
/// outlier, not a percentile.  The caller always reports the sample count.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    const MIN_BEYOND: usize = 10;
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len().max(1));
    if sorted.is_empty() || sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Fastest observation of each segment across rounds of identical segments.
pub fn segment_minima(rounds: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|segment| {
            rounds
                .iter()
                .map(|round| round[segment])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by every thread of this process so far
/// (`/proc/self/stat` fields 14 and 15, at the kernel's fixed 100 Hz tick).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Milliseconds this host needs for a fixed integer loop.  Printed beside the
/// timings so a slow or busy host is visible in the output itself.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segment_minima_take_each_segment_from_its_fastest_round() {
        let rounds = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 2.0, 4.0],
        ];
        assert_eq!(segment_minima(&rounds), [2.0, 1.0, 4.0]);
        assert!(segment_minima(&[]).is_empty());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        // 999 samples leave only 9 beyond the 99th percentile.
        assert_eq!(percentile(&samples[..999], 99.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(calibrate_ms() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
