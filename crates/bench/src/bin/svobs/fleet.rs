//! `svobs stat` and `svobs top`: introspection of running `shard-serve`
//! shards — cumulative since shard start (`stat`) and over the last few time
//! windows (`top`).
//!
//! Both connect with fingerprint `None`: introspection should work against
//! any model, so the handshake's model check is skipped (unlike placement,
//! stats reads don't depend on which checkpoint a shard serves).  A dead or
//! corrupt shard is reported inline and excluded — one sick peer never hides
//! the fleet; only a fleet where *no* shard answers is a failure (exit 1).

use crate::{Failure, Flags, Outcome};
use std::time::{Duration, Instant};
use svserve::{
    env_shard_sockets, ratio, FleetStats, MetricKind, MetricSnapshot, RegistrySnapshot, ShardFleet,
    ShardWindow, WindowSnapshot,
};

/// The flags of `stat`, plus (when `watch`) the two only `top` takes.
struct Args {
    sockets: Vec<String>,
    timeout_ms: u64,
    json: bool,
    interval_ms: u64,
    once: bool,
}

impl Args {
    /// Sockets come from `--sockets a,b`, else from
    /// `ASSERTSOLVER_SHARD_SOCKETS`; naming none is a usage error.
    fn parse(mut flags: Flags, watch: bool) -> Result<Self, Failure> {
        let mut args = Args {
            sockets: Vec::new(),
            timeout_ms: 2_000,
            json: false,
            interval_ms: 1_000,
            once: false,
        };
        while let Some(flag) = flags.token() {
            match flag.as_str() {
                "--sockets" => args.sockets = flags.sockets(&flag)?,
                "--timeout-ms" => args.timeout_ms = flags.value(&flag)?,
                "--json" => args.json = true,
                "--interval-ms" if watch => args.interval_ms = flags.value(&flag)?,
                "--once" if watch => args.once = true,
                _ => return Err(Flags::unexpected(&flag)),
            }
        }
        if args.sockets.is_empty() {
            let none = "no sockets: pass --sockets or set ASSERTSOLVER_SHARD_SOCKETS";
            args.sockets = env_shard_sockets().ok_or_else(|| Failure::Usage(none.to_string()))?;
        }
        Ok(args)
    }

    fn connect(&self) -> ShardFleet {
        ShardFleet::connect_unix(&self.sockets, None, Duration::from_millis(self.timeout_ms))
    }

    fn socket(&self, shard: usize) -> &str {
        self.sockets.get(shard).map_or("<unknown>", String::as_str)
    }
}

/// The first line of both tables.
fn fleet_header(live: usize, shards: usize) -> String {
    format!("fleet: {live}/{shards} shards live\n")
}

/// `svobs stat` — runs the `Stats` wire exchange against every shard and
/// renders the fleet-wide view: a per-shard liveness line, then the merged
/// registry — counters and gauges with derived cache hit rates, and latency
/// histograms as exact p50/p90/p99/max columns.  `--json` prints the merged
/// snapshot's canonical JSON exposition instead of the table (byte-stable key
/// order, suitable for scraping).
pub fn stat(flags: Flags) -> Outcome {
    let args = Args::parse(flags, false)?;
    let stats = args.connect().fleet_stats();
    if args.json {
        println!("{}", stats.merged.render_json());
    } else {
        print!("{}", render_stats(&stats, &args));
    }
    if stats.live() == 0 {
        return Err(Failure::Runtime(
            "no shard answered the stats exchange".to_string(),
        ));
    }
    Ok(())
}

/// The human-facing report: shard liveness, derived rates, then the merged
/// registry as aligned counter/gauge and histogram tables.
fn render_stats(stats: &FleetStats, args: &Args) -> String {
    let mut out = fleet_header(stats.live(), stats.shards.len());
    for shard in &stats.shards {
        let socket = args.socket(shard.shard);
        match &shard.result {
            Ok(snapshot) => out.push_str(&format!(
                "  shard {} {socket} [{}]: ok, {} metrics\n",
                shard.shard,
                short_fingerprint(&shard.fingerprint),
                snapshot.len()
            )),
            Err(reason) => out.push_str(&format!("  shard {} {socket}: {reason}\n", shard.shard)),
        }
    }
    out.push_str(&render_rates(&stats.merged));
    out.push_str(&render_merged(&stats.merged));
    out
}

/// At most the first 24 bytes of the model identity a shard sent in its
/// `Hello` — a peer-supplied string, so the cut backs off to a char boundary.
fn short_fingerprint(fingerprint: &str) -> &str {
    if fingerprint.is_empty() {
        return "?";
    }
    let mut end = fingerprint.len().min(24);
    while !fingerprint.is_char_boundary(end) {
        end -= 1;
    }
    &fingerprint[..end]
}

/// Derived fleet-wide rates from counters that exist whenever any shard has
/// served traffic; silently absent rows (a fresh fleet) render as 0.
fn render_rates(merged: &RegistrySnapshot) -> String {
    let value = |name: &str| merged.get(name).map(|m| m.value).unwrap_or(0);
    let hits = value("service.cache.hits");
    let misses = value("service.cache.misses");
    let verdict_hits = value("service.verify.cache.hits");
    let verdict_misses = value("service.verify.cache.misses");
    format!(
        "  cache: {:.1}% response hit rate ({hits}/{}), \
         {:.1}% verdict hit rate ({verdict_hits}/{})\n  \
         pressure: queue depth {}, shed {}, panics {}, journal events {}\n",
        100.0 * ratio(hits, hits + misses),
        hits + misses,
        100.0 * ratio(verdict_hits, verdict_hits + verdict_misses),
        verdict_hits + verdict_misses,
        value("service.queue.depth"),
        value("service.shed_busy") + value("service.verify.shed_busy"),
        value("service.panics") + value("service.verify.panics"),
        value("service.journal.events"),
    )
}

fn render_merged(merged: &RegistrySnapshot) -> String {
    let (scalars, histograms): (Vec<&MetricSnapshot>, Vec<&MetricSnapshot>) = merged
        .metrics
        .iter()
        .partition(|metric| metric.kind != MetricKind::Histogram);
    let name_width = merged
        .metrics
        .iter()
        .map(|metric| metric.name.len())
        .max()
        .unwrap_or(0)
        .max("histogram (ns)".len());

    let mut out = String::new();
    if !scalars.is_empty() {
        out.push_str(&format!(
            "\n{:<name_width$}  {:>12}\n",
            "counter/gauge", "value"
        ));
        for metric in scalars {
            out.push_str(&format!(
                "{:<name_width$}  {:>12}\n",
                metric.name, metric.value
            ));
        }
    }
    if !histograms.is_empty() {
        out.push_str(&format!(
            "\n{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            "histogram (ns)", "count", "mean", "p50", "p90", "p99", "max"
        ));
        for metric in histograms {
            out.push_str(&format!(
                "{:<name_width$}  {:>8}  {:>10.0}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                metric.name,
                metric.count,
                metric.mean(),
                metric.percentile(0.50),
                metric.percentile(0.90),
                metric.percentile(0.99),
                metric.max,
            ));
        }
    }
    out
}

/// `svobs top` — polls every shard with the `StatsWindow` wire exchange and
/// renders a per-shard view of the last few time windows: event rate since
/// the previous poll, submitted/completed/shed over the retained horizon,
/// p50/p99/max service latency, and the in-flight gauge with its delta.
/// Unlike `stat`, it shows *recent* behaviour — a shard that was hot an hour
/// ago but idle now reads as idle.
///
/// A shard behind a transport without the window exchange is reported as
/// `unsupported` and keeps serving: the probe refuses locally before any
/// bytes move.  `--once` prints a single poll and exits — the shape CI
/// drives; `--json` prints one JSON object per poll instead of the table,
/// suitable for scraping.
pub fn top(flags: Flags) -> Outcome {
    let args = Args::parse(flags, true)?;
    // One fleet for the whole watch — connections persist across polls.
    let fleet = args.connect();
    // The previous poll and when it was taken, for the delta columns.
    let mut previous: Vec<ShardWindow> = Vec::new();
    let mut last_poll: Option<Instant> = None;

    loop {
        let windows = fleet.fleet_windows();
        let elapsed = last_poll.map(|at| at.elapsed());
        last_poll = Some(Instant::now());

        if args.json {
            println!("{}", render_windows_json(&windows));
        } else {
            print!("{}", render_windows(&windows, &args, &previous, elapsed));
        }

        if args.once {
            if windows.iter().all(|window| window.result.is_err()) {
                return Err(Failure::Runtime(
                    "no shard answered the window exchange".to_string(),
                ));
            }
            return Ok(());
        }
        previous = windows;
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(1)));
    }
}

/// One machine-readable poll: shard liveness plus each live shard's window
/// snapshot in its canonical JSON exposition.
fn render_windows_json(windows: &[ShardWindow]) -> String {
    let shards: Vec<String> = windows
        .iter()
        .map(|window| match &window.result {
            Ok(snapshot) => format!(
                "{{\"shard\":{},\"ok\":true,\"window\":{}}}",
                window.shard,
                snapshot.render_json()
            ),
            Err(reason) => format!(
                "{{\"shard\":{},\"ok\":false,\"error\":{}}}",
                window.shard,
                serde_json::to_string(reason).unwrap_or_else(|_| "\"?\"".into())
            ),
        })
        .collect();
    format!("{{\"shards\":[{}]}}", shards.join(","))
}

fn render_windows(
    windows: &[ShardWindow],
    args: &Args,
    previous: &[ShardWindow],
    elapsed: Option<Duration>,
) -> String {
    let live = windows.iter().filter(|w| w.result.is_ok()).count();
    let mut out = fleet_header(live, windows.len());
    out.push_str(&format!(
        "{:>5}  {:>8}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}  {:>10}  {:>9}\n",
        "shard",
        "ev/s",
        "submitted",
        "completed",
        "shed",
        "p50_ns",
        "p99_ns",
        "max_ns",
        "in_flight"
    ));
    for window in windows {
        match &window.result {
            Ok(snapshot) => {
                let before = previous
                    .iter()
                    .find(|before| before.shard == window.shard)
                    .and_then(|before| before.result.as_ref().ok());
                out.push_str(&render_shard_row(window.shard, snapshot, before, elapsed))
            }
            Err(reason) => out.push_str(&format!(
                "{:>5}  {}: {reason}\n",
                window.shard,
                args.socket(window.shard)
            )),
        }
    }
    out
}

/// One live shard's row: poll-to-poll event rate, horizon totals, latency
/// quantiles (bucket-granular, see `percentile_from_buckets`), and the
/// in-flight gauge with its delta since the previous poll (`before`, when the
/// shard answered it).
fn render_shard_row(
    shard: usize,
    snapshot: &WindowSnapshot,
    before: Option<&WindowSnapshot>,
    elapsed: Option<Duration>,
) -> String {
    let totals = snapshot.totals();
    let rate = match (before, elapsed) {
        (Some(before), Some(elapsed)) if elapsed.as_secs_f64() > 0.0 => format!(
            "{:.1}",
            snapshot.tick.saturating_sub(before.tick) as f64 / elapsed.as_secs_f64()
        ),
        _ => "-".to_string(),
    };
    let in_flight = match before {
        Some(before) => {
            let delta = snapshot.in_flight as i64 - before.in_flight as i64;
            format!("{} ({delta:+})", snapshot.in_flight)
        }
        None => snapshot.in_flight.to_string(),
    };
    format!(
        "{:>5}  {:>8}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}  {:>10}  {:>9}\n",
        shard,
        rate,
        totals.submitted,
        totals.completed,
        totals.shed,
        snapshot.percentile(0.50),
        snapshot.percentile(0.99),
        totals.max,
        in_flight,
    )
}

#[cfg(test)]
mod tests {
    use super::short_fingerprint;

    #[test]
    fn short_fingerprint_cuts_on_a_char_boundary() {
        // 23 ASCII bytes, then a two-byte character straddling byte 24: a
        // plain `[..24]` slice panics on this identity.
        let identity = format!("{}β-and-more", "m".repeat(23));
        assert_eq!(short_fingerprint(&identity), "m".repeat(23));
        assert_eq!(short_fingerprint(""), "?");
        assert_eq!(short_fingerprint("short"), "short");
        assert_eq!(short_fingerprint(&"x".repeat(40)), "x".repeat(24));
    }
}
