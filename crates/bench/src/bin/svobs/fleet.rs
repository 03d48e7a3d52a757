//! `svobs stat` and `svobs top`: introspection of running `shard-serve`
//! shards over the one `Stats` wire exchange — cumulative since shard start
//! (`stat`) and poll to poll (`top`).
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
/// served traffic; silently absent rows (a fresh fleet) render as 0.  Shards
/// serve sampling only, so every series is the repair pool's.
fn render_rates(merged: &RegistrySnapshot) -> String {
    let value = |name: &str| merged.get(name).map(|m| m.value).unwrap_or(0);
    let (hits, misses) = (value("service.cache.hits"), value("service.cache.misses"));
    format!(
        "  cache: {:.1}% response hit rate ({hits}/{})\n  \
         pressure: in flight {}, shed {}, panics {}\n",
        100.0 * ratio(hits, hits + misses),
        hits + misses,
        value("service.in_flight"),
        value("service.shed_busy"),
        value("service.panics"),
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

/// `svobs top` — polls every shard with the `Stats` wire exchange and
/// renders, per shard, the interval since that shard's previous answer
/// ([`RegistrySnapshot::since`]): the event rate (submits, completions and
/// sheds per second), submitted/completed/shed counts, p50/p99 model-solve
/// latency over the interval's cache misses (`-` when it had none), the
/// solve max since shard start, and the in-flight gauge with its delta.
/// Unlike `stat`, it shows *recent* behaviour — a shard that was hot an hour
/// ago but idle now reads as idle.  The first poll has no previous answer,
/// so it shows the cumulative snapshot and `-` for the rate.
///
/// A shard that fails the exchange is reported with its error and counted
/// as a wire error; the other shards still render.  `--once` prints a single
/// poll and exits — the shape CI drives; `--json` prints one JSON object per
/// poll instead of the table, each live shard's interval snapshot in its
/// canonical JSON exposition, suitable for scraping.
pub fn top(flags: Flags) -> Outcome {
    let args = Args::parse(flags, true)?;
    // One fleet for the whole watch — connections persist across polls.
    let fleet = args.connect();
    // Each shard's previous answer and when it came.
    let mut previous: Vec<Option<(RegistrySnapshot, Instant)>> = vec![None; fleet.shards()];

    loop {
        let stats = fleet.fleet_stats();
        let polled = Instant::now();
        let mut table = fleet_header(stats.live(), stats.shards.len());
        table.push_str(&format!(
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
        let mut json = Vec::new();
        for shard in &stats.shards {
            let id = shard.shard;
            match &shard.result {
                Ok(snapshot) => {
                    let last = &mut previous[id];
                    let before = last.as_ref().map(|(before, at)| (before, polled - *at));
                    let interval =
                        before.map_or_else(|| snapshot.clone(), |(b, _)| snapshot.since(b));
                    let stats = interval.render_json();
                    json.push(format!("{{\"shard\":{id},\"ok\":true,\"stats\":{stats}}}"));
                    table.push_str(&render_top_row(id, &interval, before));
                    *last = Some((snapshot.clone(), polled));
                }
                Err(reason) => {
                    let error = serde_json::to_string(reason).unwrap_or_else(|_| "\"?\"".into());
                    json.push(format!("{{\"shard\":{id},\"ok\":false,\"error\":{error}}}"));
                    table.push_str(&format!("{id:>5}  {}: {reason}\n", args.socket(id)));
                }
            }
        }
        if args.json {
            println!("{{\"shards\":[{}]}}", json.join(","));
        } else {
            print!("{table}");
        }

        if args.once {
            if stats.live() == 0 {
                return Err(Failure::Runtime(
                    "no shard answered the stats exchange".to_string(),
                ));
            }
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(1)));
    }
}

/// One live shard's row over `interval` (its snapshot since its previous
/// answer, or the cumulative one when `before` is `None`); `before` is the
/// previous answer and the time since it.  Latency quantiles are
/// bucket-granular (see `percentile_from_buckets`).
fn render_top_row(
    shard: usize,
    interval: &RegistrySnapshot,
    before: Option<(&RegistrySnapshot, Duration)>,
) -> String {
    let value = |snapshot: &RegistrySnapshot, name: &str| snapshot.get(name).map_or(0, |m| m.value);
    let submitted = value(interval, "service.submitted");
    let completed = value(interval, "service.completed");
    let shed = value(interval, "service.shed_busy");
    let rate = match before {
        Some((_, elapsed)) if !elapsed.is_zero() => format!(
            "{:.1}",
            (submitted + completed + shed) as f64 / elapsed.as_secs_f64()
        ),
        _ => "-".to_string(),
    };
    let solve = interval.get("service.repair.solve");
    let quantile = |q| match solve {
        Some(solve) if solve.count > 0 => solve.percentile(q).to_string(),
        _ => "-".to_string(),
    };
    let in_flight = value(interval, "service.in_flight");
    let in_flight = match before {
        Some((before, _)) => {
            let delta = in_flight as i64 - value(before, "service.in_flight") as i64;
            format!("{in_flight} ({delta:+})")
        }
        None => in_flight.to_string(),
    };
    format!(
        "{:>5}  {:>8}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}  {:>10}  {:>9}\n",
        shard,
        rate,
        submitted,
        completed,
        shed,
        quantile(0.50),
        quantile(0.99),
        solve.map_or("-".to_string(), |solve| solve.max.to_string()),
        in_flight,
    )
}

#[cfg(test)]
mod tests {
    use super::{render_rates, render_top_row, short_fingerprint};
    use std::time::Duration;
    use svserve::{MetricClass, MetricsRegistry, RegistrySnapshot};

    #[test]
    fn rates_line_reads_the_repair_pool_series() {
        let mut merged = RegistrySnapshot::new();
        let vol = MetricClass::Volatile;
        for (name, value) in [
            ("service.cache.hits", 3),
            ("service.cache.misses", 1),
            ("service.shed_busy", 2),
            ("service.panics", 1),
        ] {
            merged.upsert_counter(name, vol, value);
        }
        merged.upsert_gauge("service.in_flight", vol, 5);
        assert_eq!(
            render_rates(&merged),
            "  cache: 75.0% response hit rate (3/4)\n  \
             pressure: in flight 5, shed 2, panics 1\n"
        );
        assert_eq!(
            render_rates(&RegistrySnapshot::new()),
            "  cache: 0.0% response hit rate (0/0)\n  \
             pressure: in flight 0, shed 0, panics 0\n",
            "a fresh fleet renders zeros, not NaN"
        );
    }

    #[test]
    fn top_rows_read_the_interval_since_the_previous_answer() {
        let registry = MetricsRegistry::new();
        let vol = MetricClass::Volatile;
        let (submitted, completed) = (
            registry.counter("service.submitted", vol),
            registry.counter("service.completed", vol),
        );
        let (shed, solve) = (
            registry.counter("service.shed_busy", vol),
            registry.histogram("service.repair.solve", vol),
        );
        let in_flight = registry.gauge("service.in_flight", vol);
        submitted.add(5);
        completed.add(5);
        solve.observe(1_000_000);
        let first = registry.snapshot();
        let cells =
            |row: String| -> Vec<String> { row.split_whitespace().map(str::to_string).collect() };
        // The first answer: cumulative counts, no rate.
        assert_eq!(
            cells(render_top_row(0, &first, None)),
            ["0", "-", "5", "5", "0", "1000000", "1000000", "1000000", "0"]
        );

        // Two seconds later: 3 submits, 2 completions (one miss), 1 shed.
        submitted.add(3);
        completed.add(2);
        shed.inc();
        solve.observe(100);
        in_flight.set(1);
        let interval = registry.snapshot().since(&first);
        let row = render_top_row(0, &interval, Some((&first, Duration::from_secs(2))));
        assert_eq!(
            cells(row),
            ["0", "3.0", "3", "2", "1", "127", "127", "1000000", "1", "(+1)"]
        );

        // An interval with no miss prints `-` for its quantiles.
        let idle = registry.snapshot().since(&registry.snapshot());
        let row = render_top_row(0, &idle, Some((&first, Duration::from_secs(1))));
        assert_eq!(
            cells(row),
            ["0", "0.0", "0", "0", "0", "-", "-", "1000000", "1", "(+1)"]
        );
    }

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
