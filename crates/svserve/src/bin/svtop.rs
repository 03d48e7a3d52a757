//! `svtop` — live fleet watch over the windowed telemetry plane.
//!
//! ```text
//! svtop [--sockets a.sock,b.sock] [--socket PATH]... [--timeout-ms N]
//!       [--interval-ms N] [--once] [--json]
//! ```
//!
//! Polls every listed `shard-serve` shard (falling back to the
//! `ASSERTSOLVER_SHARD_SOCKETS` list) with the `StatsWindow` wire exchange
//! and renders a per-shard view of the last few time windows: event rate
//! since the previous poll, submitted/completed/shed over the retained
//! horizon, p50/p99/max service latency, and the in-flight gauge with its
//! delta.  Unlike `svstat` (cumulative counters since shard start), `svtop`
//! shows *recent* behaviour — a shard that was hot an hour ago but idle now
//! reads as idle.
//!
//! A shard behind a transport without the window exchange is reported as
//! `unsupported` and keeps serving: the probe refuses locally before any
//! bytes move.  `--once` prints a single poll
//! and exits (0 when at least one shard answered, 1 when none did) — the
//! shape CI drives; `--json` prints one JSON object per poll instead of the
//! table, suitable for scraping.
//!
//! Exit status: 0 ok, 1 no shard answered, 2 usage errors.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use svserve::{env_shard_sockets, ShardFleet, ShardWindow, WindowSnapshot};

struct Args {
    sockets: Vec<String>,
    timeout_ms: u64,
    interval_ms: u64,
    once: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sockets: Vec::new(),
        timeout_ms: 2_000,
        interval_ms: 1_000,
        once: false,
        json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--socket" => args.sockets.push(value("--socket")?),
            "--sockets" => args.sockets.extend(
                value("--sockets")?
                    .split(',')
                    .map(str::trim)
                    .filter(|socket| !socket.is_empty())
                    .map(str::to_string),
            ),
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|err| format!("--timeout-ms: {err}"))?
            }
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|err| format!("--interval-ms: {err}"))?
            }
            "--once" => args.once = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.sockets.is_empty() {
        args.sockets = env_shard_sockets()
            .ok_or("no sockets: pass --socket/--sockets or set ASSERTSOLVER_SHARD_SOCKETS")?;
    }
    Ok(args)
}

/// What the previous poll saw of one shard, for delta columns.
struct Previous {
    tick: u64,
    in_flight: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("svtop: {msg}");
            eprintln!(
                "usage: svtop [--sockets a.sock,b.sock] [--socket PATH]... \
                 [--timeout-ms N] [--interval-ms N] [--once] [--json]"
            );
            return ExitCode::from(2);
        }
    };

    // Fingerprint `None`: like `svstat`, watching works against any model.
    // One fleet for the whole watch — connections persist across polls.
    let fleet =
        ShardFleet::connect_unix(&args.sockets, None, Duration::from_millis(args.timeout_ms));
    let mut previous: Vec<Option<Previous>> = (0..args.sockets.len()).map(|_| None).collect();
    let mut last_poll: Option<Instant> = None;

    loop {
        let windows = fleet.fleet_windows();
        let elapsed = last_poll.map(|at| at.elapsed());
        last_poll = Some(Instant::now());

        if args.json {
            println!("{}", render_json(&windows));
        } else {
            print!(
                "{}",
                render_table(&windows, &args.sockets, &previous, elapsed)
            );
        }

        for window in &windows {
            if let (Some(slot), Ok(snapshot)) =
                (previous.get_mut(window.shard), window.result.as_ref())
            {
                *slot = Some(Previous {
                    tick: snapshot.tick,
                    in_flight: snapshot.in_flight,
                });
            }
        }

        let live = windows.iter().filter(|w| w.result.is_ok()).count();
        if args.once {
            if live == 0 {
                eprintln!("svtop: no shard answered the window exchange");
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(1)));
    }
}

/// One machine-readable poll: shard liveness plus each live shard's window
/// snapshot in its canonical JSON exposition.
fn render_json(windows: &[ShardWindow]) -> String {
    let mut out = String::from("{\"shards\":[");
    for (index, window) in windows.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        match &window.result {
            Ok(snapshot) => out.push_str(&format!(
                "{{\"shard\":{},\"ok\":true,\"window\":{}}}",
                window.shard,
                snapshot.render_json()
            )),
            Err(reason) => out.push_str(&format!(
                "{{\"shard\":{},\"ok\":false,\"error\":{}}}",
                window.shard,
                serde_json::to_string(reason).unwrap_or_else(|_| "\"?\"".into())
            )),
        }
    }
    out.push_str("]}");
    out
}

fn render_table(
    windows: &[ShardWindow],
    sockets: &[String],
    previous: &[Option<Previous>],
    elapsed: Option<Duration>,
) -> String {
    let live = windows.iter().filter(|w| w.result.is_ok()).count();
    let mut out = format!("fleet: {live}/{} shards live\n", windows.len());
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
        let socket = sockets
            .get(window.shard)
            .map(String::as_str)
            .unwrap_or("<unknown>");
        match &window.result {
            Ok(snapshot) => {
                out.push_str(&render_shard_row(window.shard, snapshot, previous, elapsed))
            }
            Err(reason) => out.push_str(&format!("{:>5}  {socket}: {reason}\n", window.shard)),
        }
    }
    out
}

/// One live shard's row: poll-to-poll event rate, horizon totals, latency
/// quantiles (bucket-granular, see `percentile_from_buckets`), and the
/// in-flight gauge with its delta since the previous poll.
fn render_shard_row(
    shard: usize,
    snapshot: &WindowSnapshot,
    previous: &[Option<Previous>],
    elapsed: Option<Duration>,
) -> String {
    let totals = snapshot.totals();
    let before = previous.get(shard).and_then(Option::as_ref);
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
