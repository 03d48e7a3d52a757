//! The command-line contract of the crate's two binaries: every `svobs`
//! subcommand (and `experiments`) answers a bad command line with exit 2 and
//! usage on stderr before doing any work, a runtime failure with exit 1, and
//! the journal round trip `record` → `replay` → re-`record` holds bytes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn svobs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svobs"))
        .args(args)
        .env_remove("ASSERTSOLVER_SHARD_SOCKETS")
        .output()
        .expect("run svobs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svobs-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[track_caller]
fn assert_usage_error(args: &[&str]) {
    let output = svobs(args);
    let (code, err) = (output.status.code(), stderr(&output));
    assert_eq!(code, Some(2), "svobs {args:?} must exit 2: {err}");
    assert!(err.contains("usage:"), "svobs {args:?} must say how: {err}");
    assert!(output.stdout.is_empty(), "svobs {args:?} must do no work");
}

#[test]
fn bad_command_lines_exit_2_with_usage_and_help_exits_0() {
    // (subcommand, a complete valid prefix, a flag of it that takes a value)
    let subcommands = [
        ("prof", vec![], "--seed"),
        ("trace", vec![], "--slowest"),
        ("record", vec!["--out", "never-written.jsonl"], "--limit"),
        ("stat", vec!["--sockets", "no.sock"], "--timeout-ms"),
        (
            "top",
            vec!["--once", "--sockets", "no.sock"],
            "--interval-ms",
        ),
    ];
    for (sub, valid, valued) in subcommands {
        let with = |tail: &[&'static str]| [&[sub], valid.as_slice(), tail].concat();
        assert_usage_error(&with(&["--no-such-flag"]));
        assert_usage_error(&with(&[valued]));
        assert_usage_error(&with(&[valued, "not-a-number"]));
        assert_usage_error(&with(&["junk"]));
    }
    assert_usage_error(&["replay"]);
    assert_usage_error(&["replay", "never-read.jsonl", "junk"]);
    assert_usage_error(&["replay", "never-read.jsonl", "--no-such-flag"]);

    // `record` without `--out`, `--out` without a value, a fleet subcommand
    // without sockets, the repeatable `--socket` the old binaries took, and
    // `top`'s flags on `stat`.
    assert_usage_error(&["record", "--seed", "9"]);
    assert_usage_error(&["record", "--out"]);
    assert_usage_error(&["stat"]);
    assert_usage_error(&["top", "--once"]);
    assert_usage_error(&["stat", "--socket", "no.sock"]);
    assert_usage_error(&["stat", "--sockets", "no.sock", "--once"]);

    // No subcommand, unknown ones — and `--help`, which lists all six.
    assert_usage_error(&[]);
    assert_usage_error(&["explain"]);
    assert_usage_error(&["svtrace"]);
    let help = svobs(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&help.stdout);
    for sub in ["prof", "trace", "record", "replay", "stat", "top"] {
        assert!(listing.contains(&format!("svobs {sub} ")), "{listing}");
    }
}

#[test]
fn a_fleet_nobody_listens_on_is_a_runtime_failure() {
    let socket = format!("{}/nobody.sock", scratch_dir("dead").display());
    for args in [
        vec!["stat", "--sockets", &socket],
        vec!["stat", "--sockets", &socket, "--json"],
        vec!["top", "--once", "--sockets", &socket],
        vec!["top", "--once", "--json", "--sockets", &socket],
    ] {
        let output = svobs(&args);
        assert_eq!(output.status.code(), Some(1), "svobs {args:?}");
        assert!(
            stderr(&output).contains("no shard answered"),
            "svobs {args:?} explains the failure: {}",
            stderr(&output)
        );
        assert!(!output.stdout.is_empty(), "the dead shard is still listed");
    }
}

#[test]
fn experiments_rejects_unknown_names_before_training() {
    for args in [&["nosuch"][..], &["table3", "nosuch"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        assert_eq!(output.status.code(), Some(2), "experiments {args:?}");
        assert!(stderr(&output).contains("usage: experiments"));
        assert!(output.stdout.is_empty());
    }
}

#[test]
fn journal_round_trip_holds_bytes_and_refuses_a_flipped_one() {
    let dir = scratch_dir("journal");
    let path = |name: &str| format!("{}/{name}", dir.display());
    let (a, b, flipped) = (path("a.jsonl"), path("b.jsonl"), path("flipped.jsonl"));
    let record = |out: &str| svobs(&["record", "--out", out, "--seed", "9", "--limit", "4"]);

    let output = record(&a);
    assert!(output.status.success(), "record: {}", stderr(&output));
    let output = svobs(&["replay", &a]);
    assert!(output.status.success(), "replay: {}", stderr(&output));
    assert!(String::from_utf8_lossy(&output.stdout).contains("byte-identical"));
    assert!(record(&b).status.success());
    let bytes = std::fs::read(&a).expect("read journal");
    assert_eq!(
        bytes,
        std::fs::read(&b).expect("read journal"),
        "re-recording from scratch reproduces the file"
    );

    // Flip the low bit of the first event's tick ('6' <-> '7'; the header
    // line carries none): the journal either refuses the checksum or replays
    // to a divergence.
    let needle = b"\"tick\":";
    let found = bytes.windows(needle.len()).position(|at| at == needle);
    let tick = found.expect("an event line carries a tick") + needle.len();
    let mut tampered = bytes;
    tampered[tick] ^= 1;
    std::fs::write(&flipped, tampered).expect("write tampered journal");
    let output = svobs(&["replay", &flipped]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a tampered journal is a runtime failure: {}",
        stderr(&output)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
