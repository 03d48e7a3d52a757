//! The command-line contract of the crate's two binaries: every `svobs`
//! subcommand (and `experiments`) answers a bad command line with exit 2 and
//! usage on stderr before doing any work, a runtime failure with exit 1, the
//! journal round trip `record` → `replay` → re-`record` holds bytes, and a
//! fresh `record` reproduces the checked-in golden journal.

use std::path::PathBuf;
use std::process::{Command, Output};
use svserve::DRIVERS_ENV;

fn svobs(args: &[&str]) -> Output {
    svobs_with(args, &[])
}

fn svobs_with(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svobs"))
        .args(args)
        .envs(envs.iter().copied())
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
        ("trace", vec![], "--slowest"),
        ("record", vec!["--out", "never-written.jsonl"], "--limit"),
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

    // `record` without `--out` and `--out` without a value.
    assert_usage_error(&["record", "--seed", "9"]);
    assert_usage_error(&["record", "--out"]);

    // No subcommand, unknown ones (`prof`, the stage profile, is gone) —
    // and `--help`, which lists all three.
    assert_usage_error(&[]);
    assert_usage_error(&["explain"]);
    assert_usage_error(&["svtrace"]);
    assert_usage_error(&["prof"]);
    let help = svobs(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&help.stdout);
    let listed: Vec<&str> = (listing.lines())
        .filter_map(|line| line.trim_start().strip_prefix("svobs "))
        .filter_map(|synopsis| synopsis.split(' ').next())
        .collect();
    assert_eq!(listed, ["trace", "record", "replay"], "{listing}");
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
    let (a, b) = (path("a.jsonl"), path("b.jsonl"));
    let (flipped, old) = (path("flipped.jsonl"), path("old.jsonl"));
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

    // Flip the low bit of the first record's sample count ('8' <-> '9'; the
    // header line carries none): the journal either refuses the checksum or
    // replays to a divergence.
    let needle = b"\"samples\":";
    let found = bytes.windows(needle.len()).position(|at| at == needle);
    let samples = found.expect("a record line carries its samples") + needle.len();
    let mut tampered = bytes.clone();
    tampered[samples] ^= 1;
    std::fs::write(&flipped, tampered).expect("write tampered journal");
    let output = svobs(&["replay", &flipped]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a tampered journal is a runtime failure: {}",
        stderr(&output)
    );

    // A journal of the previous layout is refused by its version, whatever
    // its records say.
    let text = String::from_utf8(bytes).expect("journal is text");
    let v1 = text.replacen("\"format_version\":2", "\"format_version\":1", 1);
    assert_ne!(v1, text, "the header carries the layout version");
    std::fs::write(&old, v1).expect("write old-version journal");
    let output = svobs(&["replay", &old]);
    assert_eq!(output.status.code(), Some(1), "an old journal is refused");
    assert!(
        stderr(&output).contains("format version 1 (expected 2)"),
        "the refusal names the version: {}",
        stderr(&output)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `svobs record --seed 9 --limit 6` as checked in; regenerate it only in a
/// change that means to move journal bytes, and say so.
const GOLDEN_JOURNAL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/journal-quick-seed9-limit6.jsonl"
);

#[test]
fn record_reproduces_the_golden_journal_at_any_driver_count() {
    let golden = std::fs::read(GOLDEN_JOURNAL).expect("read golden journal");
    let dir = scratch_dir("golden");
    for drivers in ["1", "4"] {
        let out = format!("{}/drivers-{drivers}.jsonl", dir.display());
        let args = ["record", "--out", &out, "--seed", "9", "--limit", "6"];
        let output = svobs_with(&args, &[(DRIVERS_ENV, drivers)]);
        assert!(output.status.success(), "record: {}", stderr(&output));
        let recorded = std::fs::read(&out).expect("read journal");
        assert!(
            recorded == golden,
            "{drivers} driver(s): the recorded journal differs from {GOLDEN_JOURNAL}"
        );
    }
    let output = svobs(&["replay", GOLDEN_JOURNAL]);
    assert!(output.status.success(), "replay: {}", stderr(&output));
    assert!(String::from_utf8_lossy(&output.stdout).contains("byte-identical"));
    let _ = std::fs::remove_dir_all(&dir);
}
