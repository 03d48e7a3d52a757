//! What the fleet examples (`distributed_shards`, `fleet_stats`,
//! `trace_fleet`) share: locating workspace binaries, running them, and
//! `shard-serve` children that never outlive the example.

// Each example uses a different subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Locates a binary next to this example (`target/<profile>/<name>`),
/// building it if missing.
pub fn workspace_binary(name: &str, package: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("example lives under target/<profile>/examples")
        .to_path_buf();
    let binary = profile_dir.join(name);
    if !binary.exists() {
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-p", package, "--bin", name]);
        if profile_dir.file_name().and_then(|n| n.to_str()) == Some("release") {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build");
        assert!(status.success(), "building {name} failed");
    }
    assert!(binary.exists(), "{name} binary at {binary:?}");
    binary
}

/// Runs `binary` to completion: (exited 0, stdout, stderr).
pub fn run(binary: &Path, args: &[&str]) -> (bool, String, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("run binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// `a.sock,b.sock` — the form `--sockets` takes.
pub fn socket_list(sockets: &[PathBuf]) -> String {
    let sockets: Vec<String> = sockets.iter().map(|s| s.display().to_string()).collect();
    sockets.join(",")
}

/// One running `shard-serve` child.  Closing its stdin asks it to flush its
/// snapshot and exit; killing it simulates a crashed shard.
pub struct ShardProcess {
    child: Child,
}

impl ShardProcess {
    /// Spawns a shard and waits for its `LISTENING <socket>` banner, printed
    /// once the socket is bound.
    pub fn spawn(
        binary: &Path,
        socket: &Path,
        model_file: &Path,
        snapshot: Option<&Path>,
        seed: u64,
    ) -> Self {
        let mut command = Command::new(binary);
        command
            .arg("--socket")
            .arg(socket)
            .arg("--model-file")
            .arg(model_file)
            .args(["--seed", &seed.to_string(), "--workers", "2"]);
        if let Some(snapshot) = snapshot {
            command.arg("--snapshot-file").arg(snapshot);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn shard-serve");
        // From here on the guard owns the child: a bad banner unwinds through
        // `Drop` instead of leaking the process.
        let stdout = child.stdout.take().expect("child stdout");
        let shard = Self { child };
        let banner = BufReader::new(stdout)
            .lines()
            .next()
            .expect("shard-serve prints a banner")
            .expect("read shard-serve banner");
        assert!(
            banner.starts_with("LISTENING"),
            "unexpected shard-serve banner: {banner}"
        );
        shard
    }

    /// Graceful shutdown: close stdin (the child's exit signal) and wait, so
    /// the shard flushes its response snapshot for the next warm start.
    pub fn shutdown(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for shard-serve");
        assert!(status.success(), "shard-serve exited with {status}");
    }

    /// Simulated crash: SIGKILL, no flush, no goodbye on the wire.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A mid-example assertion failure unwinds past the explicit `kill()` calls;
/// without this guard the spawned `shard-serve` children would outlive the
/// example and leak (holding their sockets) until the host reaps them.
/// `kill()` is idempotent, so the normal path's explicit kills stay valid.
impl Drop for ShardProcess {
    fn drop(&mut self) {
        self.kill();
    }
}
