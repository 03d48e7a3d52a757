//! `svobs` — the operator CLI: profile, trace, journal and watch an
//! evaluation or a live `shard-serve` fleet.
//!
//! `svobs --help` prints the synopsis of all six subcommands ([`SUBCOMMANDS`]).
//!
//! `prof`, `trace` and `record` run the quick protocol in process ([`Quick`]);
//! `trace --sockets`, `stat` and `top` talk to running shards.  Every
//! subcommand reads its arguments through the one [`Flags`] cursor and fails
//! through the one [`Failure`] type, so the exit status means the same thing
//! everywhere: 0 ok, 1 runtime failure or missed bar, 2 usage.

mod eval;
mod fleet;
mod journal;

use assertsolver::{human_crafted_cases, EvalConfig};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use svdata::SvaBugEntry;
use svmodel::AssertSolverModel;

/// Why a subcommand did not succeed; the variant is the exit status.
pub enum Failure {
    /// The command line is wrong: usage on stderr, exit 2.
    Usage(String),
    /// The run failed or missed its bar: exit 1.
    Runtime(String),
}

/// Library errors are strings, and every one of them is a runtime failure.
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Runtime(message)
    }
}

/// What every subcommand returns.
pub type Outcome = Result<(), Failure>;

/// The argument cursor of one subcommand: flags, their values and positionals
/// all leave through it, so a missing value, an unparsable one and a token
/// nobody asked for are each reported the same way by every subcommand.
pub struct Flags(std::env::Args);

impl Flags {
    /// The next token, if any.
    pub fn token(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value that must follow `flag`, parsed.
    pub fn value<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, Failure> {
        let raw = self
            .token()
            .ok_or_else(|| Failure::Usage(format!("{flag} requires a value")))?;
        raw.parse()
            .map_err(|err| Failure::Usage(format!("{flag}: {err}")))
    }

    /// The comma-separated socket list that must follow `flag`.
    pub fn sockets(&mut self, flag: &str) -> Result<Vec<String>, Failure> {
        let raw: String = self.value(flag)?;
        Ok(raw
            .split(',')
            .map(str::trim)
            .filter(|socket| !socket.is_empty())
            .map(str::to_string)
            .collect())
    }

    /// The failure for a token no arm of the subcommand consumed: an unknown
    /// flag, or junk after the last argument.
    pub fn unexpected(token: &str) -> Failure {
        Failure::Usage(format!("unexpected argument {token:?}"))
    }
}

/// The quick-protocol fixture behind `prof`, `trace`, `record` and `replay`:
/// `seed` picks the base model and the protocol seed, `limit` truncates the
/// corpus.
pub struct Quick {
    pub entries: Vec<SvaBugEntry>,
    pub model: AssertSolverModel,
    pub config: EvalConfig,
}

impl Quick {
    /// The human-crafted cases — preceded, when `pipeline_seed` is given, by
    /// that tiny pipeline's machine-generated ones (the mixed corpus the
    /// determinism suites sweep) — cut to `limit`.
    pub fn new(seed: u64, limit: usize, pipeline_seed: Option<u64>) -> Result<Self, Failure> {
        let mut entries = pipeline_seed.map_or_else(Vec::new, |seed| {
            let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(seed));
            pipeline.datasets.sva_bug
        });
        entries.extend(human_crafted_cases());
        entries.truncate(limit);
        if entries.is_empty() {
            return Err(Failure::Runtime("empty corpus (--limit 0?)".to_string()));
        }
        Ok(Self {
            entries,
            model: AssertSolverModel::base(seed),
            config: EvalConfig::quick(seed),
        })
    }
}

/// Name, synopsis and entry point of a subcommand.
type Subcommand = (&'static str, &'static str, fn(Flags) -> Outcome);

/// The six subcommands, in `--help` order.
const SUBCOMMANDS: [Subcommand; 6] = [
    (
        "prof",
        "[--seed N] [--limit N] [--profile-dir DIR] [--min-coverage PCT]",
        eval::prof,
    ),
    (
        "trace",
        "[--seed N] [--limit N] [--sockets a.sock,b.sock] [--timeout-ms N] [--deterministic] \
         [--flame] [--slowest N] [--min-coverage PCT] [--out PATH]",
        eval::trace,
    ),
    (
        "record",
        "--out PATH [--seed N] [--limit N]",
        journal::record,
    ),
    ("replay", "PATH", journal::replay),
    (
        "stat",
        "[--sockets a.sock,b.sock] [--timeout-ms N] [--json]",
        fleet::stat,
    ),
    (
        "top",
        "[--sockets a.sock,b.sock] [--timeout-ms N] [--interval-ms N] [--once] [--json]",
        fleet::top,
    ),
];

/// The synopsis of `only`, or of every subcommand when it names none.
fn usage(only: &str) -> String {
    let known = SUBCOMMANDS.iter().any(|(name, ..)| *name == only);
    let mut out = String::from("usage:\n");
    for (name, synopsis, _) in SUBCOMMANDS {
        if !known || name == only {
            out.push_str(&format!("  svobs {name} {synopsis}\n"));
        }
    }
    out.push_str("exit status: 0 ok, 1 runtime failure or missed bar, 2 usage\n");
    out
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    let name = argv.nth(1).unwrap_or_default();
    if name == "--help" {
        print!("{}", usage(""));
        return ExitCode::SUCCESS;
    }
    let outcome = match SUBCOMMANDS.iter().find(|(sub, ..)| *sub == name) {
        Some((_, _, run)) => run(Flags(argv)),
        None if name.is_empty() => Err(Failure::Usage("missing subcommand".to_string())),
        None => Err(Failure::Usage(format!("unknown subcommand {name:?}"))),
    };
    let (message, status) = match outcome {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Runtime(message)) => (message, 1),
        Err(Failure::Usage(message)) => (message, 2),
    };
    eprintln!("{}: {message}", format!("svobs {name}").trim_end());
    if status == 2 {
        eprint!("{}", usage(&name));
    }
    ExitCode::from(status)
}
