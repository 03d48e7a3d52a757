//! The parse pin's digests and its check against
//! `tests/golden/parse-digests.txt` (see `tests/parse_pin.rs`), shared with
//! the pin of `svfuzz`'s generated inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

const GOLDEN: &str = include_str!("../golden/parse-digests.txt");

/// The FNV-1a (64 bit) offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// `hash` with `bytes` folded in, FNV-1a (64 bit).
pub fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One group's digest lines and its parsed and errored counts.
#[derive(Default)]
pub struct Group {
    pub lines: Vec<(String, String)>,
    pub parsed: usize,
    pub errored: usize,
}

impl Group {
    /// Pins `source`'s whole parse under `name`.
    pub fn parse(&mut self, name: String, source: &str) {
        let digest = self.fold(FNV_BASIS, &svparse::parse_module(source));
        self.lines.push((name, format!("{digest:016x}")));
    }

    /// Folds one result's `Debug` text into `hash`, counting it.
    pub fn fold<T: Debug, E: Debug>(&mut self, hash: u64, result: &Result<T, E>) -> u64 {
        match result {
            Ok(_) => self.parsed += 1,
            Err(_) => self.errored += 1,
        }
        fnv64(hash, format!("{result:?}").as_bytes())
    }

    /// Prints the group's count line and every computed line, and fails on
    /// any that the golden file does not hold and on any golden line of the
    /// group that was not computed.
    pub fn check(self, group: &str) {
        let golden: BTreeMap<&str, &str> = GOLDEN
            .lines()
            .filter_map(|line| line.split_once(' '))
            .collect();
        let counts = (
            format!("#{group}"),
            format!("parsed={} errored={}", self.parsed, self.errored),
        );
        let mut wrong = Vec::new();
        for (name, hash) in std::iter::once(&counts).chain(&self.lines) {
            println!("parse-digest: {name} {hash}");
            match golden.get(name.as_str()) {
                Some(expected) if expected == hash => {}
                Some(expected) => wrong.push(format!("{name}: {hash}, golden {expected}")),
                None => wrong.push(format!("{name}: {hash}, not in the golden file")),
            }
        }
        let prefix = format!("{group}/");
        let computed: BTreeSet<&str> = self.lines.iter().map(|(name, _)| name.as_str()).collect();
        for name in golden.keys().filter(|name| name.starts_with(&prefix)) {
            if !computed.contains(name) {
                wrong.push(format!("{name}: in the golden file, not computed"));
            }
        }
        assert!(wrong.is_empty(), "parses moved:\n{}", wrong.join("\n"));
    }
}
