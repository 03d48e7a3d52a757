//! Differential oracles.
//!
//! Every oracle is a pure function of the input source: internal seeds (bug
//! injection, item permutation) are derived from a content hash of the text, so
//! an outcome can be reproduced from a corpus case alone — no run state needed.
//!
//! * [`OracleKind::ParserEnvelope`] — parsing never panics, and on malformed
//!   input the reported error span stays within the source (line 0 is the
//!   documented "unknown" value and is accepted).
//! * [`OracleKind::Roundtrip`] — `emit_file ∘ parse` is idempotent and
//!   structure-preserving for any input that parses.
//! * [`OracleKind::MutateClosure`] — every `svmutate` operator applied to a
//!   parseable module yields a mutant that reparses, compile-checks, emits
//!   canonically, reports the requested [`BugKind`], and is re-locatable as a
//!   single differing site.
//! * [`OracleKind::BmcPermutation`] — permuting a module's concurrent items
//!   (`assign` / `always`) must not change the bounded-check verdict or the
//!   set of failing assertion names.
//! * [`OracleKind::WireStats`] — source-derived stats-plane payloads
//!   round-trip through their wire frames (`StatsReply`, `TraceReply`),
//!   and every deterministic corruption of the encoded
//!   bytes (flips, truncations, oversized declarations,
//!   checksummed-but-mangled JSON) degrades to a decode error — never a
//!   panic.
//! * [`OracleKind::SimDifferential`] — the compiled simulator and bounded
//!   checker agree with the reference interpreter (`svsim::reference`) and
//!   the plain check loop on the source and on `svmutate` mutants of it:
//!   every value of every cycle, the `SimError`, the assertion failures, the
//!   rendered log, and the verdict field for field.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use svmutate::{collect_sites, replace_site, BugInjector, BugKind};
use svparse::ast::Item;
use svparse::pretty::emit_expr;
use svparse::{emit_file, emit_module, parse, parse_module, Module};
use svserve::persist::fnv64;
use svsim::{Design, SimError};
use svverify::{BoundedChecker, CheckConfig, CheckMethod, Verdict};

/// The differential property an input is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleKind {
    /// No panic; error spans within the source.
    ParserEnvelope,
    /// `parse ↔ emit_file` structural roundtrip.
    Roundtrip,
    /// Mutation-operator closure.
    MutateClosure,
    /// Bounded-check verdict invariance under concurrent-item permutation.
    BmcPermutation,
    /// Stats-plane wire-frame robustness (`StatsReply` / `TraceReply`):
    /// corrupt bytes never panic.
    WireStats,
    /// Compiled simulator and checker against the reference interpreter.
    SimDifferential,
}

impl OracleKind {
    /// Every oracle, in the order the miner drives them.
    pub fn all() -> [OracleKind; 6] {
        [
            OracleKind::ParserEnvelope,
            OracleKind::Roundtrip,
            OracleKind::MutateClosure,
            OracleKind::BmcPermutation,
            OracleKind::WireStats,
            OracleKind::SimDifferential,
        ]
    }

    /// Stable tag used in filenames, logs and the CLI.
    pub fn tag(&self) -> &'static str {
        match self {
            OracleKind::ParserEnvelope => "parser-envelope",
            OracleKind::Roundtrip => "roundtrip",
            OracleKind::MutateClosure => "mutate-closure",
            OracleKind::BmcPermutation => "bmc-permutation",
            OracleKind::WireStats => "wire-stats",
            OracleKind::SimDifferential => "sim-diff",
        }
    }

    /// Parses a tag back into the kind.
    pub fn from_tag(tag: &str) -> Option<OracleKind> {
        OracleKind::all().into_iter().find(|k| k.tag() == tag)
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Result of driving one oracle over one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The property holds (or is vacuous for this input).
    Pass,
    /// The property is violated; `detail` describes how.
    Fail {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl OracleOutcome {
    fn fail(detail: impl Into<String>) -> Self {
        OracleOutcome::Fail {
            detail: detail.into(),
        }
    }

    /// Returns the failure detail, if any.
    pub fn detail(&self) -> Option<&str> {
        match self {
            OracleOutcome::Pass => None,
            OracleOutcome::Fail { detail } => Some(detail),
        }
    }
}

/// The cheap bounded-check protocol the permutation oracle uses on both sides
/// of the diff. Small and fixed so a 1-core CI smoke run stays fast.
fn permutation_check_config() -> CheckConfig {
    CheckConfig {
        depth: 6,
        max_exhaustive_bits: 8,
        random_cases: 4,
        seed: 0xF522_0001,
    }
}

/// Drives one oracle over one source text. Pure: outcome depends only on
/// `(kind, source)`.
pub fn drive_oracle(kind: OracleKind, source: &str) -> OracleOutcome {
    match kind {
        OracleKind::ParserEnvelope => parser_envelope(source),
        OracleKind::Roundtrip => roundtrip(source),
        OracleKind::MutateClosure => mutate_closure(source),
        OracleKind::BmcPermutation => bmc_permutation(source),
        OracleKind::WireStats => wire_stats(source),
        OracleKind::SimDifferential => sim_differential(source).0,
    }
}

fn parser_envelope(source: &str) -> OracleOutcome {
    let parsed = match catch_unwind(AssertUnwindSafe(|| parse(source))) {
        Err(_) => return OracleOutcome::fail("parser panicked"),
        Ok(result) => result,
    };
    match parsed {
        Err(err) => {
            let lines = source.lines().count().max(1);
            if err.line() as usize > lines {
                OracleOutcome::fail(format!(
                    "error span out of range: line {} of {} ({err})",
                    err.line(),
                    lines
                ))
            } else {
                OracleOutcome::Pass
            }
        }
        Ok(_) => match catch_unwind(AssertUnwindSafe(|| svparse::compile_check(source))) {
            Err(_) => OracleOutcome::fail("compile_check panicked"),
            Ok(_) => OracleOutcome::Pass,
        },
    }
}

fn roundtrip(source: &str) -> OracleOutcome {
    let Ok(file) = parse(source) else {
        return OracleOutcome::Pass; // vacuous: envelope owns invalid inputs
    };
    let once = emit_file(&file);
    let refile = match parse(&once) {
        Ok(refile) => refile,
        Err(err) => return OracleOutcome::fail(format!("canonical text does not re-parse: {err}")),
    };
    let twice = emit_file(&refile);
    if once != twice {
        return OracleOutcome::fail("emission is not idempotent");
    }
    if file.modules.len() != refile.modules.len() {
        return OracleOutcome::fail("module count drifted across the roundtrip");
    }
    for (a, b) in file.modules.iter().zip(refile.modules.iter()) {
        if a.name != b.name {
            return OracleOutcome::fail(format!("module name drifted: {} vs {}", a.name, b.name));
        }
        if a.ports.len() != b.ports.len() || a.items.len() != b.items.len() {
            return OracleOutcome::fail(format!("structure of {} drifted", a.name));
        }
    }
    OracleOutcome::Pass
}

fn mutate_closure(source: &str) -> OracleOutcome {
    let Ok(golden) = parse_module(source) else {
        return OracleOutcome::Pass;
    };
    let mut injector = BugInjector::new(fnv64(source.as_bytes()) ^ 0x3A7);
    for kind in BugKind::all() {
        let Some(bug) = injector.inject_with_kind(&golden, kind) else {
            continue;
        };
        let buggy_text = emit_module(&bug.buggy);
        let reparsed = match parse_module(&buggy_text) {
            Ok(m) => m,
            Err(err) => {
                return OracleOutcome::fail(format!("{kind} mutant does not reparse: {err}"))
            }
        };
        if svparse::compile_check(&buggy_text).is_err() {
            return OracleOutcome::fail(format!("{kind} mutant does not compile-check"));
        }
        if emit_module(&reparsed) != buggy_text {
            return OracleOutcome::fail(format!("{kind} mutant emission is not canonical"));
        }
        if bug.kind != kind {
            return OracleOutcome::fail(format!(
                "injector reported kind {} for a requested {kind}",
                bug.kind
            ));
        }
        let Some(site_index) = locate_single_site(&golden, &bug.buggy) else {
            return OracleOutcome::fail(format!(
                "{kind} mutant is not re-locatable as a single differing site"
            ));
        };
        let buggy_sites = collect_sites(&bug.buggy);
        let rebuilt = replace_site(&golden, site_index, buggy_sites[site_index].expr.clone());
        if emit_module(&rebuilt) != buggy_text {
            return OracleOutcome::fail(format!(
                "replaying the located {kind} site does not reproduce the mutant"
            ));
        }
    }
    OracleOutcome::Pass
}

/// Index of the single site whose expression differs, if exactly one does and
/// both modules enumerate the same number of sites.
fn locate_single_site(golden: &Module, buggy: &Module) -> Option<usize> {
    let golden_sites = collect_sites(golden);
    let buggy_sites = collect_sites(buggy);
    if golden_sites.len() != buggy_sites.len() {
        return None;
    }
    let differing: Vec<usize> = golden_sites
        .iter()
        .zip(buggy_sites.iter())
        .enumerate()
        .filter(|(_, (g, b))| emit_expr(&g.expr) != emit_expr(&b.expr))
        .map(|(i, _)| i)
        .collect();
    match differing.as_slice() {
        [index] => Some(*index),
        _ => None,
    }
}

fn bmc_permutation(source: &str) -> OracleOutcome {
    let Ok(module) = parse_module(source) else {
        return OracleOutcome::Pass;
    };
    // Deterministic cost cap: very large modules are covered by the other
    // oracles; the bounded check would dominate the iteration budget.
    if source.lines().count() > 160 {
        return OracleOutcome::Pass;
    }
    let checker = BoundedChecker::new(permutation_check_config());
    let baseline = checker.check_module(&module);
    let permuted = permute_concurrent_items(&module, fnv64(source.as_bytes()) ^ 0xB3C);
    let permuted_text = emit_module(&permuted);
    let reparsed = match parse_module(&permuted_text) {
        Ok(m) => m,
        Err(err) => return OracleOutcome::fail(format!("permuted module does not reparse: {err}")),
    };
    let diffed = checker.check_module(&reparsed);
    let (base_sig, perm_sig) = (verdict_signature(&baseline), verdict_signature(&diffed));
    if base_sig != perm_sig {
        return OracleOutcome::fail(format!(
            "verdict changed under item permutation: {base_sig:?} vs {perm_sig:?}"
        ));
    }
    OracleOutcome::Pass
}

fn wire_stats(source: &str) -> OracleOutcome {
    use svmodel::CaseInput;
    use svserve::{
        Frame, MetricClass, MetricsRegistry, RepairRequest, TraceContext, TraceSpan, WireOutcome,
    };

    let seed = fnv64(source.as_bytes()) ^ 0x57A7;

    // A snapshot derived from the source content: one deterministic counter
    // plus a histogram fed source bytes, so corpus inputs reach different
    // bucket layouts, value magnitudes and JSON shapes.
    let registry = MetricsRegistry::default();
    registry
        .counter("fuzz.source.bytes", MetricClass::Deterministic)
        .add(source.len() as u64);
    let content = registry.histogram("fuzz.source.content", MetricClass::Volatile);
    for (i, byte) in source.bytes().take(64).enumerate() {
        content.observe(seed.rotate_left(i as u32) ^ u64::from(byte));
    }

    // A source-derived trace tree (the `TraceReply` payload): one root with a
    // child per leading source byte, ids flowing from the real derivation.
    let request = RepairRequest::new(
        CaseInput {
            spec: source.chars().take(48).collect(),
            buggy_source: source.to_string(),
            logs: format!("fuzz {seed:016x}"),
        },
        1 + (seed as usize) % 7,
        0.2,
    );
    let root = TraceContext::root(request.key(), seed);
    let mut spans = vec![TraceSpan::new(&root, "session", 0, 1, seed & 0xFFFF)];
    for (i, byte) in source.bytes().take(6).enumerate() {
        spans.push(TraceSpan::new(
            &root.child(&format!("stage.{byte}")),
            format!("stage.{byte}"),
            1 + i as u32,
            u64::from(byte),
            seed.rotate_left(i as u32) & 0xFFF,
        ));
    }

    // Every stats-plane reply frame — registry snapshot, trace tree — faces
    // the same corruption battery: a corrupt peer must always degrade to a
    // counted decode error, never a panic.
    let frames = [
        ("stats", Frame::StatsReply(registry.snapshot())),
        (
            "trace reply",
            Frame::TraceReply {
                outcome: WireOutcome {
                    responses: Vec::new(),
                    from_cache: seed & 1 == 0,
                },
                spans,
            },
        ),
    ];
    for (label, frame) in &frames {
        if let Some(outcome) = frame_corruption_battery(frame, seed, label) {
            return outcome;
        }
    }
    OracleOutcome::Pass
}

/// Runs one frame through the corruption battery; `Some` is a finding.
///
/// 1. the well-formed frame round-trips exactly;
/// 2. single-byte flips and truncations at seed-derived positions decode to
///    an error (length mismatch, checksum, codec) — never a panic, never a
///    silently accepted frame;
/// 3. an oversized length declaration is refused before any body allocation;
/// 4. a checksummed-but-mangled body — the shape a buggy (not malicious)
///    peer produces — decodes to an error or some other valid frame without
///    panicking, and the typed JSON parsers behind the stats plane
///    (registry snapshot, trace forest) absorb the mangled
///    text without panicking too.
fn frame_corruption_battery(
    frame: &svserve::Frame,
    seed: u64,
    label: &str,
) -> Option<OracleOutcome> {
    use svserve::{decode_frame, encode_frame};

    let bytes = match encode_frame(frame) {
        Ok(bytes) => bytes,
        Err(err) => {
            return Some(OracleOutcome::fail(format!(
                "{label} frame does not encode: {err}"
            )))
        }
    };
    match catch_unwind(AssertUnwindSafe(|| decode_frame(&bytes))) {
        Err(_) => {
            return Some(OracleOutcome::fail(format!(
                "decoding a well-formed {label} frame panicked"
            )))
        }
        Ok(Ok(decoded)) if decoded == *frame => {}
        Ok(Ok(_)) => {
            return Some(OracleOutcome::fail(format!(
                "{label} frame did not round-trip"
            )))
        }
        Ok(Err(err)) => {
            return Some(OracleOutcome::fail(format!(
                "well-formed {label} frame rejected: {err}"
            )))
        }
    }

    for step in 0..8u32 {
        let flip_at = (seed.rotate_left(step * 7) as usize) % bytes.len();
        let mut flipped = bytes.clone();
        flipped[flip_at] ^= 1 << (step % 8);
        match catch_unwind(AssertUnwindSafe(|| decode_frame(&flipped))) {
            Err(_) => {
                return Some(OracleOutcome::fail(format!(
                    "{label}: byte flip at {flip_at} panicked the frame decoder"
                )))
            }
            Ok(Err(_)) => {}
            Ok(Ok(_)) => {
                return Some(OracleOutcome::fail(format!(
                    "{label}: byte flip at {flip_at} was accepted as a valid frame"
                )))
            }
        }
        let cut = (seed.rotate_right(step * 5) as usize) % bytes.len();
        match catch_unwind(AssertUnwindSafe(|| decode_frame(&bytes[..cut]))) {
            Err(_) => {
                return Some(OracleOutcome::fail(format!(
                    "{label}: truncation to {cut} bytes panicked the frame decoder"
                )))
            }
            Ok(Err(_)) => {}
            Ok(Ok(_)) => {
                return Some(OracleOutcome::fail(format!(
                    "{label}: truncation to {cut} bytes was accepted as a valid frame"
                )))
            }
        }
    }

    let mut oversized = bytes.clone();
    oversized[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    if !matches!(
        catch_unwind(AssertUnwindSafe(|| decode_frame(&oversized))),
        Ok(Err(_))
    ) {
        return Some(OracleOutcome::fail(format!(
            "{label}: oversized length declaration was not cleanly refused"
        )));
    }

    let body = &bytes[12..];
    if !body.is_empty() {
        let drop_at = (seed as usize) % body.len();
        let mut mangled: Vec<u8> = body.to_vec();
        mangled.remove(drop_at);
        let mut reframed = Vec::with_capacity(12 + mangled.len());
        reframed.extend_from_slice(&(mangled.len() as u32).to_le_bytes());
        reframed.extend_from_slice(&fnv64(&mangled).to_le_bytes());
        reframed.extend_from_slice(&mangled);
        if catch_unwind(AssertUnwindSafe(|| decode_frame(&reframed))).is_err() {
            return Some(OracleOutcome::fail(format!(
                "{label}: mangled body (byte {drop_at} dropped, checksum fixed) \
                 panicked the decoder"
            )));
        }
        if let Ok(text) = std::str::from_utf8(&mangled) {
            let owned = text.to_string();
            type TextParser = fn(&str);
            let parsers: [(&str, TextParser); 2] = [
                ("registry snapshot", |t| {
                    let _ = svserve::RegistrySnapshot::parse_json(t);
                }),
                ("trace forest", |t| {
                    let _ = svserve::TraceForest::parse_jsonl(t);
                }),
            ];
            for (parser_label, parser) in parsers {
                if catch_unwind(AssertUnwindSafe(|| parser(&owned))).is_err() {
                    return Some(OracleOutcome::fail(format!(
                        "{label}: {parser_label} parser panicked on mangled JSON"
                    )));
                }
            }
        }
    }
    None
}

/// Designs the differential oracle derives from one source: itself and two mutants.
const SIM_DIFF_MUTANTS: usize = 2;
/// Random sequences each of them is traced over, and their length.
const SIM_DIFF_SEQUENCES: usize = 32;
const SIM_DIFF_DEPTH: usize = 8;

/// Drives the simulator differential and also reports how many design × stimulus
/// pairs it traced through both engines (the coverage figure CI checks).
///
/// The source and two content-seeded `svmutate` mutants of it are each, when they
/// elaborate, traced over 32 random 8-cycle sequences by
/// `svsim::reference::first_divergence`, then judged by [`BoundedChecker`] and by the
/// plain loop over the reference engine; any difference is a finding.
pub fn sim_differential(source: &str) -> (OracleOutcome, u64) {
    let Ok(module) = parse_module(source) else {
        return (OracleOutcome::Pass, 0);
    };
    // Same deterministic cost cap as the permutation oracle.
    if source.lines().count() > 160 {
        return (OracleOutcome::Pass, 0);
    }
    let seed = fnv64(source.as_bytes()) ^ 0x51D1;
    let mutants = BugInjector::new(seed).inject_batch(&module, SIM_DIFF_MUTANTS);
    let designs = std::iter::once(module.clone()).chain(mutants.into_iter().map(|bug| bug.buggy));
    let mut pairs = 0;
    for (n, module) in designs.enumerate() {
        let Ok(design) = Design::elaborate(&module) else {
            continue;
        };
        let stimuli =
            svverify::Stimuli::random(&design, SIM_DIFF_DEPTH, SIM_DIFF_SEQUENCES, seed ^ n as u64);
        for stimulus in stimuli {
            pairs += 1;
            if let Some(difference) = svsim::reference::first_divergence(&design, &stimulus) {
                return (
                    OracleOutcome::fail(format!("design {n}: engines diverge: {difference}")),
                    pairs,
                );
            }
        }
        let config = permutation_check_config();
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            BoundedChecker::new(config.clone()).check_design(&design)
        }));
        let reference = catch_unwind(AssertUnwindSafe(|| reference_check(&design, &config)));
        // Both sides panicking is agreement: the arithmetic they share has a few
        // documented panics, and reaching one is the envelope oracles' business.
        if compiled.as_ref().ok() != reference.as_ref().ok() {
            return (
                OracleOutcome::fail(format!(
                    "design {n}: verdicts differ: checker {compiled:?}, reference loop {reference:?}"
                )),
                pairs,
            );
        }
    }
    (OracleOutcome::Pass, pairs)
}

/// `BoundedChecker::check_design` as it was before designs were compiled: build the
/// whole stimulus set, run every sequence from reset on the reference interpreter,
/// check every attempt, stop at the first failing sequence.
fn reference_check(design: &Design, config: &CheckConfig) -> Verdict {
    if !design.has_assertions() {
        return Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: 0,
        };
    }
    let depth = config.depth.max(design.max_property_horizon() as usize + 4);
    let (method, stimuli) =
        if svverify::exhaustive_is_tractable(design, depth, config.max_exhaustive_bits) {
            (
                CheckMethod::Exhaustive,
                svverify::exhaustive_stimuli(design, depth),
            )
        } else {
            (
                CheckMethod::Randomised,
                svverify::random_stimuli(design, depth, config.random_cases, config.seed),
            )
        };
    let mut simulated = 0;
    for stim in &stimuli {
        match svsim::reference::Simulator::run(design, stim) {
            Ok(trace) => {
                simulated += 1;
                let failures = svsim::reference::check_assertions(design, &trace);
                if !failures.is_empty() {
                    return Verdict::Fail {
                        method,
                        witness: stim.clone(),
                        failures,
                    };
                }
            }
            Err(SimError::CombinationalLoop { module }) => {
                return Verdict::Unverifiable {
                    reason: format!("combinational loop in module `{module}`"),
                }
            }
            Err(other) => {
                return Verdict::Unverifiable {
                    reason: other.to_string(),
                }
            }
        }
    }
    Verdict::Pass {
        method,
        sequences: simulated,
    }
}

/// Shuffles the positions of `assign`/`always` items among themselves, keeping
/// declarations, parameters, properties and assertions pinned in place. The
/// permutation preserves concurrent semantics, so the verdict must not move.
fn permute_concurrent_items(module: &Module, seed: u64) -> Module {
    let mut permuted = module.clone();
    let slots: Vec<usize> = module
        .items
        .iter()
        .enumerate()
        .filter(|(_, item)| matches!(item, Item::Assign(_) | Item::Always(_)))
        .map(|(i, _)| i)
        .collect();
    let mut order = slots.clone();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    for (&slot, &from) in slots.iter().zip(order.iter()) {
        permuted.items[slot] = module.items[from].clone();
    }
    permuted
}

/// The order-invariant part of a verdict: its status plus the sorted failing
/// assertion names. Witness stimuli and sequence counts may legally differ.
fn verdict_signature(verdict: &Verdict) -> (u8, Vec<String>) {
    match verdict {
        Verdict::Pass { .. } => (0, Vec::new()),
        Verdict::Fail { failures, .. } => {
            let mut names: Vec<String> = failures.iter().map(|f| f.assertion.clone()).collect();
            names.sort();
            names.dedup();
            (1, names)
        }
        Verdict::Unverifiable { .. } => (2, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgen::{instantiate, Family, FamilyParams};

    fn golden(family: Family) -> String {
        instantiate(family, FamilyParams::default(), 0).source
    }

    #[test]
    fn all_oracles_pass_on_golden_designs() {
        for family in [Family::Counter, Family::Parity, Family::EdgeDetector] {
            let source = golden(family);
            for kind in OracleKind::all() {
                assert_eq!(
                    drive_oracle(kind, &source),
                    OracleOutcome::Pass,
                    "{kind} fails on golden {family}"
                );
            }
        }
    }

    #[test]
    fn envelope_accepts_clean_errors_and_flags_nothing_on_them() {
        // Malformed inputs with in-range spans are a PASS for the envelope.
        for source in ["module m(", "module m();\nassign\n", "", "module"] {
            assert_eq!(
                drive_oracle(OracleKind::ParserEnvelope, source),
                OracleOutcome::Pass,
                "{source:?}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_a_clean_envelope_pass_after_the_depth_limit_fix() {
        let nested = format!(
            "module m(input a, output y); assign y = {}a{}; endmodule",
            "(".repeat(1000),
            ")".repeat(1000)
        );
        assert_eq!(
            drive_oracle(OracleKind::ParserEnvelope, &nested),
            OracleOutcome::Pass
        );
    }

    #[test]
    fn permutation_keeps_concurrent_item_multiset() {
        let source = golden(Family::Alu);
        let module = parse_module(&source).unwrap();
        let permuted = permute_concurrent_items(&module, 42);
        assert_eq!(module.items.len(), permuted.items.len());
        let mut a: Vec<String> = Vec::new();
        let mut b: Vec<String> = Vec::new();
        for (x, y) in module.items.iter().zip(permuted.items.iter()) {
            // Pinned kinds stay identical in place.
            if !matches!(x, Item::Assign(_) | Item::Always(_)) {
                assert_eq!(
                    format!("{x:?}"),
                    format!("{y:?}"),
                    "non-concurrent item moved"
                );
            } else {
                a.push(format!("{x:?}"));
                b.push(format!("{y:?}"));
            }
        }
        a.sort();
        b.sort();
        assert_eq!(a, b, "concurrent items must be a permutation");
    }

    #[test]
    fn sim_differential_traces_the_source_and_its_mutants() {
        let (outcome, pairs) = sim_differential(&golden(Family::Fifo));
        assert_eq!(outcome, OracleOutcome::Pass);
        assert_eq!(
            pairs,
            ((1 + SIM_DIFF_MUTANTS) * SIM_DIFF_SEQUENCES) as u64,
            "the golden and every mutant elaborate and are traced in full"
        );
        // Vacuous on what does not parse; a design that cannot settle is still
        // compared (both engines must report the loop) and counts its pairs.
        assert_eq!(sim_differential("module m("), (OracleOutcome::Pass, 0));
        let looped = "module m(input clk, input a, output y);\n  assign y = !y;\n  \
                      assert property (@(posedge clk) a |-> y);\nendmodule\n";
        let (outcome, pairs) = sim_differential(looped);
        assert_eq!(outcome, OracleOutcome::Pass);
        assert!(pairs >= SIM_DIFF_SEQUENCES as u64);
    }

    #[test]
    fn oracle_tags_roundtrip() {
        for kind in OracleKind::all() {
            assert_eq!(OracleKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(OracleKind::from_tag("nope"), None);
    }
}
