//! Corpus corruption for Stage-1 filtering.
//!
//! The raw HuggingFace corpus the paper starts from contains incomplete modules,
//! logic-free stubs, duplicates and code with syntax errors; Stage 1 filters these and
//! routes the syntactically broken (but structurally interesting) ones into the
//! *Verilog-PT* pretraining dataset together with a compiler analysis.  This module
//! produces the same kinds of degraded samples from golden sources so that Stage 1 has
//! realistic work to do.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The ways a corpus sample can be degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// `endmodule` (or `module`) is missing — incomplete code.
    MissingEndmodule,
    /// A statement lost its semicolon — syntax error.
    DroppedSemicolon,
    /// A signal reference was renamed to an undeclared identifier — semantic error.
    UndeclaredIdentifier,
    /// A `begin` keyword was dropped — unbalanced block.
    UnbalancedBegin,
    /// The body was emptied — declarations only, no functional logic.
    NoFunctionalLogic,
}

impl CorruptionKind {
    /// All corruption kinds.
    pub fn all() -> &'static [CorruptionKind] {
        &[
            CorruptionKind::MissingEndmodule,
            CorruptionKind::DroppedSemicolon,
            CorruptionKind::UndeclaredIdentifier,
            CorruptionKind::UnbalancedBegin,
            CorruptionKind::NoFunctionalLogic,
        ]
    }
}

/// A corrupted corpus sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorruptedSample {
    /// Degraded source text.
    pub source: String,
    /// What was done to it.
    pub kind: CorruptionKind,
}

/// Applies the given corruption to a golden source.
pub fn corrupt(source: &str, kind: CorruptionKind, rng: &mut StdRng) -> CorruptedSample {
    let degraded = match kind {
        CorruptionKind::MissingEndmodule => source.replace("endmodule", ""),
        CorruptionKind::DroppedSemicolon => drop_random_semicolon(source, rng),
        CorruptionKind::UndeclaredIdentifier => rename_random_signal(source, rng),
        CorruptionKind::UnbalancedBegin => replace_first(source, " begin", " "),
        CorruptionKind::NoFunctionalLogic => strip_logic(source),
    };
    CorruptedSample {
        source: degraded,
        kind,
    }
}

/// Applies a random corruption drawn from all kinds.
pub fn corrupt_random(source: &str, seed: u64) -> CorruptedSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = *CorruptionKind::all()
        .choose(&mut rng)
        .expect("non-empty corruption list");
    corrupt(source, kind, &mut rng)
}

fn drop_random_semicolon(source: &str, rng: &mut StdRng) -> String {
    let positions: Vec<usize> = source
        .char_indices()
        .filter(|(_, c)| *c == ';')
        .map(|(i, _)| i)
        .collect();
    if positions.is_empty() {
        return source.to_string();
    }
    // Skip the port-list semicolon (position 0) when there is a choice, so the error
    // lands inside the body more often.
    let idx = positions[rng.gen_range(0..positions.len())];
    let mut out = String::with_capacity(source.len());
    out.push_str(&source[..idx]);
    out.push_str(&source[idx + 1..]);
    out
}

fn rename_random_signal(source: &str, rng: &mut StdRng) -> String {
    let module = match svparse::parse_module(source) {
        Ok(m) => m,
        Err(_) => return source.to_string(),
    };
    let names = module.declared_names();
    let candidates: Vec<&String> = names
        .iter()
        .filter(|n| n.as_str() != "clk" && n.len() > 2)
        .collect();
    if candidates.is_empty() {
        return source.to_string();
    }
    let victim = candidates[rng.gen_range(0..candidates.len())];
    // Rename only one non-declaration occurrence so the identifier becomes undeclared
    // at a use site.
    let ghost = format!("{victim}_x");
    let mut replaced = false;
    source
        .lines()
        .map(|line| {
            let is_decl = line.trim_start().starts_with("input")
                || line.trim_start().starts_with("output")
                || line.trim_start().starts_with("wire")
                || line.trim_start().starts_with("reg");
            if !replaced && !is_decl && line.contains(victim.as_str()) {
                replaced = true;
                line.replacen(victim.as_str(), &ghost, 1)
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<String>>()
        .join("\n")
}

fn replace_first(source: &str, needle: &str, replacement: &str) -> String {
    source.replacen(needle, replacement, 1)
}

fn strip_logic(source: &str) -> String {
    let module = match svparse::parse_module(source) {
        Ok(m) => m,
        Err(_) => return source.to_string(),
    };
    let stripped = svparse::Module::new(
        module.name.clone(),
        module.ports.clone(),
        module
            .items
            .iter()
            .filter(|i| matches!(i, svparse::Item::Net(_) | svparse::Item::Param(_)))
            .cloned()
            .collect(),
    );
    svparse::emit_module(&stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{instantiate, Family, FamilyParams};

    fn golden() -> String {
        instantiate(Family::Accumulator, FamilyParams::default(), 0).source
    }

    #[test]
    fn missing_endmodule_fails_parse() {
        let mut rng = StdRng::seed_from_u64(1);
        let sample = corrupt(&golden(), CorruptionKind::MissingEndmodule, &mut rng);
        assert!(svparse::parse(&sample.source).is_err());
    }

    #[test]
    fn dropped_semicolon_fails_compile_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let sample = corrupt(&golden(), CorruptionKind::DroppedSemicolon, &mut rng);
        assert!(svparse::compile_check(&sample.source).is_err());
    }

    #[test]
    fn undeclared_identifier_fails_compile_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let sample = corrupt(&golden(), CorruptionKind::UndeclaredIdentifier, &mut rng);
        assert!(
            svparse::compile_check(&sample.source).is_err(),
            "corrupted source unexpectedly clean:\n{}",
            sample.source
        );
    }

    #[test]
    fn stripped_module_parses_but_has_no_logic() {
        let mut rng = StdRng::seed_from_u64(4);
        let sample = corrupt(&golden(), CorruptionKind::NoFunctionalLogic, &mut rng);
        let module = svparse::parse_module(&sample.source).unwrap();
        assert!(!module.has_functional_logic());
    }

    #[test]
    fn corrupt_random_is_deterministic() {
        let a = corrupt_random(&golden(), 7);
        let b = corrupt_random(&golden(), 7);
        assert_eq!(a, b);
    }
}
