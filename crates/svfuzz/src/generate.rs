//! Input generation: grammar-aware synthesis plus a byte/token-level mangler.
//!
//! The grammar layer instantiates `svgen` design families at seeded parameter
//! points far beyond what the curated corpora sweep (1-bit data paths, deep
//! pipelines, every variant). The mangler then degrades a fraction of those
//! sources — deleting spans, splicing families together, nesting expressions
//! past the parser's depth bound — so the oracles also see near-miss and
//! outright invalid inputs, not just healthy ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgen::{instantiate, Family, FamilyParams};

/// One generated fuzz input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FuzzInput {
    /// The source text driven at the oracles (possibly mangled).
    pub source: String,
    /// The family whose instance seeded this input.
    pub family: Family,
    /// The pristine family source the input was derived from (journal base).
    pub base_source: String,
    /// `true` when the mangler ran over the family source.
    pub(crate) mangled: bool,
}

/// Tokens the mangler splices into sources; a mix of keywords, operators and
/// literal fragments that keep most mutants near the grammar.
const SPLICE_TOKENS: &[&str] = &[
    "module",
    "endmodule",
    "assign",
    "always",
    "begin",
    "end",
    "if",
    "else",
    "case",
    "endcase",
    "property",
    "endproperty",
    "assert",
    "posedge",
    "negedge",
    "wire",
    "reg",
    "input",
    "output",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ":",
    ",",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "|->",
    "|=>",
    "##1",
    "##2",
    "?",
    "~",
    "!",
    "^",
    "@",
    "'d3",
    "4'b1010",
    "$past(",
    "$rose(",
    "$stable(",
];

/// Bytes the single-character replacement op draws from.
const ALPHABET: &[u8] = b"abcxyz019 ()[]{};:,=+-*/%&|^~!<>?@#$_.'\"\n";

/// Generates the fuzz input for one iteration.
///
/// The result is a pure function of `(seed, iteration)`: the caller derives
/// `rng` from them and the same pair always yields the same input.
pub(crate) fn generate_input(rng: &mut StdRng, iteration: u64) -> FuzzInput {
    let families = Family::all();
    let family = families[rng.gen_range(0..families.len())];
    let params = FamilyParams {
        width: rng.gen_range(1..=16u32),
        depth: rng.gen_range(1..=14u32),
        variant: rng.gen_range(0..4u32),
    };
    let inst = instantiate(family, params, iteration as usize);
    let base_source = inst.source.clone();
    if rng.gen_bool(0.45) {
        FuzzInput {
            source: mangle(&inst.source, rng),
            family,
            base_source,
            mangled: true,
        }
    } else {
        FuzzInput {
            source: inst.source,
            family,
            base_source,
            mangled: false,
        }
    }
}

/// Applies one to three random mangling operations to a source.
pub(crate) fn mangle(source: &str, rng: &mut StdRng) -> String {
    let mut text = source.to_string();
    for _ in 0..rng.gen_range(1..=3u32) {
        text = mangle_once(&text, rng);
    }
    text
}

fn mangle_once(text: &str, rng: &mut StdRng) -> String {
    if text.is_empty() {
        return text.to_string();
    }
    let bytes = text.as_bytes();
    match rng.gen_range(0..9u32) {
        // Delete a short byte span.
        0 => {
            let start = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=24usize.min(bytes.len() - start));
            let mut out = bytes[..start].to_vec();
            out.extend_from_slice(&bytes[start + len..]);
            String::from_utf8_lossy(&out).into_owned()
        }
        // Duplicate a random line.
        1 => {
            let lines: Vec<&str> = text.lines().collect();
            let idx = rng.gen_range(0..lines.len());
            let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
            for (i, line) in lines.iter().enumerate() {
                out.push(line);
                if i == idx {
                    out.push(line);
                }
            }
            out.join("\n")
        }
        // Delete a random line.
        2 => {
            let lines: Vec<&str> = text.lines().collect();
            let idx = rng.gen_range(0..lines.len());
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n")
        }
        // Replace one byte with a random alphabet byte.
        3 => {
            let mut out = bytes.to_vec();
            let idx = rng.gen_range(0..out.len());
            out[idx] = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            String::from_utf8_lossy(&out).into_owned()
        }
        // Insert a grammar token at a random position.
        4 => {
            let pos = rng.gen_range(0..=bytes.len());
            let token = SPLICE_TOKENS[rng.gen_range(0..SPLICE_TOKENS.len())];
            format!("{} {} {}", &text[..pos], token, &text[pos..])
        }
        // Truncate.
        5 => text[..rng.gen_range(0..bytes.len())].to_string(),
        // Swap two lines.
        6 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() >= 2 {
                let a = rng.gen_range(0..lines.len());
                let b = rng.gen_range(0..lines.len());
                lines.swap(a, b);
            }
            lines.join("\n")
        }
        // Nest the first right-hand side in parentheses, sometimes past the
        // parser's depth bound (the stack-exhaustion regression's shape).
        7 => {
            let depth = rng.gen_range(1..=96usize);
            nest_first_rhs(text, depth)
        }
        // Splice this source with another family instance.
        _ => {
            let families = Family::all();
            let other = instantiate(
                families[rng.gen_range(0..families.len())],
                FamilyParams::default(),
                rng.gen_range(0..64usize),
            );
            let cut_a = rng.gen_range(0..=bytes.len());
            let cut_b = rng.gen_range(0..=other.source.len());
            format!("{}{}", &text[..cut_a], &other.source[cut_b..])
        }
    }
}

/// Wraps the first `= <expr>;` right-hand side in `depth` parentheses.
fn nest_first_rhs(text: &str, depth: usize) -> String {
    let Some(eq) = text.find("= ") else {
        return text.to_string();
    };
    let rhs_start = eq + 2;
    let Some(semi_rel) = text[rhs_start..].find(';') else {
        return text.to_string();
    };
    let semi = rhs_start + semi_rel;
    format!(
        "{}{}{}{}{}",
        &text[..rhs_start],
        "(".repeat(depth),
        &text[rhs_start..semi],
        ")".repeat(depth),
        &text[semi..]
    )
}

/// Derives the per-iteration RNG from the run seed and iteration index.
pub(crate) fn iteration_rng(seed: u64, iteration: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
#[path = "../../../tests/support/parse_digests.rs"]
mod parse_digests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_input(&mut iteration_rng(7, 3), 3);
        let b = generate_input(&mut iteration_rng(7, 3), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn unmangled_inputs_parse() {
        let mut parsed = 0;
        for i in 0..64u64 {
            let input = generate_input(&mut iteration_rng(11, i), i);
            if !input.mangled {
                assert!(
                    svparse::parse(&input.source).is_ok(),
                    "family source must parse:\n{}",
                    input.source
                );
                parsed += 1;
            }
            assert!(svparse::parse(&input.base_source).is_ok());
        }
        assert!(parsed > 8, "grammar mode should dominate: {parsed}");
    }

    #[test]
    fn mangler_produces_different_text() {
        let inst = instantiate(Family::Counter, FamilyParams::default(), 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut changed = 0;
        for _ in 0..16 {
            if mangle(&inst.source, &mut rng) != inst.source {
                changed += 1;
            }
        }
        assert!(changed >= 12, "mangler rarely changes text: {changed}");
    }

    /// The parse of every input of `svfuzz run --seed 1 --iters 512`, the
    /// nesting-bound ones among them, pinned with the workspace's other parses
    /// (`tests/parse_pin.rs` says how to re-record them).
    #[test]
    fn parse_pin_of_generated_inputs() {
        let (mut group, mut too_deep) = (parse_digests::Group::default(), 0);
        for i in 0..512u64 {
            let input = generate_input(&mut iteration_rng(1, i), i);
            let parsed = svparse::parse_module(&input.source);
            too_deep += usize::from(parsed.is_err_and(|e| e.message().contains("nesting deeper")));
            group.parse(format!("fuzz/seed1/{i:03}"), &input.source);
        }
        assert!(too_deep > 0, "no input nests past the parser's bound");
        group.check("fuzz");
    }

    #[test]
    fn nesting_op_exceeds_parser_bound_sometimes() {
        let src = "module m(input a, output y);\nassign y = a;\nendmodule\n";
        let nested = nest_first_rhs(src, 96);
        let err = svparse::parse(&nested).expect_err("96 levels exceed the bound");
        assert!(err.to_string().contains("nesting deeper"));
    }

    // The mangler must never make `SliceRandom::shuffle` style order-dependent
    // choices that break determinism: same rng stream, same output.
    #[test]
    fn mangle_is_deterministic() {
        let inst = instantiate(Family::Fifo, FamilyParams::default(), 1);
        let a = mangle(&inst.source, &mut StdRng::seed_from_u64(9));
        let b = mangle(&inst.source, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn splice_tokens_and_alphabet_are_ascii() {
        assert!(SPLICE_TOKENS.iter().all(|t| t.is_ascii()));
        assert!(ALPHABET.is_ascii());
    }
}
