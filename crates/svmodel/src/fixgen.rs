//! Fix-candidate generation.
//!
//! Given a suspected buggy line, the model proposes concrete replacement lines by
//! exploring the inverse of the bug-injection space: operator swaps, negation toggles,
//! constant perturbations and identifier substitutions.  A second policy then ranks
//! the candidates.

use crate::lm::FrozenLm;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ops::Range;

/// Number of features describing a fix candidate.
pub(crate) const FIX_FEATURES: usize = 10;

/// The kind of edit a fix candidate applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum FixEdit {
    /// Add or remove a logical negation.
    ToggleNegation,
    /// Swap a binary operator for a confusable one.
    OpSwap,
    /// Adjust a numeric constant.
    ValueTweak,
    /// Replace one identifier with another declared signal.
    VarSwap,
}

/// One candidate replacement line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FixCandidate {
    /// Full replacement line text (trimmed, same shape as the original line).
    pub text: String,
    /// The edit applied.
    pub edit: FixEdit,
    /// Feature vector of length [`FIX_FEATURES`].
    pub(crate) features: Vec<f64>,
}

const OP_SWAPS: &[(&str, &str)] = &[
    (" && ", " || "),
    (" || ", " && "),
    (" & ", " | "),
    (" | ", " & "),
    (" & ", " ^ "),
    (" ^ ", " & "),
    (" == ", " != "),
    (" != ", " == "),
    (" + ", " - "),
    (" - ", " + "),
    (" < ", " > "),
    (" > ", " < "),
    (" << ", " >> "),
    (" >> ", " << "),
];

/// Generates candidate fixes for a line.
///
/// `declared_signals` is the pool used for identifier substitutions (typically every
/// declared name of the module); `assertion_signals` steers the feature extraction.
pub(crate) fn fix_candidates(
    line: &str,
    declared_signals: &[String],
    assertion_signals: &[String],
    lm: &crate::lm::NgramLm,
) -> Vec<FixCandidate> {
    let original = line.trim();
    let identifiers = identifiers_in(original);
    let mut out: Vec<(String, FixEdit)> = Vec::new();

    // 1. Negation toggles on identifiers (condition flips are the most common bug).
    for &ident in &identifiers {
        let negated = format!("!{ident}");
        if original.contains(&negated) {
            out.push((
                original.replacen(&negated, ident, 1),
                FixEdit::ToggleNegation,
            ));
        } else {
            // Only toggle inside a conditional context to avoid nonsense like
            // `assign !y = a`.
            if let Some(cond_start) = original.find('(') {
                let (head, tail) = original.split_at(cond_start);
                if tail.contains(ident) && (head.contains("if") || head.contains("case")) {
                    out.push((
                        format!("{head}{}", tail.replacen(ident, &negated, 1)),
                        FixEdit::ToggleNegation,
                    ));
                }
            }
        }
    }

    // 2. Operator swaps.
    for (from, to) in OP_SWAPS {
        if original.contains(from) {
            out.push((original.replacen(from, to, 1), FixEdit::OpSwap));
            // If the operator occurs twice, also swap the second occurrence.
            if original.matches(from).count() > 1 {
                let first = original.find(from).expect("operator present");
                let rest_swapped = format!(
                    "{}{}",
                    &original[..first + from.len()],
                    original[first + from.len()..].replacen(from, to, 1)
                );
                out.push((rest_swapped, FixEdit::OpSwap));
            }
        }
    }

    // 3. Constant perturbations.
    for token in crate::lm::tokens(original) {
        if let Some((width, value)) = parse_sized_literal(token) {
            let max = if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let mut replacements: Vec<u64> = vec![
                value.wrapping_add(1) & max,
                value.wrapping_sub(1) & max,
                0,
                max,
            ];
            for bit in 0..width.min(16) {
                replacements.push((value ^ (1 << bit)) & max);
            }
            for new_value in replacements {
                if new_value == value {
                    continue;
                }
                let new_token = rewrite_literal(token, new_value);
                out.push((original.replacen(token, &new_token, 1), FixEdit::ValueTweak));
            }
        } else if let Ok(value) = token.parse::<u64>() {
            for new_value in [value.wrapping_add(1), value.saturating_sub(1), 0, 1] {
                if new_value != value {
                    out.push((
                        original.replacen(token, &new_value.to_string(), 1),
                        FixEdit::ValueTweak,
                    ));
                }
            }
        }
    }

    // 4. Identifier substitutions.
    for &ident in &identifiers {
        if !declared_signals.iter().any(|declared| declared == ident) {
            continue;
        }
        let at = find_identifier(original, ident);
        for replacement in declared_signals.iter().filter(|r| *r != ident) {
            out.push((splice(original, at.clone(), replacement), FixEdit::VarSwap));
        }
    }

    // The first of each text that is not the original line, found by borrowing
    // the texts, which the candidates then take over.
    let first: Vec<bool> = {
        let mut seen = BTreeSet::from([original]);
        out.iter().map(|(text, _)| seen.insert(text)).collect()
    };
    let context = FixContext::new(original, assertion_signals, lm.frozen());
    out.into_iter()
        .zip(first)
        .filter_map(|(candidate, first)| first.then_some(candidate))
        .map(|(text, edit)| FixCandidate {
            features: context.features(&text, edit),
            text,
            edit,
        })
        .collect()
}

/// What every fix candidate of one line is compared against: the original
/// line, its surprisal, and how often it mentions each distinct assertion
/// signal.
struct FixContext<'a> {
    original: &'a str,
    lm: &'a FrozenLm,
    original_surprisal: f64,
    signal_counts: Vec<(&'a str, usize)>,
}

impl<'a> FixContext<'a> {
    fn new(original: &'a str, assertion_signals: &'a [String], lm: &'a FrozenLm) -> Self {
        let mut signal_counts: Vec<(&str, usize)> = Vec::with_capacity(assertion_signals.len());
        for signal in assertion_signals {
            if !signal_counts.iter().any(|(seen, _)| seen == signal) {
                signal_counts.push((signal, occurrences(original, signal)));
            }
        }
        Self {
            original,
            lm,
            original_surprisal: lm.surprisal(original),
            signal_counts,
        }
    }

    /// Feature vector of fix candidate `text`.
    fn features(&self, text: &str, edit: FixEdit) -> Vec<f64> {
        let introduces_assertion_signal = (self.signal_counts.iter())
            .any(|&(signal, count_old)| occurrences(text, signal) > count_old);
        let surprisal_delta = (self.original_surprisal - self.lm.surprisal(text)).clamp(-3.0, 3.0);
        let original = self.original;
        fix_feature_vector(
            text,
            original,
            edit,
            introduces_assertion_signal,
            surprisal_delta,
        )
    }
}

/// `text.matches(pattern).count()`, the non-overlapping occurrences found left
/// to right, without building a substring searcher for each call.  Bytes
/// suffice: a UTF-8 pattern can only match at a character boundary.
fn occurrences(text: &str, pattern: &str) -> usize {
    if pattern.is_empty() {
        // The empty pattern matches at every character boundary.
        return text.chars().count() + 1;
    }
    let (text, pattern) = (text.as_bytes(), pattern.as_bytes());
    let first = pattern[0];
    let (mut count, mut at) = (0, 0);
    while at + pattern.len() <= text.len() {
        if text[at] == first && text[at..].starts_with(pattern) {
            count += 1;
            at += pattern.len();
        } else {
            at += 1;
        }
    }
    count
}

/// The feature vector of fix candidate `text` of line `original`, given the
/// two features that need the case: whether the fix mentions some assertion
/// signal more often than the line, and the drop in surprisal (clamped to ±3).
fn fix_feature_vector(
    text: &str,
    original: &str,
    edit: FixEdit,
    introduces_assertion_signal: bool,
    surprisal_delta: f64,
) -> Vec<f64> {
    vec![
        1.0,
        f64::from(edit == FixEdit::ToggleNegation),
        f64::from(edit == FixEdit::OpSwap),
        f64::from(edit == FixEdit::ValueTweak),
        f64::from(edit == FixEdit::VarSwap),
        f64::from(introduces_assertion_signal),
        surprisal_delta / 3.0,
        f64::from(text.len().abs_diff(original.len()) <= 1),
        f64::from(text.contains('!') != original.contains('!')),
        f64::from(original.starts_with("if (") || original.starts_with("else if (")),
    ]
}

/// The identifier tokens of a line, consecutive repeats dropped.
fn identifiers_in(line: &str) -> Vec<&str> {
    let mut out: Vec<&str> = crate::lm::tokens(line)
        .filter(|t| {
            t.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && ![
                    "if", "else", "case", "assign", "begin", "end", "default", "posedge",
                    "negedge", "or", "always",
                ]
                .contains(t)
        })
        .collect();
    out.dedup();
    out
}

/// The byte range of the first whole-token occurrence of `ident` in `line`,
/// so `in` does not match inside `valid_in`; a token is a run of
/// alphanumerics and `_`.
fn find_identifier(line: &str, ident: &str) -> Option<Range<usize>> {
    let is_token_char = |c: char| c.is_alphanumeric() || c == '_';
    let mut rest = line;
    while let Some(start) = rest.find(is_token_char) {
        let token = &rest[start..];
        let len = token
            .find(|c: char| !is_token_char(c))
            .unwrap_or(token.len());
        if &token[..len] == ident {
            let at = line.len() - token.len();
            return Some(at..at + len);
        }
        rest = &token[len..];
    }
    None
}

/// `line` with `range` (if any) replaced by `replacement` and trailing
/// whitespace trimmed, in one allocation.
fn splice(line: &str, range: Option<Range<usize>>, replacement: &str) -> String {
    let Some(range) = range else {
        return line.trim_end().to_string();
    };
    let mut result = String::with_capacity(line.len() - range.len() + replacement.len());
    result.push_str(&line[..range.start]);
    result.push_str(replacement);
    result.push_str(&line[range.end..]);
    result.truncate(result.trim_end().len());
    result
}

fn parse_sized_literal(token: &str) -> Option<(u32, u64)> {
    let idx = token.find('\'')?;
    let width: u32 = token[..idx].parse().ok()?;
    let rest = &token[idx + 1..];
    let (radix, digits) = match rest.chars().next()? {
        'b' | 'B' => (2, &rest[1..]),
        'h' | 'H' => (16, &rest[1..]),
        'o' | 'O' => (8, &rest[1..]),
        'd' | 'D' => (10, &rest[1..]),
        _ => return None,
    };
    let value = u64::from_str_radix(digits, radix).ok()?;
    Some((width, value))
}

fn rewrite_literal(token: &str, new_value: u64) -> String {
    let idx = token.find('\'').expect("sized literal has a quote");
    let width = &token[..idx];
    let base = token.as_bytes()[idx + 1] as char;
    match base.to_ascii_lowercase() {
        'b' => format!("{width}'b{new_value:b}"),
        'h' => format!("{width}'h{new_value:x}"),
        'o' => format!("{width}'o{new_value:o}"),
        _ => format!("{width}'d{new_value}"),
    }
}

/// The two name lists [`fix_candidates`] needs from a case: every declared name of
/// `module`, and the signals each failing assertion observes (in log order,
/// repeats kept).  Both are empty when the source does not parse.
pub(crate) fn fix_context(
    module: Option<&svparse::Module>,
    failing: &[String],
) -> (Vec<String>, Vec<String>) {
    let Some(m) = module else {
        return (Vec::new(), Vec::new());
    };
    let signals = failing
        .iter()
        .flat_map(|name| svmutate::signals_of_assertion(m, name))
        .collect();
    (m.declared_names(), signals)
}

/// The candidate generator before its dedup stopped cloning texts,
/// `identifiers_in` stopped copying names, the features stopped recounting the
/// line's signals and the LM lookups went through the frozen index, verbatim
/// but for its `use` lines and the LM's keyed lookup; `plan::tests` holds the
/// two equal.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{fix_feature_vector, parse_sized_literal, rewrite_literal};
    use super::{FixCandidate, FixEdit, OP_SWAPS};
    use std::collections::BTreeSet;

    /// [`super::fix_candidates`] as it was, cloning each text into its dedup set.
    pub fn fix_candidates(
        line: &str,
        declared_signals: &[String],
        assertion_signals: &[String],
        lm: &crate::lm::NgramLm,
    ) -> Vec<FixCandidate> {
        let original = line.trim();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        seen.insert(original.to_string());
        let mut out: Vec<(String, FixEdit)> = Vec::new();

        // 1. Negation toggles on identifiers (condition flips are the most common bug).
        for ident in identifiers_in(original) {
            let negated = format!("!{ident}");
            if original.contains(&negated) {
                out.push((
                    original.replacen(&negated, &ident, 1),
                    FixEdit::ToggleNegation,
                ));
            } else {
                // Only toggle inside a conditional context to avoid nonsense like
                // `assign !y = a`.
                if let Some(cond_start) = original.find('(') {
                    let (head, tail) = original.split_at(cond_start);
                    if tail.contains(&ident) && (head.contains("if") || head.contains("case")) {
                        out.push((
                            format!("{head}{}", tail.replacen(&ident, &negated, 1)),
                            FixEdit::ToggleNegation,
                        ));
                    }
                }
            }
        }

        // 2. Operator swaps.
        for (from, to) in OP_SWAPS {
            if original.contains(from) {
                out.push((original.replacen(from, to, 1), FixEdit::OpSwap));
                // If the operator occurs twice, also swap the second occurrence.
                if original.matches(from).count() > 1 {
                    let first = original.find(from).expect("operator present");
                    let rest_swapped = format!(
                        "{}{}",
                        &original[..first + from.len()],
                        original[first + from.len()..].replacen(from, to, 1)
                    );
                    out.push((rest_swapped, FixEdit::OpSwap));
                }
            }
        }

        // 3. Constant perturbations.
        for token in crate::lm::tokens(original) {
            if let Some((width, value)) = parse_sized_literal(token) {
                let max = if width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                let mut replacements: Vec<u64> = vec![
                    value.wrapping_add(1) & max,
                    value.wrapping_sub(1) & max,
                    0,
                    max,
                ];
                for bit in 0..width.min(16) {
                    replacements.push((value ^ (1 << bit)) & max);
                }
                for new_value in replacements {
                    if new_value == value {
                        continue;
                    }
                    let new_token = rewrite_literal(token, new_value);
                    out.push((original.replacen(token, &new_token, 1), FixEdit::ValueTweak));
                }
            } else if let Ok(value) = token.parse::<u64>() {
                for new_value in [value.wrapping_add(1), value.saturating_sub(1), 0, 1] {
                    if new_value != value {
                        out.push((
                            original.replacen(token, &new_value.to_string(), 1),
                            FixEdit::ValueTweak,
                        ));
                    }
                }
            }
        }

        // 4. Identifier substitutions.
        for ident in identifiers_in(original) {
            for replacement in declared_signals {
                if replacement == &ident || !declared_signals.contains(&ident) {
                    continue;
                }
                out.push((
                    replace_identifier_once(original, &ident, replacement),
                    FixEdit::VarSwap,
                ));
            }
        }

        let original_surprisal = lm.surprisal_keyed(original);
        out.into_iter()
            .filter(|(text, _)| text != original && seen.insert(text.clone()))
            .map(|(text, edit)| {
                let features = fix_features(
                    &text,
                    original,
                    edit,
                    assertion_signals,
                    lm,
                    original_surprisal,
                );
                FixCandidate {
                    text,
                    edit,
                    features,
                }
            })
            .collect()
    }

    fn fix_features(
        text: &str,
        original: &str,
        edit: FixEdit,
        assertion_signals: &[String],
        lm: &crate::lm::NgramLm,
        original_surprisal: f64,
    ) -> Vec<f64> {
        let introduces_assertion_signal = assertion_signals.iter().any(|s| {
            let count_new = text.matches(s.as_str()).count();
            let count_old = original.matches(s.as_str()).count();
            count_new > count_old
        });
        let surprisal_delta = (original_surprisal - lm.surprisal_keyed(text)).clamp(-3.0, 3.0);
        fix_feature_vector(
            text,
            original,
            edit,
            introduces_assertion_signal,
            surprisal_delta,
        )
    }

    pub fn replace_identifier_once(line: &str, ident: &str, replacement: &str) -> String {
        // Replace only whole-token occurrences so `in` does not match inside `valid_in`.
        let mut result = String::new();
        let mut replaced = false;
        let mut token = String::new();
        for c in line.chars().chain(std::iter::once(' ')) {
            if c.is_alphanumeric() || c == '_' {
                token.push(c);
            } else {
                if !token.is_empty() {
                    if !replaced && token == ident {
                        result.push_str(replacement);
                        replaced = true;
                    } else {
                        result.push_str(&token);
                    }
                    token.clear();
                }
                result.push(c);
            }
        }
        result.trim_end().to_string()
    }

    fn identifiers_in(line: &str) -> Vec<String> {
        let mut out: Vec<String> = crate::lm::tokens(line)
            .filter(|t| {
                t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && ![
                        "if", "else", "case", "assign", "begin", "end", "default", "posedge",
                        "negedge", "or", "always",
                    ]
                    .contains(t)
            })
            .map(str::to_string)
            .collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::NgramLm;

    fn candidates(line: &str, declared: &[&str]) -> Vec<FixCandidate> {
        let declared: Vec<String> = declared.iter().map(|s| s.to_string()).collect();
        fix_candidates(line, &declared, &["valid_out".into()], &NgramLm::new())
    }

    #[test]
    fn negation_toggle_inverts_the_paper_bug() {
        let fixes = candidates(
            "else if (!end_cnt) valid_out <= 1;",
            &["end_cnt", "valid_out", "cnt"],
        );
        assert!(
            fixes
                .iter()
                .any(|f| f.text == "else if (end_cnt) valid_out <= 1;"),
            "negation-toggle fix missing: {:?}",
            fixes.iter().map(|f| &f.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn op_swap_covers_and_or() {
        let fixes = candidates("assign y = a & b;", &["a", "b", "y"]);
        assert!(fixes.iter().any(|f| f.text == "assign y = a | b;"));
        assert!(fixes.iter().any(|f| f.text == "assign y = a ^ b;"));
    }

    #[test]
    fn value_tweaks_cover_off_by_one_and_bitflips() {
        let fixes = candidates("if (cnt == 2'd3) done <= 1;", &["cnt", "done"]);
        assert!(fixes.iter().any(|f| f.text.contains("2'd2")));
        assert!(fixes.iter().any(|f| f.text.contains("2'd1")));
        assert!(fixes.iter().any(|f| f.edit == FixEdit::ValueTweak));
    }

    #[test]
    fn var_swap_is_whole_token() {
        let fixes = candidates("assign out = in;", &["in", "out", "valid_in"]);
        assert!(fixes.iter().any(|f| f.text == "assign out = valid_in;"));
        // `in` inside `valid_in` must not be replaced when swapping other tokens.
        assert!(!fixes.iter().any(|f| f.text.contains("valid_valid")));
    }

    #[test]
    fn candidates_are_distinct_and_not_the_original() {
        let fixes = candidates(
            "else if (end_cnt && valid_in) valid_out <= 1;",
            &["end_cnt", "valid_in", "valid_out"],
        );
        let mut texts: Vec<&String> = fixes.iter().map(|f| &f.text).collect();
        let before = texts.len();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), before);
        assert!(!fixes
            .iter()
            .any(|f| f.text == "else if (end_cnt && valid_in) valid_out <= 1;"));
        for f in &fixes {
            assert_eq!(f.features.len(), FIX_FEATURES);
        }
    }

    #[test]
    fn occurrences_count_like_str_matches() {
        let texts = [
            "",
            "a",
            "aaaa",
            "cnt <= cnt + 1;",
            "é_é é",
            "valid_in && !valid",
            "ababab",
        ];
        let patterns = [
            "",
            "a",
            "aa",
            "cnt",
            "valid",
            "é",
            "aba",
            "b",
            "zz",
            "cnt <= cnt + 1;;",
        ];
        for text in texts {
            for pattern in patterns {
                assert_eq!(
                    occurrences(text, pattern),
                    text.matches(pattern).count(),
                    "{text:?} {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn identifier_splices_match_the_old_replacement() {
        let lines = [
            "assign out = in;",
            "assign out = valid_in & in;",
            "if (in_a && !in) in <= in + 1;",
            "x<=x_1+x;",
            "a  ",
            "",
            "   ",
            "é = in + é; // in",
            "q[in] <= {in, 2'd1};",
            "in",
            "_in_ in _in_",
            "cnt'd in",
        ];
        let idents = ["in", "x", "é", "_in_", "q", "a", "", "cnt'd", "nope"];
        for line in lines {
            for ident in idents {
                for replacement in ["valid_in", "y", " spaced "] {
                    assert_eq!(
                        splice(line, find_identifier(line, ident), replacement),
                        oracle::replace_identifier_once(line, ident, replacement),
                        "{line:?} {ident:?} {replacement:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sized_literal_parsing() {
        assert_eq!(parse_sized_literal("4'b1010"), Some((4, 10)));
        assert_eq!(parse_sized_literal("8'hff"), Some((8, 255)));
        assert_eq!(parse_sized_literal("2'd3"), Some((2, 3)));
        assert_eq!(parse_sized_literal("abc"), None);
        assert_eq!(rewrite_literal("4'b1010", 5), "4'b101");
    }
}
