//! Case inputs and per-line feature extraction.
//!
//! The repair policy is a linear softmax over hand-crafted program features.  The
//! features deliberately mirror what the paper's model must learn implicitly from its
//! prompt: which signals the failing assertion observes, how far a line is from that
//! observation point in the fan-in cone, whether the line is a conditional, and how
//! "surprising" the line looks to the pretrained language model.

use crate::lm::NgramLm;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use svdata::SvaBugEntry;
use svparse::{DependencyGraph, Module};
use svsim::failing_assertions_in_log;

/// Number of features describing a candidate line.
pub const LINE_FEATURES: usize = 13;

/// What the model is allowed to see at inference time: Spec, buggy code and logs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseInput {
    /// Design specification text.
    pub spec: String,
    /// Buggy SystemVerilog source (canonical form).
    pub buggy_source: String,
    /// Simulation log with the assertion failures.
    pub logs: String,
}

impl CaseInput {
    /// Builds the model input from a dataset entry, dropping everything the model must
    /// not see (golden source, golden fix, bug profile).
    pub fn from_entry(entry: &SvaBugEntry) -> Self {
        Self {
            spec: entry.spec.clone(),
            buggy_source: entry.buggy_source.clone(),
            logs: entry.logs.clone(),
        }
    }

    /// Names of the failing assertions parsed out of the logs.
    pub fn failing_assertions(&self) -> Vec<String> {
        failing_assertions_in_log(&self.logs)
    }
}

/// One candidate buggy line with its feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineCandidate {
    /// 1-based line number in the buggy source.
    pub line_number: u32,
    /// Trimmed line text.
    pub text: String,
    /// Feature vector of length [`LINE_FEATURES`].
    pub features: Vec<f64>,
}

/// Returns `true` for lines that can plausibly carry an injected bug (assignments,
/// conditional headers, case subjects/labels).
pub fn is_candidate_line(trimmed: &str) -> bool {
    if trimmed.is_empty()
        || trimmed.starts_with("module")
        || trimmed.starts_with("input")
        || trimmed.starts_with("output")
        || trimmed.starts_with("inout")
        || trimmed.starts_with("wire")
        || trimmed.starts_with("reg ")
        || trimmed.starts_with("reg[")
        || trimmed.starts_with("integer")
        || trimmed.starts_with("parameter")
        || trimmed.starts_with("localparam")
        || trimmed.starts_with("property")
        || trimmed.starts_with("endproperty")
        || trimmed.starts_with("endmodule")
        || trimmed.starts_with("endcase")
        || trimmed.starts_with(");")
        || trimmed.contains("assert property")
        || trimmed == "begin"
        || trimmed == "end"
        || trimmed == "else begin"
        || trimmed.starts_with("always") && !trimmed.contains('=')
        || trimmed.starts_with("initial")
    {
        return false;
    }
    trimmed.contains("<=")
        || trimmed.contains("= ")
        || trimmed.starts_with("if (")
        || trimmed.starts_with("else if (")
        || trimmed.starts_with("case (")
}

/// Extracts every candidate line of a case together with its features.
///
/// The `lm` parameter supplies the surprisal feature; pass an untrained model to make
/// that feature neutral (this is exactly the difference between the base model and the
/// pretrained model).
pub fn line_candidates(case: &CaseInput, lm: &NgramLm) -> Vec<LineCandidate> {
    let module = svparse::parse_module(&case.buggy_source).ok();
    let (_, signals) = crate::fixgen::fix_context(module.as_ref(), &case.failing_assertions());
    line_candidates_in(&case.buggy_source, module.as_ref(), &signals, lm)
}

/// [`line_candidates`] over an already parsed `module` (`None` when `source` does
/// not parse) and the signals the case's failing assertions observe.
pub(crate) fn line_candidates_in(
    source: &str,
    module: Option<&Module>,
    failing_signals: &[String],
    lm: &NgramLm,
) -> Vec<LineCandidate> {
    // The observed signals: the failing assertions', else every assertion's
    // (a log naming none), and none when the source does not parse.
    let every_assertions: Vec<String>;
    let observed = match module {
        None => &[],
        Some(_) if !failing_signals.is_empty() => failing_signals,
        Some(m) => {
            every_assertions = (m.assertions())
                .flat_map(|a| svmutate::signals_of_assertion(m, &a.display_name()))
                .collect();
            &every_assertions[..]
        }
    };
    let graph = module.map(DependencyGraph::build);
    let cone = Cone::new(graph.as_ref(), observed);
    let lm = lm.frozen();

    let total_lines = source.lines().count().max(1);
    let mut candidates = Vec::new();
    let mut idents: Vec<&str> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let trimmed = raw.trim();
        if !is_candidate_line(trimmed) {
            continue;
        }
        let line_number = (idx + 1) as u32;
        let mut token_count = 0usize;
        idents.clear();
        for token in crate::lm::tokens(trimmed) {
            token_count += 1;
            if token
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                idents.push(token);
            }
        }
        idents.sort_unstable();
        idents.dedup();
        let distances = idents.iter().filter_map(|ident| cone.distance(ident));
        let (assertion_mentions, cone_mentions) = distances
            .fold((0usize, 0usize), |(observed, cone), d| {
                (observed + usize::from(d == 0), cone + 1)
            });

        // Cone proximity of the signal this line assigns (if any).
        let proximity = assigned_name(trimmed)
            .and_then(|signal| cone.distance(signal))
            .map_or(0.0, |d| 1.0 / (1.0 + d as f64));

        let is_conditional = trimmed.starts_with("if (")
            || trimmed.starts_with("else if (")
            || trimmed.starts_with("case (");
        let features = vec![
            1.0,
            f64::from(assertion_mentions > 0),
            proximity,
            f64::from(is_conditional),
            f64::from(trimmed.contains("<=")),
            (lm.surprisal(trimmed) / 5.0).min(2.0),
            f64::from(trimmed.contains('!')),
            f64::from(trimmed.contains("'d") || trimmed.contains("'b") || trimmed.contains("'h")),
            f64::from(trimmed.contains("rst")),
            (assertion_mentions as f64 / 3.0).min(1.0),
            line_number as f64 / total_lines as f64,
            (token_count as f64 / 20.0).min(1.5),
            f64::from(cone_mentions > 0),
        ];
        debug_assert_eq!(features.len(), LINE_FEATURES);
        candidates.push(LineCandidate {
            line_number,
            text: trimmed.to_string(),
            features,
        });
    }
    candidates
}

/// The fan-in cone of the observed signals over a driver graph, its names
/// interned: one breadth-first search from all observed signals at once gives
/// each signal's hop distance from the nearest of them (0 for an observed
/// signal), which is the least [`DependencyGraph::distance`] from any of them,
/// and the cone is every signal the search reaches.
struct Cone<'a> {
    ids: HashMap<&'a str, u32>,
    /// Hop distance by id; `u32::MAX` outside the cone.
    distances: Vec<u32>,
}

impl<'a> Cone<'a> {
    fn new(graph: Option<&'a DependencyGraph>, observed: &'a [String]) -> Self {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut intern = |name: &'a str| {
            let next = ids.len() as u32;
            *ids.entry(name).or_insert(next)
        };
        let sources: Vec<u32> = observed.iter().map(|s| intern(s)).collect();
        // The drivers of each signal as one adjacency array: the drivers of `s`
        // are `drivers[starts[s]..starts[s + 1]]`.
        let edges: Vec<(u32, u32)> = graph
            .into_iter()
            .flat_map(DependencyGraph::edges)
            .map(|(signal, driver)| (intern(signal), intern(driver)))
            .collect();
        let mut starts = vec![0u32; ids.len() + 1];
        for &(signal, _) in &edges {
            starts[signal as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut filled = starts.clone();
        let mut drivers = vec![0u32; edges.len()];
        for (signal, driver) in edges {
            drivers[filled[signal as usize] as usize] = driver;
            filled[signal as usize] += 1;
        }

        let mut distances = vec![u32::MAX; ids.len()];
        let mut queue = VecDeque::with_capacity(ids.len());
        for source in sources {
            distances[source as usize] = 0;
            queue.push_back(source);
        }
        while let Some(signal) = queue.pop_front() {
            let next = distances[signal as usize] + 1;
            let range = starts[signal as usize] as usize..starts[signal as usize + 1] as usize;
            for &driver in &drivers[range] {
                if distances[driver as usize] == u32::MAX {
                    distances[driver as usize] = next;
                    queue.push_back(driver);
                }
            }
        }
        Self { ids, distances }
    }

    /// Hop distance of `signal` from the nearest observed signal, `None` outside
    /// the cone.
    fn distance(&self, signal: &str) -> Option<u32> {
        let id = *self.ids.get(signal)?;
        Some(self.distances[id as usize]).filter(|&d| d != u32::MAX)
    }
}

/// The signal assigned on a line, textually (`lhs <= rhs;` or `lhs = rhs;`).
pub fn assigned_signal(line: &str) -> Option<String> {
    assigned_name(line).map(str::to_string)
}

/// [`assigned_signal`], borrowed from `line`.
fn assigned_name(line: &str) -> Option<&str> {
    let lhs = if let Some(pos) = line.find("<=") {
        &line[..pos]
    } else if let Some(pos) = line.find('=') {
        // Skip comparisons: `==`, `!=`, `>=`, `<=` handled above.
        if line.as_bytes().get(pos + 1) == Some(&b'=') || pos == 0 {
            return None;
        }
        if pos >= 1 && matches!(line.as_bytes()[pos - 1], b'!' | b'<' | b'>') {
            return None;
        }
        &line[..pos]
    } else {
        return None;
    };
    let name = lhs
        .rsplit(|c: char| !(c.is_alphanumeric() || c == '_' || c == '[' || c == ']'))
        .find(|segment| !segment.trim().is_empty())
        .unwrap_or("")
        .trim()
        .trim_end_matches(|c: char| c == '[' || c == ']' || c.is_numeric());
    // Strip any index suffix like `flags[2]`.
    let base = name.split('[').next().unwrap_or("");
    (!base.is_empty()).then_some(base)
}

/// Line candidates before the frozen LM and the one-search cone, verbatim but
/// for their `use` lines, the LM's keyed lookup and taking the failing
/// assertions' signals instead of their names; `plan::tests` holds the two
/// equal.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{is_candidate_line, LineCandidate, LINE_FEATURES};
    use crate::lm::NgramLm;
    use std::collections::BTreeSet;
    use svparse::{DependencyGraph, Module};

    pub fn line_candidates_in(
        source: &str,
        module: Option<&Module>,
        failing_signals: &[String],
        lm: &NgramLm,
    ) -> Vec<LineCandidate> {
        let mut assertion_signals: BTreeSet<String> = BTreeSet::new();
        let mut cone: BTreeSet<String> = BTreeSet::new();
        let mut graph = None;
        if let Some(m) = module {
            for s in failing_signals {
                assertion_signals.insert(s.clone());
            }
            if assertion_signals.is_empty() {
                for a in m.assertions() {
                    for s in svmutate::signals_of_assertion(m, &a.display_name()) {
                        assertion_signals.insert(s);
                    }
                }
            }
            let g = DependencyGraph::build(m);
            for s in &assertion_signals {
                cone.insert(s.clone());
                cone.extend(g.cone_of_influence(s).into_iter().map(str::to_string));
            }
            graph = Some(g);
        }

        let total_lines = source.lines().count().max(1);
        let mut candidates = Vec::new();
        for (idx, raw) in source.lines().enumerate() {
            let trimmed = raw.trim();
            if !is_candidate_line(trimmed) {
                continue;
            }
            let line_number = (idx + 1) as u32;
            let tokens: Vec<&str> = crate::lm::tokens(trimmed).collect();
            let idents: BTreeSet<&str> = tokens
                .iter()
                .filter(|t| {
                    t.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                })
                .copied()
                .collect();
            let mentions =
                |set: &BTreeSet<String>| idents.iter().filter(|t| set.contains(**t)).count();
            let assertion_mentions = mentions(&assertion_signals);
            let cone_mentions = mentions(&cone);

            // Cone proximity of the signal this line assigns (if any).
            let assigned = assigned_signal(trimmed);
            let proximity = match (&graph, &assigned) {
                (Some(g), Some(sig)) => {
                    let mut best: Option<u32> = None;
                    for obs in &assertion_signals {
                        let d = if obs == sig {
                            Some(0)
                        } else {
                            g.distance(obs, sig)
                        };
                        if let Some(d) = d {
                            best = Some(best.map_or(d, |b| b.min(d)));
                        }
                    }
                    best.map_or(0.0, |d| 1.0 / (1.0 + d as f64))
                }
                _ => 0.0,
            };

            let is_conditional = trimmed.starts_with("if (")
                || trimmed.starts_with("else if (")
                || trimmed.starts_with("case (");
            let features = vec![
                1.0,
                f64::from(assertion_mentions > 0),
                proximity,
                f64::from(is_conditional),
                f64::from(trimmed.contains("<=")),
                (lm.surprisal_keyed(trimmed) / 5.0).min(2.0),
                f64::from(trimmed.contains('!')),
                f64::from(
                    trimmed.contains("'d") || trimmed.contains("'b") || trimmed.contains("'h"),
                ),
                f64::from(trimmed.contains("rst")),
                (assertion_mentions as f64 / 3.0).min(1.0),
                line_number as f64 / total_lines as f64,
                (tokens.len() as f64 / 20.0).min(1.5),
                f64::from(cone_mentions > 0),
            ];
            debug_assert_eq!(features.len(), LINE_FEATURES);
            candidates.push(LineCandidate {
                line_number,
                text: trimmed.to_string(),
                features,
            });
        }
        candidates
    }

    /// [`super::assigned_signal`] as it was, building two `String`s.
    pub fn assigned_signal(line: &str) -> Option<String> {
        let lhs = if let Some(pos) = line.find("<=") {
            &line[..pos]
        } else if let Some(pos) = line.find('=') {
            // Skip comparisons: `==`, `!=`, `>=`, `<=` handled above.
            if line.as_bytes().get(pos + 1) == Some(&b'=') || pos == 0 {
                return None;
            }
            if pos >= 1 && matches!(line.as_bytes()[pos - 1], b'!' | b'<' | b'>') {
                return None;
            }
            &line[..pos]
        } else {
            return None;
        };
        let name: String = lhs
            .rsplit(|c: char| !(c.is_alphanumeric() || c == '_' || c == '[' || c == ']'))
            .find(|segment| !segment.trim().is_empty())
            .unwrap_or("")
            .trim()
            .trim_end_matches(|c: char| c == '[' || c == ']' || c.is_numeric())
            .to_string();
        // Strip any index suffix like `flags[2]`.
        let base = name.split('[').next().unwrap_or("").to_string();
        if base.is_empty() {
            None
        } else {
            Some(base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svdata::{run_pipeline, PipelineConfig};

    fn sample_case() -> (CaseInput, u32) {
        let out = run_pipeline(&PipelineConfig::tiny(3));
        let entry = out
            .datasets
            .sva_bug
            .first()
            .expect("pipeline produced cases")
            .clone();
        (CaseInput::from_entry(&entry), entry.bug_line_number)
    }

    #[test]
    fn candidate_lines_include_the_bug_line() {
        let (case, bug_line) = sample_case();
        let lm = NgramLm::new();
        let candidates = line_candidates(&case, &lm);
        assert!(!candidates.is_empty());
        assert!(
            candidates.iter().any(|c| c.line_number == bug_line),
            "bug line {bug_line} missing from candidates: {:?}",
            candidates.iter().map(|c| c.line_number).collect::<Vec<_>>()
        );
        for c in &candidates {
            assert_eq!(c.features.len(), LINE_FEATURES);
            assert!(c.features.iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn structural_lines_are_not_candidates() {
        assert!(!is_candidate_line("module foo("));
        assert!(!is_candidate_line("endmodule"));
        assert!(!is_candidate_line("begin"));
        assert!(!is_candidate_line("property p;"));
        assert!(!is_candidate_line(
            "valid_out_check_assertion: assert property (p);"
        ));
        assert!(is_candidate_line("assign y = a & b;"));
        assert!(is_candidate_line("if (!rst_n) q <= 0;"));
        assert!(is_candidate_line("case (sel)"));
        assert!(is_candidate_line("2'd0: y = a;"));
    }

    #[test]
    fn assigned_signal_extraction() {
        assert_eq!(
            assigned_signal("if (!rst_n) cnt <= 2'd0;"),
            Some("cnt".into())
        );
        assert_eq!(assigned_signal("assign y = a & b;"), Some("y".into()));
        assert_eq!(assigned_signal("flags[2] <= 1;"), Some("flags".into()));
        assert_eq!(assigned_signal("a == b"), None);
        assert_eq!(assigned_signal("case (sel)"), None);
    }

    #[test]
    fn failing_assertions_parsed_from_logs() {
        let (case, _) = sample_case();
        assert!(!case.failing_assertions().is_empty());
    }
}
