//! Tool-style simulation logs.
//!
//! The AssertSolver model consumes three inputs: the design specification, the buggy
//! SystemVerilog code, and *logs* reporting assertion failures.  This module renders
//! the failure information in the terse style real simulators use (and the paper's
//! Fig. 1 shows), so dataset entries look like what a verification engineer would
//! paste into the prompt.

use crate::elaborate::Design;
use crate::simulator::Trace;
use crate::sva::AssertionFailure;

/// Renders a complete simulation log for a trace and its assertion failures.
///
/// The log always contains a header naming the module and trace length; each failure
/// becomes one `ERROR:` line; a trailing summary counts failures per assertion.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// let module = svparse::parse_module(
///     "module m(input clk, input a, output reg q);\n  always @(posedge clk) q <= a;\nendmodule",
/// ).map_err(|e| svsim::SimError::Elaboration(e.to_string()))?;
/// let stimulus: Vec<svsim::InputVector> =
///     vec![BTreeMap::from([("a".to_string(), 1u64)]); 3];
/// let outcome = svsim::simulate(&module, &stimulus)?;
/// assert!(outcome.log.starts_with("# simulation of module m"));
/// # Ok::<(), svsim::SimError>(())
/// ```
pub(crate) fn render_log(design: &Design, trace: &Trace, failures: &[AssertionFailure]) -> String {
    render(&design.module.name, trace.len(), failures)
}

/// The log of a run of `cycles` cycles of the named module.
pub(crate) fn render(module: &str, cycles: usize, failures: &[AssertionFailure]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# simulation of module {module} for {cycles} cycles\n"
    ));
    if failures.is_empty() {
        out.push_str("# all assertions passed\n");
        return out;
    }
    for failure in failures {
        out.push_str(&render_failure_line(module, failure));
        out.push('\n');
    }
    let mut by_assertion: Vec<(String, usize)> = Vec::new();
    for failure in failures {
        match by_assertion
            .iter_mut()
            .find(|(name, _)| name == &failure.assertion)
        {
            Some((_, count)) => *count += 1,
            None => by_assertion.push((failure.assertion.clone(), 1)),
        }
    }
    for (name, count) in &by_assertion {
        out.push_str(&format!(
            "# assertion {module}.{name} failed {count} time(s)\n"
        ));
    }
    out.push_str(&format!(
        "# {} assertion failure(s) detected\n",
        failures.len()
    ));
    out
}

/// Renders a single failure in the `ERROR:` style used by event-driven simulators.
pub(crate) fn render_failure_line(module_name: &str, failure: &AssertionFailure) -> String {
    let message = failure
        .message
        .as_deref()
        .map(|m| format!(" - \"{m}\""))
        .unwrap_or_default();
    format!(
        "ERROR: [cycle {}] failed assertion {}.{}{}",
        failure.fail_cycle, module_name, failure.assertion, message
    )
}

/// Extracts the names of failing assertions from a rendered log.
///
/// This is the inverse operation the repair model performs when it parses the `Logs`
/// section of its prompt.
pub fn failing_assertions_in_log(log: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in log.lines() {
        if let Some(rest) = line.strip_prefix("ERROR: ") {
            if let Some(idx) = rest.find("failed assertion ") {
                let tail = &rest[idx + "failed assertion ".len()..];
                let token = tail.split_whitespace().next().unwrap_or("");
                let name = token.split('.').next_back().unwrap_or(token);
                let name = name.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '_');
                if !name.is_empty() && !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::Design;
    use crate::simulator::{InputVector, Simulator};
    use std::collections::BTreeMap;
    use svparse::parse_module;

    const BUGGY: &str = r#"
module toggle(input clk, input rst_n, input en, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 0;
    else if (en) q <= q;
  end
  property toggles;
    @(posedge clk) disable iff (!rst_n) en |=> q != $past(q);
  endproperty
  toggle_check: assert property (toggles) else $error("q must toggle when en");
endmodule
"#;

    fn run_buggy() -> (Design, crate::simulator::Trace, Vec<AssertionFailure>) {
        let module = parse_module(BUGGY).unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stim: Vec<InputVector> = (0..8)
            .map(|i| {
                BTreeMap::from([
                    ("rst_n".to_string(), u64::from(i >= 1)),
                    ("en".to_string(), 1u64),
                ])
            })
            .collect();
        let trace = Simulator::run(&design, &stim).unwrap();
        let failures = crate::sva::check_assertions(&design, &trace);
        (design, trace, failures)
    }

    #[test]
    fn log_contains_error_lines_and_summary() {
        let (design, trace, failures) = run_buggy();
        assert!(!failures.is_empty());
        let log = render_log(&design, &trace, &failures);
        assert!(log.contains("ERROR: [cycle"));
        assert!(log.contains("failed assertion toggle.toggle_check"));
        assert!(log.contains("\"q must toggle when en\""));
        assert!(log.contains("assertion failure(s) detected"));
    }

    #[test]
    fn passing_log_says_all_passed() {
        let module = parse_module(
            "module m(input clk, input a, output reg q);\n  always @(posedge clk) q <= a;\nendmodule",
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        let trace = Simulator::run(&design, &vec![InputVector::new(); 3]).unwrap();
        let log = render_log(&design, &trace, &[]);
        assert!(log.contains("all assertions passed"));
    }

    #[test]
    fn failing_assertion_names_round_trip_through_log() {
        let (design, trace, failures) = run_buggy();
        let log = render_log(&design, &trace, &failures);
        let names = failing_assertions_in_log(&log);
        assert_eq!(names, vec!["toggle_check".to_string()]);
    }

    #[test]
    fn failure_line_without_message() {
        let failure = AssertionFailure {
            assertion: "p_check".into(),
            start_cycle: 1,
            fail_cycle: 2,
            message: None,
        };
        let line = render_failure_line("m", &failure);
        assert_eq!(line, "ERROR: [cycle 2] failed assertion m.p_check");
    }
}
