//! The stage profile: the switch that has an evaluation time its stages,
//! and the collapsed-stack form the timings render to.
//!
//! * **[`TelemetryHandle`]** — off by default; an evaluation handed a handle
//!   that is on records its `evaluate;{setup,sessions,report}` laps as a
//!   [`CollapsedProfile`] (`assertsolver::EvaluationRun::profile`).  Off, the
//!   stage clock records nothing.
//! * **[`CollapsedProfile`]** — a flamegraph-compatible collapsed-stack
//!   profile (`stack;frames value` lines); `svobs prof` renders one for the
//!   evaluation pipeline, and [`crate::TraceForest::collapsed`] folds span
//!   trees into the same form.
//!
//! The memos count hits and misses, never time ([`crate::ServiceMetrics`],
//! [`crate::VerifyMetrics`]); per-session walls are the trace's `session`
//! spans.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A placeholder with nothing in it: the benchmark harness still builds a
/// [`TelemetryHandle`] from one.  It goes with the next change to the
/// harness.
#[derive(Debug, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// The placeholder.
    pub fn new() -> Self {
        Self
    }
}

/// Whether an evaluation records its stage profile: `off()` by default.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle(bool);

impl TelemetryHandle {
    /// The disabled handle: the stage clock records nothing.
    pub fn off() -> Self {
        Self(false)
    }

    /// A handle that records the stage profile; the registry is ignored.
    pub fn new(_registry: Arc<MetricsRegistry>) -> Self {
        Self(true)
    }

    /// Whether the stage profile is recorded.
    pub fn is_on(&self) -> bool {
        self.0
    }
}

/// A flamegraph-compatible collapsed-stack profile: `frame;frame value`
/// lines, one per stack, values in nanoseconds, sorted by stack for
/// byte-stable rendering.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollapsedProfile {
    frames: BTreeMap<String, u64>,
}

impl CollapsedProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` to the `stack` frame (frames merge by stack name).
    pub fn record(&mut self, stack: &str, nanos: u64) {
        let slot = self.frames.entry(stack.to_string()).or_insert(0);
        *slot = slot.saturating_add(nanos);
    }

    /// The frames in render order.
    pub fn frames(&self) -> impl Iterator<Item = (&str, u64)> {
        self.frames
            .iter()
            .map(|(stack, value)| (stack.as_str(), *value))
    }

    /// Sum of every frame value — the attributed portion of the profile.
    pub fn total(&self) -> u64 {
        self.frames
            .values()
            .fold(0u64, |acc, v| acc.saturating_add(*v))
    }

    /// Renders the collapsed-stack text (`stack value` per line; the format
    /// `flamegraph.pl` and `inferno` consume).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (stack, value) in &self.frames {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses collapsed-stack text back, rejecting malformed lines — the
    /// validation `svobs prof` and CI run over emitted profiles.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut profile = Self::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (stack, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no value field: {line:?}", number + 1))?;
            if stack.is_empty() || stack.split(';').any(|frame| frame.is_empty()) {
                return Err(format!(
                    "line {}: empty frame in stack {stack:?}",
                    number + 1
                ));
            }
            let value: u64 = value
                .parse()
                .map_err(|_| format!("line {}: bad value {value:?}", number + 1))?;
            profile.record(stack, value);
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_handle_follows_the_tracer_recipe() {
        assert!(!TelemetryHandle::off().is_on());
        assert!(!TelemetryHandle::default().is_on());
        assert!(TelemetryHandle::new(Arc::new(MetricsRegistry::new())).is_on());
    }

    #[test]
    fn collapsed_profile_renders_and_parses() {
        let mut profile = CollapsedProfile::new();
        profile.record("evaluate;sessions;solve", 500);
        profile.record("evaluate;setup", 100);
        profile.record("evaluate;sessions;solve", 250);
        let text = profile.render();
        assert_eq!(text, "evaluate;sessions;solve 750\nevaluate;setup 100\n");
        let parsed = CollapsedProfile::parse(&text).expect("parse back");
        assert_eq!(parsed, profile);
        assert_eq!(parsed.total(), 850);
        assert!(CollapsedProfile::parse("no-value-line\n").is_err());
        assert!(CollapsedProfile::parse("a;;b 5\n").is_err());
        assert!(CollapsedProfile::parse("a;b not_a_number\n").is_err());
    }
}
