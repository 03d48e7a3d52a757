//! Unified telemetry plane: one registry of counters, gauges and log-2-bucketed
//! latency histograms shared by every subsystem in the serving stack.
//!
//! The bespoke metrics snapshots (`ServiceMetrics`, `VerifyMetrics`) each
//! grew their own ad-hoc counters and `render()` blocks; neither could answer
//! a latency *distribution* question (p50/p90/p99).  This module is the common
//! substrate underneath them:
//!
//! * **[`MetricsRegistry`]** — a process-wide registry of named metrics.
//!   Registration is idempotent: the same hierarchical name
//!   (`service.repair.solve`, `verify.verdict.latency`) always resolves to
//!   the same [`Metric`], so every subsystem can pre-register its handles at
//!   pool start and record with lock-free atomics on the hot path.
//! * **[`Metric`]** — counter, gauge, or histogram.  Histograms bucket values
//!   by `log2` (65 buckets cover the full `u64` range) and track the exact
//!   maximum, so [`MetricSnapshot::percentile`] reports p50/p90/p99 with
//!   bucket-granular error and an exact max.
//! * **[`RegistrySnapshot`]** — a point-in-time, integer-only copy of every
//!   metric, sorted by name.  One snapshot/render path serves text
//!   exposition ([`RegistrySnapshot::render_text`]) and JSON exposition
//!   ([`RegistrySnapshot::render_json`]).
//! * **[`MetricClass`]** — which metrics join the byte-determinism contract
//!   the journal keeps.  *Deterministic* metrics derive only from request
//!   content (request counts, verdict tallies), so their snapshot bytes are
//!   identical at any driver/worker count, warm or cold — pinned by
//!   `tests/telemetry_determinism.rs` over
//!   [`RegistrySnapshot::deterministic_only`].  *Volatile* metrics carry wall
//!   clocks and cache temperature; they are the profiling signal.
//! * **[`TelemetryHandle`]** — the off-by-default config handle (the
//!   [`crate::TracerHandle`] recipe): every hot-path hook is one branch while
//!   telemetry is off.  Callers turn it on in code: an evaluation does when
//!   it is handed a registry.
//! * **[`CollapsedProfile`]** — a flamegraph-compatible collapsed-stack
//!   profile (`stack;frames value` lines) assembled from stage-timer
//!   histograms; `svobs prof` renders one for the evaluation pipeline.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::sync::lock_recover;

/// Number of log-2 histogram buckets: bucket 0 holds zeros, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, and bucket 64 holds `>= 2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// `numerator / denominator` with the 0-request rate defined as 0 — never
/// `NaN`.  Every rate computed from registry counters goes through this.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Whether a metric participates in the byte-determinism contract.
///
/// Deterministic metrics, like journal events, derive only from
/// request content and are byte-identical at any worker/driver/shard count;
/// volatile metrics carry wall clocks, cache temperature, or scheduling
/// artifacts and are excluded from determinism comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MetricClass {
    /// Pure function of `(model, corpus, protocol)` — safe to byte-compare.
    Deterministic,
    /// Wall-clock / cache-temperature / interleaving dependent.
    Volatile,
}

impl MetricClass {
    /// Short tag used in the text exposition (`det` / `vol`).
    pub fn tag(&self) -> &'static str {
        match self {
            MetricClass::Deterministic => "det",
            MetricClass::Volatile => "vol",
        }
    }
}

/// The shape of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonic count of events.
    Counter,
    /// A settable level (cache entries, in-flight sessions).
    Gauge,
    /// Log-2-bucketed distribution with exact max (latencies, sizes).
    Histogram,
}

impl MetricKind {
    /// Short tag used in the text exposition.
    pub fn tag(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Bucket index for a histogram observation: 0 for 0, else `64 - leading_zeros`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index` (`2^index - 1`; `u64::MAX` for the
/// top bucket, 0 for the zero bucket).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// The quantile kernel over log-2 bucket counts: the inclusive upper
/// bound of the bucket where the cumulative count crosses
/// `ceil(q * count)` (at least 1), clamped to the exact recorded `max`.
///
/// ## Error bound
///
/// Resolution is **bucket-granular**.  Bucket `i` holds observations in
/// `[2^(i-1), 2^i)` and the kernel reports its inclusive upper bound
/// `2^i - 1`, so for an actual quantile value `a` the reported value `r`
/// satisfies `a <= r <= 2a - 1`: the result **never under-reports**, and the
/// worst-case relative error `(r - a) / a` is `(2^(i-1) - 1) / 2^(i-1)`,
/// approaching (but never reaching) **100%** as `a` sits on a bucket's lower
/// edge.  Two exact anchors tighten this in practice: the zero bucket reports
/// exactly 0, and any quantile landing in the top populated bucket is clamped
/// to the exact `max`.  `tests::percentile_error_bound_is_pinned` pins the
/// worst case for p50/p90/p99 across bucket boundaries.
pub fn percentile_from_buckets(count: u64, max: u64, buckets: &[u64], q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (index, bucket) in buckets.iter().enumerate() {
        cumulative += bucket;
        if cumulative >= rank {
            return bucket_upper_bound(index).min(max);
        }
    }
    max
}

/// One registered metric: lock-free atomics written by the hot path.
///
/// All three kinds share the storage; the [`MetricKind`] decides which fields
/// are meaningful (`count`/`sum`/`max`/`buckets` for histograms, `value` for
/// counters and gauges).
#[derive(Debug)]
pub struct Metric {
    name: String,
    class: MetricClass,
    kind: MetricKind,
    value: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Metric {
    fn new(name: String, class: MetricClass, kind: MetricKind) -> Self {
        let buckets = match kind {
            MetricKind::Histogram => (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            _ => Vec::new(),
        };
        Self {
            name,
            class,
            kind,
            value: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets,
        }
    }

    /// The metric's hierarchical name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metric's determinism class.
    pub fn class(&self) -> MetricClass {
        self.class
    }

    /// The metric's kind.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Adds to a counter (also accepted on gauges, where it raises the level).
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sets a gauge level.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Records one histogram observation.
    pub fn observe(&self, value: u64) {
        if self.buckets.is_empty() {
            // A counter/gauge asked to observe: fold into the value so the
            // data is never silently dropped.
            self.add(value);
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration observation in nanoseconds.
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of this metric.
    pub fn snapshot(&self) -> MetricSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        MetricSnapshot {
            name: self.name.clone(),
            class: self.class,
            kind: self.kind,
            value: self.value.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// The metric registry: hierarchical names to shared [`Metric`] handles.
///
/// Registration takes a lock; recording does not (callers hold the returned
/// `Arc<Metric>` and write atomics).  Registering an existing name returns the
/// existing metric, so two subsystems naming the same series share it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Arc<Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, class: MetricClass, kind: MetricKind) -> Arc<Metric> {
        let mut metrics = lock_recover(&self.metrics);
        Arc::clone(
            metrics
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Metric::new(name.to_string(), class, kind))),
        )
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, class: MetricClass) -> Arc<Metric> {
        self.register(name, class, MetricKind::Counter)
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, class: MetricClass) -> Arc<Metric> {
        self.register(name, class, MetricKind::Gauge)
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, class: MetricClass) -> Arc<Metric> {
        self.register(name, class, MetricKind::Histogram)
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = lock_recover(&self.metrics);
        RegistrySnapshot {
            metrics: metrics.values().map(|m| m.snapshot()).collect(),
        }
    }
}

/// A point-in-time, integer-only copy of one metric.
///
/// Every numeric field is a `u64` — no floats, so the JSON exposition
/// round-trips exactly through the vendored `serde_json`.  Rates
/// and means are computed at render time via [`ratio`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Hierarchical metric name (`service.repair.solve`).
    pub name: String,
    /// Determinism class.
    pub class: MetricClass,
    /// Metric shape.
    pub kind: MetricKind,
    /// Counter/gauge value (0 for histograms).
    pub value: u64,
    /// Histogram observation count.
    pub count: u64,
    /// Histogram observation sum.
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Log-2 bucket counts, trailing zero buckets trimmed.
    pub buckets: Vec<u64>,
}

impl MetricSnapshot {
    /// Mean observation (0 when the histogram is empty).
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }

    /// The `q`-quantile (`0.0..=1.0`) with **bucket-granular** resolution: the
    /// inclusive upper bound of the bucket where the cumulative count crosses
    /// `q * count`, clamped to the exact recorded max (so the top of the
    /// distribution reports exactly).
    ///
    /// The reported value never under-reports the true quantile, and
    /// over-reports by strictly less than 2× — see [`percentile_from_buckets`]
    /// for the precise bound and the test pinning it.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from_buckets(self.count, self.max, &self.buckets, q)
    }

    fn render_line(&self) -> String {
        match self.kind {
            MetricKind::Counter | MetricKind::Gauge => format!(
                "{} class={} kind={} value={}",
                self.name,
                self.class.tag(),
                self.kind.tag(),
                self.value
            ),
            MetricKind::Histogram => format!(
                "{} class={} kind={} count={} sum={} max={} p50={} p90={} p99={}",
                self.name,
                self.class.tag(),
                self.kind.tag(),
                self.count,
                self.sum,
                self.max,
                self.percentile(0.50),
                self.percentile(0.90),
                self.percentile(0.99),
            ),
        }
    }
}

/// A sorted collection of [`MetricSnapshot`]s — the unit of exposition.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Snapshots sorted by metric name (the registry's BTreeMap order).
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|index| &self.metrics[index])
    }

    /// The deterministic-class subset — the bytes the determinism tests
    /// compare across worker/driver counts.
    pub fn deterministic_only(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|m| m.class == MetricClass::Deterministic)
                .cloned()
                .collect(),
        }
    }

    /// Byte-stable text exposition: one line per metric, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            out.push_str(&metric.render_line());
            out.push('\n');
        }
        out
    }

    /// JSON exposition.  Field order is fixed by the struct and metric order
    /// by name, so the bytes are stable for a given set of readings.
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).expect("registry snapshots always serialize")
    }
}

/// The config-threaded telemetry switch: `off()` by default, one branch per
/// hot-path hook, pointer-identity equality (two handles are equal when they
/// share a registry — the [`crate::TracerHandle`] recipe).
#[derive(Clone, Default)]
pub struct TelemetryHandle(Option<Arc<MetricsRegistry>>);

impl TelemetryHandle {
    /// The disabled handle: every hook short-circuits on one branch.
    pub fn off() -> Self {
        Self(None)
    }

    /// A handle recording into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self(Some(registry))
    }

    /// Whether telemetry is enabled.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.0.as_ref()
    }

    /// Registers a counter when enabled.
    pub fn counter(&self, name: &str, class: MetricClass) -> Option<Arc<Metric>> {
        self.0.as_ref().map(|r| r.counter(name, class))
    }

    /// Registers a gauge when enabled.
    pub fn gauge(&self, name: &str, class: MetricClass) -> Option<Arc<Metric>> {
        self.0.as_ref().map(|r| r.gauge(name, class))
    }

    /// Registers a histogram when enabled.
    pub fn histogram(&self, name: &str, class: MetricClass) -> Option<Arc<Metric>> {
        self.0.as_ref().map(|r| r.histogram(name, class))
    }

    /// A snapshot of the backing registry (empty when off).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.0.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() {
            "TelemetryHandle(on)"
        } else {
            "TelemetryHandle(off)"
        })
    }
}

impl PartialEq for TelemetryHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                std::ptr::eq(Arc::as_ptr(a) as *const (), Arc::as_ptr(b) as *const ())
            }
            _ => false,
        }
    }
}

impl Eq for TelemetryHandle {}

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
    fn ratio_defines_zero_over_zero_as_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert!(!ratio(0, 0).is_nan());
        assert_eq!(ratio(3, 4), 0.75);
    }

    #[test]
    fn histogram_buckets_by_log2_and_tracks_exact_max() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("t.latency", MetricClass::Volatile);
        for value in [0u64, 1, 2, 3, 7, 8, 1000, 1_000_000] {
            hist.observe(value);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.max, 1_000_000);
        assert_eq!(snap.sum, 1_001_021);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 7 → 3; 8 → 4; 1000 → 10.
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[3], 1);
        assert_eq!(snap.buckets[4], 1);
        assert_eq!(snap.buckets[10], 1);
        // p99 lands in the top populated bucket and reports the exact max.
        assert_eq!(snap.percentile(0.99), 1_000_000);
        // p50 (4th of 8 observations) lands in the [2,3] bucket.
        assert_eq!(snap.percentile(0.50), 3);
        assert_eq!(snap.percentile(0.0), 0);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("t.empty", MetricClass::Volatile);
        let snap = hist.snapshot();
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(!snap.mean().is_nan());
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("shared.count", MetricClass::Deterministic);
        let b = registry.counter("shared.count", MetricClass::Deterministic);
        a.inc();
        b.add(2);
        assert_eq!(registry.snapshot().get("shared.count").unwrap().value, 3);
        assert_eq!(registry.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_render_is_byte_stable() {
        let registry = MetricsRegistry::new();
        registry.counter("z.last", MetricClass::Volatile).inc();
        registry
            .counter("a.first", MetricClass::Deterministic)
            .inc();
        registry
            .histogram("m.middle", MetricClass::Volatile)
            .observe(5);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert_eq!(snap.render_text(), registry.snapshot().render_text());
        assert!(snap.render_text().starts_with("a.first class=det"));
    }

    #[test]
    fn deterministic_only_filters_volatile_series() {
        let registry = MetricsRegistry::new();
        registry
            .counter("det.count", MetricClass::Deterministic)
            .inc();
        registry
            .histogram("vol.latency", MetricClass::Volatile)
            .observe(100);
        let det = registry.snapshot().deterministic_only();
        assert_eq!(det.len(), 1);
        assert_eq!(det.metrics[0].name, "det.count");
    }

    #[test]
    fn json_exposition_round_trips() {
        let registry = MetricsRegistry::new();
        registry.counter("a", MetricClass::Deterministic).add(7);
        registry
            .histogram("b.lat", MetricClass::Volatile)
            .observe(123456);
        registry.gauge("c.depth", MetricClass::Volatile).set(4);
        let snap = registry.snapshot();
        let parse = serde_json::from_str::<RegistrySnapshot>;
        assert_eq!(parse(&snap.render_json()).expect("round trip"), snap);
        assert!(parse("{nonsense").is_err());
    }

    #[test]
    fn telemetry_handle_follows_the_tracer_recipe() {
        let off = TelemetryHandle::off();
        assert!(!off.is_on());
        assert_eq!(off, TelemetryHandle::off());
        assert_eq!(format!("{off:?}"), "TelemetryHandle(off)");
        let registry = Arc::new(MetricsRegistry::new());
        let on = TelemetryHandle::new(Arc::clone(&registry));
        assert!(on.is_on());
        assert_eq!(on, on.clone());
        assert_ne!(on, TelemetryHandle::new(Arc::new(MetricsRegistry::new())));
        assert_ne!(on, off);
        assert_eq!(format!("{on:?}"), "TelemetryHandle(on)");
        // Recording through the handle lands in the shared registry.
        on.counter("x", MetricClass::Deterministic).unwrap().inc();
        assert_eq!(registry.snapshot().get("x").unwrap().value, 1);
        assert!(off.counter("x", MetricClass::Deterministic).is_none());
        assert!(off.snapshot().is_empty());
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

    #[test]
    fn bucket_bounds_cover_the_u64_range() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(0), 0);
    }

    /// Pins the documented worst-case relative error of
    /// [`percentile_from_buckets`]: observations planted exactly on bucket
    /// lower edges (`2^k`, the worst position) must report p50/p90/p99 that
    /// never under-report and over-report by strictly less than 2×.
    #[test]
    fn percentile_error_bound_is_pinned() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("t.bound", MetricClass::Volatile);
        // 100 observations spread across bucket boundaries: 2^4..2^13, each
        // planted at its bucket's lower edge where relative error peaks.
        let mut observations = Vec::new();
        for k in 4u32..14 {
            for _ in 0..10 {
                observations.push(1u64 << k);
            }
        }
        for &value in &observations {
            hist.observe(value);
        }
        observations.sort_unstable();
        let snap = hist.snapshot();
        for q in [0.50, 0.90, 0.99] {
            let rank = ((q * observations.len() as f64).ceil().max(1.0)) as usize;
            let actual = observations[rank - 1];
            let reported = snap.percentile(q);
            assert!(
                reported >= actual,
                "p{q}: reported {reported} under-reports actual {actual}"
            );
            let relative_error = (reported - actual) as f64 / actual as f64;
            assert!(
                relative_error < 1.0,
                "p{q}: relative error {relative_error} breaches the <100% bound \
                 (reported {reported}, actual {actual})"
            );
            // Worst case is exactly (2^k - 1)/2^k for a lower-edge value not
            // clamped by the max: reported == 2 * actual - 1.
            if reported != snap.max {
                assert_eq!(reported, 2 * actual - 1, "p{q} reports the bucket bound");
            }
        }
        // The exact anchors: zeros report exactly, the top reports the max.
        assert_eq!(percentile_from_buckets(0, 0, &[], 0.5), 0);
        assert_eq!(snap.percentile(1.0), snap.max);
    }
}
