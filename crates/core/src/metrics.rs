//! The unified metrics registry: one named export surface over every
//! ad-hoc counter struct in the system.
//!
//! Recording stays where it is — [`crate::cache::CacheStats`],
//! [`crate::plan::PlanHistogram`], [`crate::latency::StageSnapshot`] and
//! the service-tier stats structs remain the internal recording surface —
//! but *reporting* goes through a [`MetricsRegistry`]: each struct
//! registers its counters under a stable name, and the registry renders
//! them once as Prometheus text exposition ([`render_prometheus`]) or a
//! flat JSON object ([`render_json`], what `report --json` embeds as the
//! `metrics_*` keys).
//!
//! [`render_prometheus`]: MetricsRegistry::render_prometheus
//! [`render_json`]: MetricsRegistry::render_json
//!
//! ## Naming convention
//!
//! `friends_<subsystem>_<name>` with the unit as a suffix where one
//! applies: `_total` for monotonic counters, `_us` for microsecond gauges,
//! `_bytes` for sizes, bare for unit-less gauges (depths, ratios).
//! Names match `^friends_[a-z0-9_]+$`; variants ride in labels
//! (`friends_plan_strategy_total{strategy="block-max"}`), never in ad-hoc
//! name suffixes. The CI exposition lint pins the convention:
//! every sample line matches
//! `^friends_[a-z0-9_]+(\{[^}]*\})? [0-9]`.

/// Metric kind, mirrored into the Prometheus `# TYPE` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count (`_total` suffix by convention).
    Counter,
    /// Point-in-time value (depths, percentiles, ratios, bytes).
    Gauge,
}

/// One registered sample: a name, optional labels, help text and a value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub help: &'static str,
    pub kind: MetricKind,
    /// `(label, value)` pairs; empty for unlabeled metrics.
    pub labels: Vec<(&'static str, String)>,
    pub value: f64,
}

impl Metric {
    /// The full sample key — `name` plus `{label=value,...}` when labeled.
    /// This is the key [`MetricsRegistry::render_json`] and
    /// [`MetricsRegistry::get`] use (no quotes around label values, so the
    /// keys stay `jq`-friendly).
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

fn valid_name(name: &str) -> bool {
    name.starts_with("friends_")
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// An ordered registry of named counters and gauges. Build one from the
/// stats snapshots you hold (every stats struct has a `register_into`),
/// then render once.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn push(
        &mut self,
        kind: MetricKind,
        name: &str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: f64,
    ) {
        debug_assert!(
            valid_name(name),
            "metric name `{name}` violates the friends_<subsystem>_<name> convention"
        );
        // Non-finite values would break the text exposition (and every
        // consumer doing arithmetic on it); export a hard zero instead.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_owned(),
            help,
            kind,
            labels: labels.iter().map(|&(k, v)| (k, v.to_owned())).collect(),
            value,
        });
    }

    /// Registers a monotonic counter.
    pub fn counter(&mut self, name: &str, help: &'static str, value: u64) {
        self.push(MetricKind::Counter, name, help, &[], value as f64);
    }

    /// Registers a labeled monotonic counter.
    pub fn counter_with(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        value: u64,
    ) {
        self.push(MetricKind::Counter, name, help, labels, value as f64);
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str, help: &'static str, value: f64) {
        self.push(MetricKind::Gauge, name, help, &[], value);
    }

    /// Looks one sample up by its full key (see [`Metric::key`]) — the
    /// lookup reporting code uses instead of reaching into the stats
    /// structs' fields.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.key() == key)
            .map(|m| m.value)
    }

    /// The registered samples, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Number of registered samples.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Prometheus text exposition: `# HELP` / `# TYPE` once per metric name
    /// (at its first occurrence), then one sample line per entry. Counters
    /// render as integers, gauges with their fractional part.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !seen.contains(&m.name.as_str()) {
                seen.push(&m.name);
                out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
                let kind = match m.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                };
                out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
            }
            if m.labels.is_empty() {
                out.push_str(&m.name);
            } else {
                let labels: Vec<String> = m
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                out.push_str(&format!("{}{{{}}}", m.name, labels.join(",")));
            }
            out.push_str(&format!(" {}\n", fmt_value(m.kind, m.value)));
        }
        out
    }

    /// A flat JSON object keyed by [`Metric::key`] — what `report --json`
    /// embeds as the `metrics_*` values, and what the CI tail-latency
    /// gates `jq` against.
    pub fn render_json(&self) -> String {
        let kv: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {}",
                    m.key().replace('"', ""),
                    fmt_value(m.kind, m.value)
                )
            })
            .collect();
        format!("{{{}}}", kv.join(", "))
    }
}

fn fmt_value(kind: MetricKind, value: f64) -> String {
    match kind {
        MetricKind::Counter => format!("{}", value as u64),
        MetricKind::Gauge => {
            if value == value.trunc() && value.abs() < 1e15 {
                format!("{}", value as i64)
            } else {
                format!("{value:.3}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter("friends_test_hits_total", "hits", 3);
        r.counter_with(
            "friends_test_strategy_total",
            "per-strategy decisions",
            &[("strategy", "block-max")],
            2,
        );
        r.gauge("friends_test_p99_us", "p99 latency", 1234.5678);
        r.gauge("friends_test_depth", "queue depth", 7.0);
        r
    }

    #[test]
    fn prometheus_exposition_matches_the_lint() {
        let text = sample().render_prometheus();
        for line in text.lines() {
            let ok = line.starts_with("# HELP") || line.starts_with("# TYPE") || {
                // ^friends_[a-z0-9_]+(\{[^}]*\})? [0-9]
                let (key, value) = line.rsplit_once(' ').expect("sample line");
                let name = key.split('{').next().unwrap();
                valid_name(name) && value.as_bytes()[0].is_ascii_digit()
            };
            assert!(ok, "line violates the exposition lint: {line:?}");
        }
        assert!(text.contains("# TYPE friends_test_hits_total counter"));
        assert!(text.contains("friends_test_strategy_total{strategy=\"block-max\"} 2"));
    }

    #[test]
    fn json_keys_and_lookups() {
        let r = sample();
        let json = r.render_json();
        assert!(json.contains("\"friends_test_hits_total\": 3"));
        assert!(json.contains("\"friends_test_strategy_total{strategy=block-max}\": 2"));
        assert_eq!(r.get("friends_test_hits_total"), Some(3.0));
        assert_eq!(
            r.get("friends_test_strategy_total{strategy=block-max}"),
            Some(2.0)
        );
        assert_eq!(r.get("friends_test_depth"), Some(7.0));
        assert_eq!(r.get("nope"), None);
    }

    #[test]
    fn non_finite_values_export_as_zero() {
        let mut r = MetricsRegistry::new();
        r.gauge("friends_test_ratio", "ratio", f64::NAN);
        assert_eq!(r.get("friends_test_ratio"), Some(0.0));
        assert!(r.render_prometheus().contains("friends_test_ratio 0"));
    }

    #[test]
    fn gauge_formatting_keeps_integers_clean() {
        assert_eq!(fmt_value(MetricKind::Gauge, 7.0), "7");
        assert_eq!(fmt_value(MetricKind::Gauge, 1234.5678), "1234.568");
        assert_eq!(fmt_value(MetricKind::Counter, 9.9), "9");
    }
}
