//! What a run prints: the phase table, every metric by name with its unit,
//! the check summary, and — as the last line of standard output — the JSON
//! object the driver reads.

use crate::driver::Counts;
use crate::inputs::{Spec, DEFAULT_SEED};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::shard_count;
use std::collections::BTreeMap;

/// One phase's line of the report.
pub struct PhaseReport {
    pub name: &'static str,
    pub counts: Counts,
    /// Timed samples behind the phase's metrics (passes, segments, bursts,
    /// batches, calls).
    pub samples: usize,
}

/// The result of one run, end-to-end or traced.
pub struct Outcome {
    /// Whether this was the traced run (per-layer metrics) or the plain one
    /// (end-to-end metrics).
    pub traced: bool,
    pub digest: u64,
    pub values: BTreeMap<&'static str, f64>,
    pub phases: Vec<PhaseReport>,
    /// Failed checks, each a sentence; empty means correct.
    pub errors: Vec<String>,
    /// Replies compared against direct execution.
    pub checked: u64,
    /// Further lines for the human reader (counters, file names).
    pub notes: Vec<String>,
}

impl Outcome {
    /// `(name, unit)` of every metric this kind of run must report, in
    /// table order.
    fn expected_metrics(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Prints the report and returns whether every check held.
    pub fn print(mut self, spec: &Spec, seed: u64) -> bool {
        let pin = if seed != DEFAULT_SEED {
            "not pinned for this seed"
        } else if self.digest == spec.pinned_digest {
            "matches the pin"
        } else {
            self.errors.push(format!(
                "input_digest {:016x} differs from the pinned {:016x}: a generator changed the workload",
                self.digest, spec.pinned_digest
            ));
            "MISMATCH"
        };
        println!(
            "== {}  seed {seed}  input_digest {:016x} ({pin})  threads: driver + {} shard(s) on {} processor(s)",
            spec.name,
            self.digest,
            shard_count(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        println!(
            "{:<12} {:>10} {:>7} {:>7} {:>8}",
            "phase", "attempted", "failed", "shed", "samples"
        );
        for p in &self.phases {
            println!(
                "{:<12} {:>10} {:>7} {:>7} {:>8}",
                p.name, p.counts.attempted, p.counts.failed, p.counts.shed, p.samples
            );
        }
        let expected = self.expected_metrics();
        let mut json = Vec::with_capacity(expected.len());
        for &(name, unit) in &expected {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            if value.is_finite() {
                println!("{name:<30} {value:>16.4} {unit}");
                json.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            } else {
                self.errors.push(format!("{name} has no value"));
                println!("{name:<30} {:>16} {unit}", "-");
                json.push(format!(
                    "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!("checked {} replies against direct execution", self.checked);
        for e in &self.errors {
            println!("FAILED: {e}");
        }
        let attempted: u64 = self.phases.iter().map(|p| p.counts.attempted).sum();
        let failed: u64 = self.phases.iter().map(|p| p.counts.failed).sum();
        let correct = self.errors.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            json.join(", ")
        );
        correct
    }
}

/// Reads metric values back out of the JSON line [`Outcome::print`] ends
/// with — the self-test runs every run as a child process, so that
/// `peak_rss_mb` is that run's own.
pub fn parse_values(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = &rest[name_start..at];
        let after = &rest[at + marker.len()..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(value) = after[..end].trim().parse::<f64>() {
            out.insert(name.to_string(), value);
        }
        rest = after;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_json_line() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}, "sat_qps": {"value": 7501.1537, "unit": "1/s"}, "core.plan_ns": {"value": 3e2, "unit": "ns"}}}"#;
        let values = parse_values(line);
        assert_eq!(values.len(), 3);
        assert_eq!(values["setup_s"], 1.25);
        assert_eq!(values["sat_qps"], 7501.1537);
        assert_eq!(values["core.plan_ns"], 300.0);
    }
}
