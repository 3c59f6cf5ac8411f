//! The noise self-test: `run all --repeat N` runs the same code as two
//! interleaved sets (A B A B …) and asks whether the benchmark would accuse
//! it of a regression. Every run is a child process, so `peak_rss_mb` is
//! that run's own. The table it prints on standard output is what
//! `NOISE.md` records; progress goes to standard error.

use crate::inputs::SPECS;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::parse_values;
use crate::stats::{iqr_share, quartiles};
use std::collections::BTreeMap;
use std::process::{ExitCode, Stdio};

/// Values of one workload: metric name → one value per run.
type Series = BTreeMap<String, Vec<f64>>;

/// One child run; returns its metric values, or what went wrong.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let output = crate::child_run(workload, seed, seconds, traced)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let failed: Vec<&str> = stdout.lines().filter(|l| l.starts_with("FAILED")).collect();
        return Err(format!("exit {}: {}", output.status, failed.join("; ")));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let values = parse_values(last);
    if values.is_empty() {
        return Err("no result line".to_string());
    }
    Ok(values)
}

/// How much worse `b` is than `a` as a share of `a`, in the metric's own
/// direction: positive means worse.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn summary(values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

pub fn self_test(repeat: usize, seed: u64, seconds: f64) -> ExitCode {
    if repeat < 2 {
        eprintln!(
            "--repeat needs at least 2 runs per set (5 or more for a verdict worth recording)"
        );
        return ExitCode::from(2);
    }
    // [set][workload] → series
    let mut end_to_end: [Vec<Series>; 2] = [
        vec![Series::new(); SPECS.len()],
        vec![Series::new(); SPECS.len()],
    ];
    let mut layers: Vec<Series> = vec![Series::new(); SPECS.len()];
    let mut failures = Vec::new();
    for round in 0..repeat {
        for set in 0..2 {
            for (w, spec) in SPECS.iter().enumerate() {
                eprintln!("round {} set {} {}", round + 1, ["A", "B"][set], spec.name);
                match child(spec.name, seed, seconds, false) {
                    Ok(values) => {
                        for (name, v) in values {
                            end_to_end[set][w].entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => failures.push(format!("{} end-to-end run failed: {e}", spec.name)),
                }
                match child(spec.name, seed, seconds, true) {
                    Ok(values) => {
                        for (name, v) in values {
                            layers[w].entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => failures.push(format!("{} traced run failed: {e}", spec.name)),
                }
            }
        }
    }

    println!("# Noise self-test\n");
    println!(
        "`run all --repeat {}` — seed {}, {} s per run, {} processor(s). Two interleaved sets of {} runs of the same binary; each cell is `median [q1, q3]`. `delta` is how much worse set B's median is than set A's, in the metric's own direction; `spread` is the wider of the two sets' interquartile ranges over its median. A row fails when |delta| exceeds the bound.\n",
        repeat,
        seed,
        seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        repeat,
    );
    println!("| workload | metric | unit | set A | set B | delta | spread | bound | verdict |");
    println!("| --- | --- | --- | --- | --- | --- | --- | --- | --- |");
    for (w, spec) in SPECS.iter().enumerate() {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (end_to_end[0][w].get(m.name), end_to_end[1][w].get(m.name))
            else {
                failures.push(format!("{}/{} was never reported", spec.name, m.name));
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                failures.push(format!("{}/{} has too few runs", spec.name, m.name));
                continue;
            }
            let (ma, mb) = (quartiles(a).1, quartiles(b).1);
            let delta = worsening(ma, mb, m.better);
            let spread = iqr_share(a).max(iqr_share(b));
            let verdict = if delta.abs() > m.bound {
                failures.push(format!(
                    "{}/{}: sets differ by {:+.1} %, bound {:.0} %",
                    spec.name,
                    m.name,
                    100.0 * delta,
                    100.0 * m.bound
                ));
                "FAIL"
            } else if spread > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "| {} | {} | {} | {} | {} | {:+.1} % | {:.1} % | {:.0} % | {verdict} |",
                spec.name,
                m.name,
                m.unit,
                summary(a),
                summary(b),
                100.0 * delta,
                100.0 * spread,
                100.0 * m.bound,
            );
        }
    }

    println!(
        "\n## Per-layer metrics over all {} traced runs\n",
        2 * repeat
    );
    println!("Exact counts must be identical in every run.\n");
    println!("| workload | metric | unit | median [q1, q3] | exact |");
    println!("| --- | --- | --- | --- | --- |");
    for (w, spec) in SPECS.iter().enumerate() {
        for m in &PER_LAYER {
            let Some(v) = layers[w].get(m.name).filter(|v| v.len() >= 2) else {
                failures.push(format!(
                    "{}/{} was reported fewer than twice",
                    spec.name, m.name
                ));
                continue;
            };
            let exact = if !m.exact {
                ""
            } else if v.iter().all(|x| x.to_bits() == v[0].to_bits()) {
                "identical"
            } else {
                failures.push(format!(
                    "{}/{} is exact but varied: {v:?}",
                    spec.name, m.name
                ));
                "VARIED"
            };
            println!(
                "| {} | {} | {} | {} | {exact} |",
                spec.name,
                m.name,
                m.unit,
                summary(v)
            );
        }
    }
    if failures.is_empty() {
        println!("\nVerdict: the two sets agree within every bound and every exact count repeats.");
        ExitCode::SUCCESS
    } else {
        println!("\nVerdict: FAILED");
        for f in &failures {
            println!("- {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}
