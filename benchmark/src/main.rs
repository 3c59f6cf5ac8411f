//! The repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark run <workload|all> [--seed N] [--seconds S] [--trace] [--repeat N]
//! benchmark --workload <name> --seed N --seconds S --trace <0|1>   (the driver's form)
//! benchmark manifest                                               (prints BENCHMARK.json)
//! benchmark glossary                                               (prints the metric tables)
//! ```
//!
//! Every run prints each metric by name with its unit, checks the answers
//! it was served, ends with one JSON line, and exits non-zero when a check
//! failed.

mod digest;
mod driver;
mod inputs;
mod layers;
mod metrics;
mod noise;
mod report;
mod run;
mod spans;
mod stats;

use inputs::{Spec, DEFAULT_SEED, SPECS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs put durable state and traces; inside the crate, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        repeat: 0,
    };
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                out.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver's form
                // passes 0 or 1.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    let mut positional = positional.into_iter();
    out.command = positional.next();
    if out.workload.is_none() {
        out.workload = positional.next();
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument {extra}"));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: benchmark run <{}|all> [--seed N] [--seconds S] [--trace] [--repeat N]\n       benchmark --workload <name> --seed N --seconds S --trace <0|1>\n       benchmark manifest | glossary",
        names.join("|")
    )
}

/// Runs one workload, prints its report, and says whether every check held.
fn run_one(spec: &Spec, args: &Args) -> bool {
    let config = run::RunConfig {
        spec: *spec,
        seed: args.seed,
        seconds: args.seconds,
        dir: out_dir().join(format!("{}-{}", spec.name, std::process::id())),
    };
    let outcome = if args.trace {
        layers::run(&config)
    } else {
        run::run(&config)
    };
    outcome.print(spec, args.seed)
}

/// This executable again, for one run of one workload in the driver's form.
/// `run all` and the self-test run every workload in a child process, so
/// that `peak_rss_mb` is that run's own high-water mark.
pub fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> std::process::Command {
    let mut command =
        std::process::Command::new(std::env::current_exe().expect("path of this executable"));
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    command
}

fn run_all(args: &Args) -> bool {
    SPECS.iter().fold(true, |ok, spec| {
        let status = child_run(spec.name, args.seed, args.seconds, args.trace).status();
        matches!(status, Ok(s) if s.success()) && ok
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("manifest"), None) => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        (Some("glossary"), None) => {
            print!("{}", metrics::glossary());
            ExitCode::SUCCESS
        }
        (Some("run"), Some("all")) if args.repeat > 0 => {
            noise::self_test(args.repeat, args.seed, args.seconds)
        }
        (Some("run"), Some("all")) => exit_code(run_all(&args)),
        (Some("run") | None, Some(name)) => match inputs::spec(name) {
            Some(spec) => exit_code(run_one(spec, &args)),
            None => {
                eprintln!("unknown workload {name}\n{}", usage());
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn parses_the_drivers_form_and_the_run_form() {
        let a = parsed("--workload memo_hot --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.workload.as_deref(), Some("memo_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = parsed("--workload memo_hot --seed 7 --seconds 3 --trace 0").unwrap();
        assert!(!a.trace);
        let a = parsed("run all --repeat 5").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.workload.as_deref(), Some("all"));
        assert_eq!((a.seed, a.repeat, a.trace), (DEFAULT_SEED, 5, false));
        let a = parsed("run scan_heavy --trace --seed 9").unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 9);
        assert!(parsed("run all --bogus").is_err());
        assert!(parsed("run all extra").is_err());
        assert!(parsed("--seconds 0 run all").is_err());
    }
}
