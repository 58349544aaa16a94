//! One benchmark for the variational compilation loop.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload grape_loop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the same
//! inputs with every public call in a span and reports the per-layer ones.
//! The last line of standard output is the result as one JSON object; the
//! run's provenance and, for traced runs, the Chrome trace and self-time
//! table are written under `.bench_out/`.

mod gate;
mod inputs;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Metric, Outcome};

/// Output directory, relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// Violations printed in full before the result line.
const SHOWN_VIOLATIONS: usize = 20;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Environment variables that change what the program does. A baseline taken
/// with one set would compare a different program, so the benchmark refuses
/// to start.
fn stray_knobs() -> Vec<String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("VQC_"))
        .collect();
    knobs.sort();
    knobs
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| String::from("unknown"))
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        json_string(&cpu_model()),
        json_string(env!("LOOPBENCH_RUSTC")),
        json_string(env!("LOOPBENCH_COMMIT")),
    )
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
fn result_line(outcome: &Outcome) -> String {
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value:?},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn write_outputs(
    args: &Args,
    provenance: &str,
    outcome: &Outcome,
    line: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        format!("{stem}.json"),
        format!("{{\"provenance\":{provenance},\"result\":{line}}}\n"),
    )?;
    for (name, contents) in &outcome.files {
        std::fs::write(format!("{stem}.{name}"), contents)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("loopbench: {error}");
            eprintln!(
                "usage: loopbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let knobs = stray_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "loopbench: refusing to run with behaviour-changing variables set: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let Some(workload) = workload::workload(&args.workload) else {
        eprintln!(
            "loopbench: unknown workload {}; known: {}",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let provenance = provenance(&args);
    println!("provenance {provenance}");

    let run = if args.trace {
        workload::run_traced(&workload, args.seed, args.seconds)
    } else {
        workload::run_untraced(&workload, args.seed, args.seconds)
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("loopbench: {} failed: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for metric in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    for violation in outcome.violations.iter().take(SHOWN_VIOLATIONS) {
        println!("violation: {violation}");
    }
    let line = result_line(&outcome);
    if let Err(error) = write_outputs(&args, &provenance, &outcome, &line) {
        eprintln!("loopbench: cannot write {OUT_DIR}: {error}");
    }
    println!("{line}");
    if line.starts_with("{\"correct\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_in_any_order() {
        let args = parse_args(&strings(&[
            "--seed",
            "7",
            "--trace",
            "1",
            "--workload",
            "grape_loop",
            "--seconds",
            "10",
        ]))
        .expect("valid arguments");
        assert_eq!(
            args,
            Args {
                workload: String::from("grape_loop"),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&[
            "--seed",
            "x",
            "--workload",
            "a",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![Metric {
                name: String::from("iter_p50_ms"),
                value: 1.25,
                unit: "ms",
            }],
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"iter_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        let failed = Outcome {
            failed: 1,
            attempted: 10,
            ..Outcome::default()
        };
        assert!(result_line(&failed).starts_with("{\"correct\":false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
