//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end ones, or with `--trace 1` the per-layer ones). The input
//! inventory is printed on the line before it. Exits 1 when any answer
//! check or the stage oracle failed, 2 on bad arguments.

use dagfact_perfbench::report::result_json;
use dagfact_perfbench::{run, Config, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => cfg.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&workload, &cfg).expect("workload name validated");
    let correct = result.correct();
    if !result.tally.oracle_ok {
        eprintln!("perfbench: stage oracle failed: staged analysis differs from Analysis::new");
    }
    if result.tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} ops failed the answer check",
            result.tally.failed, result.tally.attempted
        );
    }
    println!("inventory {}", result.inventory);
    println!(
        "{}",
        result_json(
            correct,
            result.tally.attempted,
            result.tally.failed,
            &result.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
