//! The repository benchmark: three workloads against the public API of
//! the PaCo serving stack and simulator.
//!
//! ```text
//! perfbench --workload stream|churn|paper_sim --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the workload untraced and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer
//! breakdown from spans the benchmark records around its calls into the
//! program, plus the tracing overhead. Either way it checks the
//! program's outputs (prediction digests against the offline oracle,
//! simulator statistics against pinned and repeated values) and exits
//! non-zero on any mismatch. Human-readable lines come first; the last
//! line of standard output is one JSON object.

mod churn;
mod common;
mod host;
mod layers;
mod openloop;
mod paper_sim;
mod stats;
mod stream;
mod trace;

use common::{Args, Outcome};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("host {}", host::host_block());
    let outcome: Outcome = match args.workload.as_str() {
        "stream" => stream::run(&args),
        "churn" => churn::run(&args),
        "paper_sim" => paper_sim::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (stream, churn, paper_sim)");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("note {note}");
    }
    for m in &outcome.metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "checked attempted {} failed {} failed_ratio {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        eprintln!("perfbench: output check failed");
        std::process::exit(1);
    }
}
