//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints provenance, notes and every metric by name and unit, then one
//! JSON result line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones, and the spans are written under
//! `.bench_trace/` at the repository root.

use e2ebench::provenance::Provenance;
use e2ebench::{repo_root, run, Args, WORKLOADS};
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_dir: Some(repo_root().join(".bench_trace")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required: {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::collect(repo_root());
    if provenance.unoptimised() {
        eprintln!(
            "e2ebench: refusing to measure an unoptimised build (profile {}, opt-level {}); \
             build with --release",
            provenance.profile, provenance.opt_level
        );
        return ExitCode::from(2);
    }
    println!("{}", provenance.line(args.seed));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("inputs digest {:016x}", report.inputs_digest);
    for note in &report.notes {
        println!("note: {note}");
    }
    let run_layers = e2ebench::layers_run_by(&args.workload);
    for (name, unit, value) in report.metrics(args.trace) {
        let not_run = args.trace && !run_layers.contains(&e2ebench::layer_of(name));
        let tag = if not_run { "  (layer not run)" } else { "" };
        println!("metric {name:<34} {value:>16.6} {unit}{tag}");
    }
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", report.json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
