//! The benchmark's own checks: its layer list stays complete, its
//! definition file matches what it reports, and a different seed gives
//! different traffic that still passes every output check.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use e2ebench::{
    layer_of, layers_run_by, repo_root, run, Args, END_TO_END, EXTRA_WORKLOADS, PER_LAYER,
    WORKLOADS,
};

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace,
        trace_dir: None,
    }
}

/// Per-layer metrics that measure work done or time taken, so they must
/// be positive in every workload whose layer runs.
const MEASURED: [&str; 35] = [
    "decode.frames",
    "decode.us_per_frame",
    "decode.detect_us_per_frame",
    "decode.ofdm_us_per_frame",
    "decode.mac_us_per_frame",
    "decode.share",
    "dsp.packets",
    "dsp.us_per_packet",
    "dsp.extract_us_per_packet",
    "dsp.calibrate_us_per_packet",
    "dsp.covariance_us_per_packet",
    "dsp.aoa_us_per_packet",
    "dsp.signature_us_per_packet",
    "dsp.share",
    "enforce.calls",
    "enforce.us_per_call",
    "enforce.admitted",
    "enforce.spoof_dropped",
    "enforce.share",
    "fusion.windows",
    "fusion.us_per_window",
    "fusion.bearings",
    "fusion.fixes",
    "fusion.share",
    "deploy.submit_ms_p50",
    "deploy.collect_wait_ms_p50",
    "deploy.overlap",
    "observe.us_per_frame",
    "observe.batch_of_one_us_per_frame",
    "observe.setup_overhead_ratio",
    "testbed.build_s",
    "testbed.synth_s",
    "testbed.synth_us_per_capture",
    "deploy.warmup_ms",
    "trace.coverage",
];

#[test]
fn every_layer_reports_where_it_runs() {
    for workload in WORKLOADS.iter().chain(&EXTRA_WORKLOADS) {
        let report = run(&args(workload, 5, true)).expect("valid invocation");
        assert!(report.correct(), "{workload}: {:?}", report.check_failures);
        let runs = layers_run_by(workload);
        for (name, _) in PER_LAYER {
            let value = report.per_layer.get(name);
            if runs.contains(&layer_of(name)) {
                let value = value.unwrap_or_else(|| panic!("{workload}: {name} is missing"));
                if MEASURED.contains(&name) {
                    assert!(*value > 0.0, "{workload}: {name} = {value}");
                }
            } else {
                assert!(
                    value.is_none(),
                    "{workload}: {name} reported for a layer it does not run"
                );
            }
        }
        // The layers must account for the replay's time: the ROADMAP's
        // "layers sum to within ~10%".
        let coverage = report.per_layer["trace.coverage"];
        assert!(coverage >= 0.9, "{workload}: trace.coverage {coverage}");
        // Printed output carries every per-layer metric.
        assert_eq!(report.metrics(true).len(), PER_LAYER.len());
    }
}

#[test]
fn a_second_seed_changes_the_traffic_and_passes_every_check() {
    for workload in ["campus_attack", "single_ap_18B"] {
        let a = run(&args(workload, 1, false)).expect("valid invocation");
        let b = run(&args(workload, 2, false)).expect("valid invocation");
        assert_ne!(
            a.inputs_digest, b.inputs_digest,
            "{workload}: same traffic for two seeds"
        );
        for (seed, r) in [(1, &a), (2, &b)] {
            assert!(
                r.correct(),
                "{workload} seed {seed}: {:?}",
                r.check_failures
            );
            assert_eq!(r.failed, 0, "{workload} seed {seed}");
            assert_eq!(
                r.end_to_end.len(),
                END_TO_END.len(),
                "{workload} seed {seed}"
            );
            for (name, value) in &r.end_to_end {
                assert!(*value > 0.0, "{workload} seed {seed}: {name} = {value}");
            }
        }
    }
}

#[test]
fn same_seed_gives_the_same_traffic() {
    let a = run(&args("single_ap_18B", 3, false)).expect("valid invocation");
    let b = run(&args("single_ap_18B", 3, false)).expect("valid invocation");
    assert_eq!(a.inputs_digest, b.inputs_digest);
    for name in [
        "bearing_within_5deg_frac",
        "spoof_caught_frac",
        "legit_pass_frac",
    ] {
        assert_eq!(a.end_to_end[name], b.end_to_end[name], "{name}");
    }
}

/// The names listed under `key` in `BENCHMARK.json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let section = &json[start..];
    let end = section.find(']').expect("a list");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(names_under(&json, "workloads"), WORKLOADS);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_under(&json, "per_layer"), layers);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
