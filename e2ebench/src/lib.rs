//! # e2ebench — the end-to-end SecureAngle benchmark
//!
//! Seeded workloads drive the public API the way an operator's caller
//! would: `campus_attack` (and the extra `office_1024B`) push observation
//! windows through a multi-AP [`sa_deploy::Deployment`]
//! (`submit_window`/`collect_window`, two windows in flight), and
//! `single_ap_18B` feeds captures one at a time to
//! [`secureangle::AccessPoint::receive`]. Each run
//!
//! 1. sets the workload up three times from its seed (testbed build,
//!    traffic synthesis, deployment start, warm-up) and reports the
//!    median set-up time;
//! 2. runs a closed loop for the requested seconds, cycling the
//!    synthesised window pool;
//! 3. replays the very same inputs serially through the layers' public
//!    functions (decode → per-AP DSP → enforcement → fusion) and
//!    requires every fused window (every single-AP verdict) of the
//!    timed run to equal the replay's, digest for digest;
//! 4. scores localisation, bearing and spoof detection against the
//!    testbed's ground truth.
//!
//! With tracing on, a second replay records spans around every public
//! call and the run reports per-layer times instead. See `README.md`.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod kernels;
pub mod layers;
pub mod provenance;
pub mod single_ap;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["campus_attack", "single_ap_18B"];

/// Workloads the command also runs that `BENCHMARK.json` does not list.
/// `office_1024B` is the decode-bound office: its timings swung by 20–70%
/// between runs on a shared 2-vCPU host, too much for a regression bound.
pub const EXTRA_WORKLOADS: [&str; 1] = ["office_1024B"];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 10] = [
    ("frames_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("processed_frac", "frac"),
    ("fix_within_3m_frac", "frac"),
    ("bearing_within_5deg_frac", "frac"),
    ("spoof_caught_frac", "frac"),
    ("legit_pass_frac", "frac"),
];

/// Per-layer metrics `(name, unit)`, reported with tracing on.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("decode.frames", "count"),
    ("decode.failures", "count"),
    ("decode.fallbacks", "count"),
    ("decode.us_per_frame", "us"),
    ("decode.detect_us_per_frame", "us"),
    ("decode.ofdm_us_per_frame", "us"),
    ("decode.mac_us_per_frame", "us"),
    ("decode.share", "frac"),
    ("dsp.packets", "count"),
    ("dsp.observe_failures", "count"),
    ("dsp.us_per_packet", "us"),
    ("dsp.extract_us_per_packet", "us"),
    ("dsp.calibrate_us_per_packet", "us"),
    ("dsp.covariance_us_per_packet", "us"),
    ("dsp.aoa_us_per_packet", "us"),
    ("dsp.signature_us_per_packet", "us"),
    ("dsp.unattributed_us_per_packet", "us"),
    ("dsp.share", "frac"),
    ("enforce.calls", "count"),
    ("enforce.us_per_call", "us"),
    ("enforce.admitted", "count"),
    ("enforce.spoof_dropped", "count"),
    ("enforce.acl_denied", "count"),
    ("enforce.trained", "count"),
    ("enforce.share", "frac"),
    ("fusion.windows", "count"),
    ("fusion.us_per_window", "us"),
    ("fusion.bearings", "count"),
    ("fusion.fixes", "count"),
    ("fusion.localize_failures", "count"),
    ("fusion.consensus_flags", "count"),
    ("fusion.share", "frac"),
    ("deploy.submit_ms_p50", "ms"),
    ("deploy.collect_wait_ms_p50", "ms"),
    ("deploy.overlap", "ratio"),
    ("deploy.ingest_backpressure", "count"),
    ("deploy.report_backpressure", "count"),
    ("deploy.max_fusion_queue_depth", "count"),
    ("deploy.report_retransmits", "count"),
    ("deploy.reports_lost", "count"),
    ("deploy.skew_rejections", "count"),
    ("deploy.degraded_windows", "count"),
    ("observe.us_per_frame", "us"),
    ("observe.batch_of_one_us_per_frame", "us"),
    ("observe.setup_overhead_ratio", "ratio"),
    ("testbed.build_s", "s"),
    ("testbed.synth_s", "s"),
    ("testbed.synth_us_per_capture", "us"),
    ("deploy.new_ms", "ms"),
    ("deploy.warmup_ms", "ms"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The layer a per-layer metric belongs to: its name's prefix, except
/// that testbed building, deployment start and warm-up form `setup`.
pub fn layer_of(metric: &str) -> &str {
    if metric.starts_with("testbed.") || metric == "deploy.new_ms" || metric == "deploy.warmup_ms" {
        return "setup";
    }
    metric.split('.').next().unwrap_or(metric)
}

/// The layers a workload runs. Metrics of the other layers print as 0.
pub fn layers_run_by(workload: &str) -> &'static [&'static str] {
    match workload {
        "single_ap_18B" => &["decode", "dsp", "enforce", "observe", "setup", "trace"],
        _ => &[
            "decode", "dsp", "enforce", "fusion", "deploy", "setup", "trace",
        ],
    }
}

/// Passes over the window pool that the accuracy metrics are scored
/// on. A fixed prefix keeps them independent of throughput.
pub const ACCURACY_PASSES: usize = 3;

/// The traced replays cover the windows (frames) the timed phase
/// completed in its first this-many seconds — at least
/// [`ACCURACY_PASSES`] pool passes — which bounds a traced run's length.
pub const TRACE_SECONDS: f64 = 5.0;

/// How many of the timed phase's items the traced replays cover, given
/// when each completed and the minimum count.
pub fn traced_prefix(done_s: &[f64], at_least: usize) -> usize {
    let within = done_s.iter().take_while(|&&t| t <= TRACE_SECONDS).count();
    within.max(at_least).min(done_s.len())
}

/// Equal-count batches the timed phase is split into; `frames_per_s` is
/// the median of their rates.
const THROUGHPUT_BATCHES: usize = 5;

/// How one run is invoked.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Where span files go (`None`: keep spans in memory only).
    pub trace_dir: Option<PathBuf>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Frames offered to the system during the timed phase.
    pub attempted: u64,
    /// Of those, frames that failed (no decode, no observation, a
    /// returned error, or a window whose output did not match the
    /// replay).
    pub failed: u64,
    /// Failed output checks; the run is correct iff this is empty.
    pub check_failures: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (tracing on only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// FNV-1a over every synthesised capture sample, identifying the
    /// inputs the seed produced.
    pub inputs_digest: u64,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.check_failures.push(why.into());
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Record the timed phase's speed. Item `i` (a window or a frame)
    /// carried `frames[i]` frames, took `latencies_ms[i]` and completed
    /// `done_s[i]` seconds after the phase began.
    pub fn record_timing(
        &mut self,
        frames: &[u64],
        latencies_ms: &[f64],
        done_s: &[f64],
        items: &str,
        steal: Option<f64>,
    ) {
        let rates = stats::batch_rates(frames, done_s, THROUGHPUT_BATCHES);
        let tail = stats::percentile(latencies_ms, stats::TAIL_PERCENTILE);
        let e = &mut self.end_to_end;
        e.insert("frames_per_s", stats::median(&rates));
        e.insert("latency_p50_ms", stats::median(latencies_ms));
        e.insert("latency_tail_ms", tail);
        let n = latencies_ms.len();
        self.notes.push(format!(
            "frames_per_s is the median of {} batch rates {rates:.1?} ({} frames in {:.2} s)",
            rates.len(),
            frames.iter().sum::<u64>(),
            done_s.last().copied().unwrap_or(0.0)
        ));
        let beyond = n - (stats::TAIL_PERCENTILE / 100.0 * n as f64).ceil() as usize;
        let extreme = stats::tail(latencies_ms).map_or(String::new(), |t| {
            format!(
                "; the highest percentile with ten beyond, p{:.3}, reads {:.4} ms",
                t.percentile, t.value
            )
        });
        self.notes.push(format!(
            "latency_tail_ms is p{} over {n} {items} ({beyond} beyond){extreme}",
            stats::TAIL_PERCENTILE
        ));
        if let Some(steal) = steal {
            self.notes.push(format!(
                "host CPU steal during the timed phase: {:.1}% of the machine's CPU time",
                steal * 100.0
            ));
        }
    }

    /// Note the fractions `processed_frac` and `legit_pass_frac` stand
    /// in for: they are reported as complements because a metric must
    /// never read 0, and a healthy run has no failures.
    pub fn note_complements(&mut self) {
        let e = &self.end_to_end;
        let note = format!(
            "failed_frac {:.6} = 1 - processed_frac; false_alarm_frac {:.6} = 1 - legit_pass_frac",
            1.0 - e.get("processed_frac").copied().unwrap_or(1.0),
            1.0 - e.get("legit_pass_frac").copied().unwrap_or(1.0)
        );
        self.notes.push(note);
    }

    /// The metrics this run reports, `(name, unit, value)`, in the order
    /// of [`END_TO_END`] or [`PER_LAYER`]. A metric the run did not
    /// measure — one of a layer the workload does not run — reads 0.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let (list, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        list.iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The final result line: one JSON object.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload. Errors are reserved for bad invocations; failed
/// output checks land in [`Report::check_failures`].
pub fn run(args: &Args) -> Result<Report, String> {
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(match args.workload.as_str() {
        "office_1024B" => fleet::run(&fleet::Spec::office(), args),
        "campus_attack" => fleet::run(&fleet::Spec::campus(), args),
        "single_ap_18B" => single_ap::run(args),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS
                    .iter()
                    .chain(&EXTRA_WORKLOADS)
                    .copied()
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
    })
}

/// Fisher–Yates shuffle driven by `rng`, so the order is a function of
/// the seed.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..items.len()).rev() {
        let j = ((rng.gen::<f64>() * (i + 1) as f64) as usize).min(i);
        items.swap(i, j);
    }
}

/// Digest of capture samples, bit for bit.
pub fn digest_captures<'a>(captures: impl IntoIterator<Item = &'a sa_linalg::CMat>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in captures {
        for z in c.data() {
            for word in [z.re.to_bits(), z.im.to_bits()] {
                h ^= word;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}
