//! Accounting shared by the workloads: the replay's counters, set-up
//! times, and the per-layer metrics a traced replay yields.

use crate::kernels::{DecodeSplit, DspSplit};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{Args, Report};
use secureangle::pipeline::AccessPoint;
use std::time::Duration;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// An untrained copy of an AP: same configuration, ACL and calibration.
/// Taken before the AP sees traffic, so it starts in the same state.
pub fn pristine_copy(ap: &AccessPoint) -> AccessPoint {
    let mut copy = AccessPoint::new(ap.config().clone(), ap.acl.clone());
    copy.set_calibration(ap.calibration().clone());
    copy
}

/// Set-up time split, seconds unless named otherwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Testbed build (APs placed and calibrated).
    pub build_s: f64,
    /// Traffic synthesis.
    pub synth_s: f64,
    /// Per-AP captures synthesised.
    pub captures: u64,
    /// `Deployment::with_skews` (0 without a deployment).
    pub new_ms: f64,
    /// Warm-up: windows through the deployment, or the single AP's
    /// training stage.
    pub warmup_ms: f64,
}

impl SetupTimes {
    /// Whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.synth_s + (self.new_ms + self.warmup_ms) / 1e3
    }

    /// Per-field medians over several set-ups.
    pub fn median_of(all: &[SetupTimes]) -> SetupTimes {
        let m = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            build_s: m(|s| s.build_s),
            synth_s: m(|s| s.synth_s),
            captures: all.last().map_or(0, |s| s.captures),
            new_ms: m(|s| s.new_ms),
            warmup_ms: m(|s| s.warmup_ms),
        }
    }

    /// Report the set-up layer's metrics.
    pub fn record(&self, report: &mut Report) {
        let l = &mut report.per_layer;
        l.insert("testbed.build_s", self.build_s);
        l.insert("testbed.synth_s", self.synth_s);
        l.insert(
            "testbed.synth_us_per_capture",
            ratio(self.synth_s * 1e6, self.captures as f64),
        );
        l.insert("deploy.new_ms", self.new_ms);
        l.insert("deploy.warmup_ms", self.warmup_ms);
    }
}

/// Counters the replay accumulates from the outcomes of public calls.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counts {
    pub(crate) frames: u64,
    /// Transmissions that failed decode or failed to yield an
    /// observation at some AP.
    pub(crate) failed_frames: u64,
    pub(crate) decode_failures: u64,
    pub(crate) fallbacks: u64,
    pub(crate) packets: u64,
    pub(crate) observe_failures: u64,
    pub(crate) enforce_calls: u64,
    pub(crate) admitted: u64,
    pub(crate) spoof_dropped: u64,
    pub(crate) acl_denied: u64,
    pub(crate) trained: u64,
    pub(crate) windows: u64,
    pub(crate) bearings: u64,
    pub(crate) fixes: u64,
    pub(crate) localize_failures: u64,
    pub(crate) consensus_flags: u64,
}

impl Counts {
    /// Add the stage-1 and DSP counters of one staged window.
    pub(crate) fn add_staged(&mut self, other: &Counts) {
        self.frames += other.frames;
        self.failed_frames += other.failed_frames;
        self.decode_failures += other.decode_failures;
        self.fallbacks += other.fallbacks;
        self.packets += other.packets;
        self.observe_failures += other.observe_failures;
    }
}

/// Record the per-layer metrics of the layers a replay runs — decode,
/// dsp, enforce, and fusion when the trace has fusion spans — plus the
/// trace's own coverage and overhead. Returns the replay's layer busy
/// time, microseconds: the layer-level spans directly under each
/// replayed window.
pub(crate) fn record_replay_layers(
    report: &mut Report,
    tracer: &Tracer,
    c: &Counts,
    decode_split: &DecodeSplit,
    dsp_split: &DspSplit,
    traced_wall: Duration,
    untraced_wall: Duration,
) -> f64 {
    let totals = tracer.totals();
    let top = |name: &str| totals.get(name).map_or(0, |t| t.top_ns) as f64 / 1e3;
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64 / 1e3;
    let (decode, dsp, enforce, fusion) = (top("decode"), top("dsp"), top("enforce"), top("fusion"));
    let busy = decode + dsp + enforce + fusion;

    let l = &mut report.per_layer;
    l.insert("decode.frames", c.frames as f64);
    l.insert("decode.failures", c.decode_failures as f64);
    l.insert("decode.fallbacks", c.fallbacks as f64);
    l.insert("decode.us_per_frame", ratio(decode, c.frames as f64));
    let per_frame = |ns: u64| ratio(ns as f64 / 1e3, decode_split.frames as f64);
    let detect = per_frame(decode_split.detect_ns);
    l.insert("decode.detect_us_per_frame", detect);
    l.insert(
        "decode.ofdm_us_per_frame",
        (per_frame(decode_split.receiver_ns) - detect).max(0.0),
    );
    l.insert("decode.mac_us_per_frame", per_frame(decode_split.mac_ns));
    l.insert("decode.share", ratio(decode, busy));

    let packets = c.packets as f64;
    l.insert("dsp.packets", packets);
    l.insert("dsp.observe_failures", c.observe_failures as f64);
    l.insert("dsp.us_per_packet", ratio(dsp, packets));
    l.insert(
        "dsp.extract_us_per_packet",
        ratio(total("dsp.extract"), packets),
    );
    let per_packet = |ns: u64| ratio(ns as f64 / 1e3, dsp_split.packets as f64);
    let kernels = [
        (
            "dsp.calibrate_us_per_packet",
            per_packet(dsp_split.calibrate_ns),
        ),
        (
            "dsp.covariance_us_per_packet",
            per_packet(dsp_split.covariance_ns),
        ),
        ("dsp.aoa_us_per_packet", per_packet(dsp_split.aoa_ns)),
        (
            "dsp.signature_us_per_packet",
            per_packet(dsp_split.signature_ns),
        ),
    ];
    let kernel_sum: f64 = kernels.iter().map(|(_, v)| v).sum();
    l.extend(kernels);
    l.insert(
        "dsp.unattributed_us_per_packet",
        ratio(total("dsp.process"), packets) - kernel_sum,
    );
    l.insert("dsp.share", ratio(dsp, busy));

    l.insert("enforce.calls", c.enforce_calls as f64);
    l.insert(
        "enforce.us_per_call",
        ratio(enforce, c.enforce_calls as f64),
    );
    l.insert("enforce.admitted", c.admitted as f64);
    l.insert("enforce.spoof_dropped", c.spoof_dropped as f64);
    l.insert("enforce.acl_denied", c.acl_denied as f64);
    l.insert("enforce.trained", c.trained as f64);
    l.insert("enforce.share", ratio(enforce, busy));

    if totals.contains_key("fusion") {
        l.insert("fusion.windows", c.windows as f64);
        l.insert("fusion.us_per_window", ratio(fusion, c.windows as f64));
        l.insert("fusion.bearings", c.bearings as f64);
        l.insert("fusion.fixes", c.fixes as f64);
        l.insert("fusion.localize_failures", c.localize_failures as f64);
        l.insert("fusion.consensus_flags", c.consensus_flags as f64);
        l.insert("fusion.share", ratio(fusion, busy));
    }

    let traced_s = traced_wall.as_secs_f64();
    let untraced_s = untraced_wall.as_secs_f64();
    l.insert("trace.coverage", ratio(busy / 1e6, traced_s));
    l.insert(
        "trace.overhead_frac",
        ratio(traced_s - untraced_s, untraced_s),
    );
    report.notes.push(format!(
        "traced replay: {} frames serially in {traced_s:.3} s; layer busy time {:.3} s",
        c.frames,
        busy / 1e6
    ));
    busy
}

/// Write the spans of a traced run next to the build, when asked to.
pub fn write_spans(report: &mut Report, args: &Args, workload: &str, tracer: &Tracer) {
    let Some(dir) = &args.trace_dir else { return };
    let path = dir.join(format!("{workload}-seed{}.spans.tsv", args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("could not write spans to {}: {e}", path.display())),
    }
}
