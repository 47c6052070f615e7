//! Deployment-side telemetry glue: the shared registry/flight-recorder
//! bundle threaded through the coordinator, workers, stage-1 decode
//! and fusion stage, plus the rich per-client window event the flight
//! recorder keeps.
//!
//! Everything here is **strictly out-of-band**: stage timers record
//! wall-clock latencies but nothing ever reads them back into control
//! flow, counters are mirrored *from* the deterministic
//! [`crate::ApStats`]/[`crate::DeployMetrics`] sources at snapshot time
//! (never the other way around), and the flight recorder only copies
//! evidence fusion already computed. Disabling telemetry
//! ([`sa_telemetry::TelemetryConfig::disabled`], the default) reduces
//! every tap to a `None` branch — fused output is byte-identical either
//! way, pinned by `tests/proptest_telemetry.rs`.

use sa_mac::MacAddr;
use sa_telemetry::{FlightRecorder, Histogram, Registry, TelemetryConfig};
use secureangle::spoof::ConsensusVerdict;
use std::sync::Arc;

/// One AP's bearing contribution to a recorded window — the consensus
/// inputs an operator wants to see in a post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub struct BearingEvidence {
    /// The contributing AP's stable id.
    pub ap_id: usize,
    /// Global azimuth, radians.
    pub azimuth_rad: f64,
    /// The bearing's confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Everything the fusion stage knew about one client in one window —
/// the flight recorder's event type, kept per client so a later spoof
/// verdict can be explained from recorded evidence
/// ([`crate::Deployment::explain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientWindowEvent {
    /// The fused (global) window number.
    pub window: u64,
    /// Live APs expected when the window was submitted.
    pub expected_aps: usize,
    /// Of those, how many were *known* missing (lost reports, skew
    /// rejections, lost markers, dead workers) — the degraded-close
    /// reason, and what earned the consensus slack.
    pub missing_aps: usize,
    /// APs excluded from this window's fusion by the health layer's
    /// quarantine ([`crate::HealthConfig`]) — withheld evidence, not
    /// link loss, so it earns no consensus slack.
    pub quarantined_aps: usize,
    /// Distinct APs that contributed a bearing.
    pub n_aps: usize,
    /// Per-bearing evidence, in `(ap, seq)` order.
    pub bearings: Vec<BearingEvidence>,
    /// The fused fix position `(x, y)`, meters, if geometry allowed one.
    pub fix: Option<(f64, f64)>,
    /// RMS bearing-line disagreement of the fix, meters (`0` when no
    /// fix).
    pub residual_m: f64,
    /// The trained reference position the consensus compared against,
    /// *at check time* (before any auto-training this window did).
    pub reference: Option<(f64, f64)>,
    /// APs whose own enforcement admitted the client's frame(s).
    pub admitted_aps: usize,
    /// APs whose own enforcement flagged a spoof.
    pub flagged_aps: usize,
    /// The cross-AP consensus verdict.
    pub verdict: ConsensusVerdict,
}

impl ClientWindowEvent {
    /// Render the event as operator-facing post-mortem lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "window {:>4}: {}/{} APs heard",
            self.window, self.n_aps, self.expected_aps
        );
        if self.missing_aps > 0 {
            let _ = write!(out, " ({} known missing)", self.missing_aps);
        }
        if self.quarantined_aps > 0 {
            let _ = write!(out, " ({} quarantined)", self.quarantined_aps);
        }
        let _ = writeln!(
            out,
            ", enforcement {} admit / {} flag",
            self.admitted_aps, self.flagged_aps
        );
        for b in &self.bearings {
            let _ = writeln!(
                out,
                "  ap{:<3} azimuth {:>7.2} deg  confidence {:.2}",
                b.ap_id,
                b.azimuth_rad.to_degrees(),
                b.confidence
            );
        }
        match self.fix {
            Some((x, y)) => {
                let _ = writeln!(
                    out,
                    "  fix ({x:.2}, {y:.2}) m, residual {:.2} m",
                    self.residual_m
                );
            }
            None => {
                let _ = writeln!(out, "  no fix");
            }
        }
        match self.reference {
            Some((x, y)) => {
                let _ = writeln!(out, "  reference ({x:.2}, {y:.2}) m");
            }
            None => {
                let _ = writeln!(out, "  reference untrained");
            }
        }
        let _ = writeln!(out, "  verdict: {}", self.verdict.describe());
        out
    }
}

/// The telemetry bundle a [`crate::Deployment`] owns when
/// [`crate::DeployConfig::telemetry`] is enabled, shared (`Arc`) with
/// the stage-1 decode, worker threads and fusion stage.
pub(crate) struct DeployTelemetry {
    pub cfg: TelemetryConfig,
    pub registry: Registry,
    pub recorder: FlightRecorder<MacAddr, ClientWindowEvent>,
}

impl DeployTelemetry {
    /// Build the bundle — `None` when telemetry is disabled, which is
    /// what reduces every downstream tap to a single branch.
    pub fn new(cfg: TelemetryConfig) -> Option<Arc<Self>> {
        if !cfg.enabled {
            return None;
        }
        let depth = if cfg.flight_recorder {
            cfg.recorder_depth
        } else {
            0
        };
        Some(Arc::new(Self {
            cfg,
            registry: Registry::new(),
            recorder: FlightRecorder::new(depth, cfg.recorder_clients),
        }))
    }

    /// A labelled stage histogram handle, or `None` when stage timing
    /// is off (so the caller's span guard compiles down to a branch).
    pub fn stage(&self, name: &str, label: &str, idx: usize) -> Option<Arc<Histogram>> {
        self.cfg
            .stage_timing
            .then(|| self.registry.histogram(name, &[(label, &idx.to_string())]))
    }

    /// The flight recorder, when event recording is on.
    pub fn recorder(&self) -> Option<&FlightRecorder<MacAddr, ClientWindowEvent>> {
        self.cfg.flight_recorder.then_some(&self.recorder)
    }
}

/// The two stage-histogram handles one AP worker thread records into.
pub(crate) struct WorkerTap {
    /// `stage.worker_dsp`: the whole calibrate→cov→MUSIC batch pass.
    pub dsp: Arc<Histogram>,
    /// `stage.enforce`: one per-observation signature/ACL enforcement.
    pub enforce: Arc<Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_bundle() {
        assert!(DeployTelemetry::new(TelemetryConfig::disabled()).is_none());
        let t = DeployTelemetry::new(TelemetryConfig::full()).expect("enabled");
        assert!(t.stage("stage.decode", "shard", 0).is_some());
        assert!(t.recorder().is_some());
        let counters_only = DeployTelemetry::new(TelemetryConfig::counters_only()).unwrap();
        assert!(counters_only.stage("stage.decode", "shard", 0).is_none());
        assert!(counters_only.recorder().is_none());
    }

    #[test]
    fn event_render_reads_like_a_post_mortem() {
        let e = ClientWindowEvent {
            window: 7,
            expected_aps: 4,
            missing_aps: 1,
            quarantined_aps: 1,
            n_aps: 3,
            bearings: vec![BearingEvidence {
                ap_id: 2,
                azimuth_rad: 1.0,
                confidence: 0.91,
            }],
            fix: Some((4.0, 6.0)),
            residual_m: 0.08,
            reference: Some((4.0, 6.1)),
            admitted_aps: 3,
            flagged_aps: 0,
            verdict: ConsensusVerdict::Consistent {
                displacement_m: 0.1,
            },
        };
        let text = e.render();
        assert!(text.contains("window    7"));
        assert!(text.contains("3/4 APs"));
        assert!(text.contains("1 known missing"));
        assert!(text.contains("1 quarantined"));
        assert!(text.contains("ap2"));
        assert!(text.contains("fix (4.00, 6.00)"));
        assert!(text.contains("reference (4.00, 6.10)"));
        assert!(text.contains("consistent"));
    }
}
