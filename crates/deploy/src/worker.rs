//! The per-AP worker thread: the DSP half of the pipeline, driven by
//! pre-decoded packets from the coordinator.
//!
//! Deployment realism lives at this layer's edges: the worker stamps
//! its reports with *local* window/sequence labels (its own clock, see
//! [`ApSkew`]) and publishes them over a lossy link model
//! ([`LinkConfig`]) with bounded retransmission. Both are deterministic
//! per AP — the skew is a pure function of the window number and the
//! loss stream is seeded per AP — so a seeded deployment run stays
//! byte-reproducible no matter how the threads interleave.

use crate::config::{ApSkew, LinkConfig};
use crate::faults::{corrupt_payload, payload_checksum, ApFaults, WindowFaults};
use crate::report::{ApPacket, ApStats};
use crate::telemetry::WorkerTap;
use sa_linalg::CMat;
use sa_telemetry::StageTimer;
use secureangle::pipeline::{DecodedPacket, DropReason, FrameVerdict};
use secureangle::spoof::SpoofVerdict;
use secureangle::AccessPoint;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// One pre-decoded capture for a worker: the AP's own buffer plus the
/// shared stage-1 result.
pub(crate) struct WorkerPacket {
    pub buffer: Arc<CMat>,
    pub decoded: Arc<DecodedPacket>,
    pub seq: u64,
}

/// Coordinator → worker messages.
pub(crate) enum WorkerMsg {
    /// Process one window's captures, in `seq` order.
    Window {
        window: u64,
        packets: Vec<WorkerPacket>,
    },
    /// Drain and exit.
    Shutdown,
}

/// Worker → fusion: one message per `(AP, window)` — the whole
/// window's packet reports plus the worker's counters. Batching the
/// reports keeps the channel wake-up cost per *window* instead of per
/// packet, which matters once windows carry dozens of packets.
///
/// The window is identified by the worker's **local** `label` (skewed
/// clock); the coordinator's aligner maps it back to the global window
/// by per-AP FIFO order and checks the label against the learned
/// offset. `lost: true` means the report's packet payload was dropped
/// by the lossy link after exhausting retries — the marker itself
/// models the reliable control path, so windows still close.
pub(crate) struct WindowDone {
    pub ap_id: usize,
    /// Local window label (global + skew).
    pub label: i64,
    /// Local sequence label of the window's first *dispatched* packet
    /// (`None` for an empty window) — lets the aligner recover the
    /// per-window sequence delta exactly.
    pub seq_base: Option<u64>,
    pub packets: Vec<ApPacket>,
    pub stats: ApStats,
    /// The packet payload was lost on the link (packets is empty).
    pub lost: bool,
    /// The worker was wedged for this window (fault-injected stall):
    /// no DSP ran and the payload is empty, but the marker still rides
    /// the live control path so the window closes. A run of these
    /// trips the coordinator's stall watchdog.
    pub stalled: bool,
    /// Report-wire checksum over `(label, seq_base, packets)`, computed
    /// before any injected wire corruption. The coordinator recomputes
    /// and rejects the whole payload on mismatch
    /// ([`ApStats::reports_corrupt`]).
    pub checksum: u64,
    /// Final flush sentinel: the worker processed its whole queue and
    /// is exiting after an ordered shutdown. Carries no window — it
    /// tells the coordinator that any still-outstanding dispatches for
    /// this AP lost their markers (nothing later will ever reveal a
    /// tail gap). On a healthy run nothing is outstanding and the
    /// flush is a no-op.
    pub flush: bool,
}

pub(crate) struct WorkerCfg {
    pub snapshot_cap: usize,
    pub auto_train_signatures: bool,
    pub skew: ApSkew,
    pub link: LinkConfig,
    /// End-of-window marker drop probability
    /// ([`crate::DeployConfig::marker_loss_rate`]); draws come from a
    /// dedicated stream so enabling marker loss never shifts the
    /// report-loss draws.
    pub marker_loss_rate: f64,
    /// Stage-latency histogram handles (`stage.worker_dsp`,
    /// `stage.enforce`, labeled by AP) — `None` unless stage timing is
    /// on, so the disabled path costs one branch per span and reads no
    /// clock. Timing is write-only: nothing downstream ever reads it,
    /// keeping fused output byte-identical with telemetry on or off.
    pub tap: Option<WorkerTap>,
    /// This AP's slice of the deployment's scripted fault plan
    /// ([`crate::faults::FaultPlan`]); empty when no plan is attached.
    /// Every fault is a pure function of the window number, so faulted
    /// runs stay byte-reproducible.
    pub faults: ApFaults,
}

/// Deterministic per-AP loss stream: splitmix64 over `seed ^ ap_id`.
/// Self-contained so the deploy crate keeps its runtime dependency set
/// free of RNG crates (`rand`/`rand_chacha` are dev-dependencies here,
/// used only by tests). The stream advances once per delivery attempt,
/// in the worker's own FIFO order, making loss decisions independent
/// of thread interleaving.
struct LossStream {
    state: u64,
}

impl LossStream {
    fn new(seed: u64, ap_id: usize) -> Self {
        Self {
            state: seed ^ (ap_id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `p` (draws one word even at p = 0 or 1, so
    /// counter-less callers can reason about stream position; callers
    /// short-circuit `p == 0` for byte-compat with reliable links).
    fn dropped(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The worker loop: for each window, stage every pre-decoded capture
/// into a `PacketBatch` (the AoA engine survives across windows via
/// `batch_with_engine`/`into_engine`), run the DSP pass, enforce, and
/// publish the window's reports to fusion. The publish path models the
/// lossy report link: each delivery attempt may drop (deterministic
/// per-AP stream), the worker retries up to the configured budget, and
/// an exhausted budget abandons the payload — the end-of-window marker
/// still goes out so the coordinator never stalls on this AP. Returns
/// the AP (with its trained state) and the run totals when shut down.
pub(crate) fn run_worker(
    ap_id: usize,
    mut ap: AccessPoint,
    cfg: WorkerCfg,
    rx: Receiver<WorkerMsg>,
    tx: SyncSender<WindowDone>,
) -> (AccessPoint, ApStats) {
    let mut engine = None;
    let mut totals = ApStats::default();
    let mut loss = LossStream::new(cfg.link.seed, ap_id);
    // Marker loss draws from its own stream (seed mixed with a fixed
    // tag) so the report-loss sequence is identical with it on or off.
    let mut marker_loss = LossStream::new(cfg.link.seed ^ 0x6d61_726b_6572, ap_id);
    while let Ok(msg) = rx.recv() {
        let (window, packets) = match msg {
            WorkerMsg::Shutdown => {
                // Ordered exit: everything queued before the Shutdown
                // was processed (FIFO), so flush tells the coordinator
                // any windows it is still waiting on lost their
                // markers for good.
                let _ = tx.send(WindowDone {
                    ap_id,
                    label: 0,
                    seq_base: None,
                    packets: Vec::new(),
                    stats: ApStats::default(),
                    lost: false,
                    stalled: false,
                    checksum: 0,
                    flush: true,
                });
                break;
            }
            WorkerMsg::Window { window, packets } => (window, packets),
        };
        // Scripted faults for this window: a pure function of the plan
        // and the window number, so nothing here depends on scheduling.
        let wf = if cfg.faults.is_empty() {
            WindowFaults::default()
        } else {
            cfg.faults.at(window)
        };
        if wf.crash {
            // Die mid-window: no payload, no marker, thread gone — the
            // coordinator's dead-worker machinery notices the hangup.
            return (ap, totals);
        }
        let mut stats = ApStats {
            windows: 1,
            ..ApStats::default()
        };
        let label = cfg.skew.window_label(window) + wf.extra_label;
        let seq_base = packets.first().map(|p| cfg.skew.seq_label(p.seq));

        let mut reports = Vec::new();
        if wf.stall {
            // Wedged DSP: the window's captures are dropped on the
            // floor, but the marker still goes out (flagged stalled) on
            // the live control path so the window closes.
            stats.windows_stalled += 1;
        } else {
            // DSP pass over the whole window through one batch; the
            // engine (manifold, steering table, eigensolver buffers)
            // carries over from the previous window.
            let mut batch = match engine.take() {
                Some(e) => ap.batch_with_engine(e),
                None => ap.batch(),
            };
            batch.set_snapshot_cap(cfg.snapshot_cap);
            let mut seqs = Vec::with_capacity(packets.len());
            for p in &packets {
                stats.packets += 1;
                match batch.push_predecoded(&p.buffer, &p.decoded) {
                    Ok(()) => seqs.push(p.seq),
                    Err(_) => stats.observe_failures += 1,
                }
            }
            let observations = {
                let _span = StageTimer::start(cfg.tap.as_ref().map(|t| &*t.dsp));
                batch.process()
            };
            engine = Some(batch.into_engine());

            // Enforcement + report assembly, in seq order. Reports
            // carry the worker's local labels — the coordinator's
            // aligner maps them back to global numbering.
            reports.reserve(observations.len());
            for (obs, &seq) in observations.iter().zip(&seqs) {
                stats.observed += 1;
                let verdict = {
                    let _span = StageTimer::start(cfg.tap.as_ref().map(|t| &*t.enforce));
                    ap.enforce(obs)
                };
                match verdict {
                    FrameVerdict::Admit { spoof } => {
                        stats.admitted += 1;
                        if cfg.auto_train_signatures && spoof == SpoofVerdict::Untrained {
                            if let Some(frame) = &obs.frame {
                                ap.train_client(frame.src, obs);
                                stats.trained += 1;
                            }
                        }
                    }
                    FrameVerdict::Drop(DropReason::SpoofSuspected { .. })
                    | FrameVerdict::Drop(DropReason::Quarantined) => stats.dropped_spoof += 1,
                    FrameVerdict::Drop(_) => stats.dropped_other += 1,
                }
                let local_seq = cfg.skew.seq_label(seq);
                let report = obs.bearing_report(local_seq);
                if report.is_some() {
                    stats.bearings += 1;
                }
                reports.push(ApPacket {
                    ap_id,
                    window: label.max(0) as u64,
                    seq: local_seq,
                    mac: obs.frame.as_ref().map(|f| f.src),
                    report,
                    bearing_deg: obs.bearing_deg,
                    rss_db: obs.rss_db,
                    verdict,
                });
            }
        }

        // Byzantine bias: the AP itself lies about its bearings, so the
        // bias lands *before* the checksum (the wire bytes are "valid")
        // and only the cross-AP health score can catch it.
        if wf.bias_rad != 0.0 {
            for p in &mut reports {
                p.bearing_deg += wf.bias_rad.to_degrees();
                if let Some(r) = &mut p.report {
                    r.azimuth += wf.bias_rad;
                }
            }
        }

        // Marker loss: the whole end-of-window message vanishes — the
        // coordinator only learns of it from a later marker's gap (or
        // the final flush). The window's work still happened, so its
        // stats fold into the run totals the worker hands back at exit.
        if cfg.marker_loss_rate > 0.0 && marker_loss.dropped(cfg.marker_loss_rate) {
            stats.markers_lost += 1;
            totals.absorb(&stats);
            continue;
        }

        // Lossy-link publish: roll each delivery attempt; an exhausted
        // retry budget abandons the payload but still sends the marker.
        let mut payload = Some(reports);
        if cfg.link.loss_rate > 0.0 {
            for attempt in 0..=cfg.link.retry_limit {
                if loss.dropped(cfg.link.loss_rate) {
                    stats.report_drops += 1;
                    if attempt < cfg.link.retry_limit {
                        stats.report_retransmits += 1;
                    } else {
                        stats.reports_lost += 1;
                        payload = None;
                    }
                } else {
                    break;
                }
            }
        }
        // Burst link loss: the whole payload (retries and all) is gone
        // for the faulted span; the marker still closes the window.
        if wf.burst_loss && payload.is_some() {
            stats.reports_lost += 1;
            payload = None;
        }
        let lost = payload.is_none();
        let mut packets_out = payload.unwrap_or_default();
        // Checksum the payload as sent, then apply any injected wire
        // corruption *after* — the coordinator's recompute catches it.
        let checksum = payload_checksum(label, seq_base, &packets_out);
        if let Some(mode) = wf.corrupt {
            corrupt_payload(&mut packets_out, mode);
        }
        let done = WindowDone {
            ap_id,
            label,
            seq_base,
            packets: packets_out,
            stats,
            lost,
            stalled: wf.stall,
            checksum,
            flush: false,
        };
        let delivered = match tx.try_send(done) {
            Ok(()) => true,
            Err(TrySendError::Full(mut msg)) => {
                msg.stats.backpressure_events += 1;
                stats.backpressure_events += 1;
                tx.send(msg).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
        totals.absorb(&stats);
        if !delivered {
            break;
        }
    }
    (ap, totals)
}
