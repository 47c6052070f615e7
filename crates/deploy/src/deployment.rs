//! The deployment coordinator: N AP worker threads, a stage-1 decode
//! fanned out over scoped threads, skew-tolerant window scheduling, AP
//! churn, and the fusion drain.
//!
//! Windows close on end-of-window markers (never wall clocks), but the
//! markers are no longer assumed perfect: workers stamp them with their
//! own skewed clocks (aligned back by [`crate::align::SkewAligner`]),
//! their payloads may be lost on the lossy report link (the window
//! closes anyway, with that AP's bearings missing), the markers
//! *themselves* may be lost (a later marker's gap — or the worker's
//! final flush — reveals it, see
//! [`crate::DeployConfig::marker_timeout_windows`]), and workers may
//! join, leave, or die mid-run (a window never waits on an AP that is
//! no longer live). All of it is deterministic for a seeded run, at
//! any decode shard count.

use crate::align::SkewAligner;
use crate::config::{ApSkew, DeployConfig, DeployError};
use crate::faults::payload_checksum;
use crate::fusion::Fusion;
use crate::health::{ApWindowEvidence, FleetHealth, HealthAction};
use crate::report::{ApStats, DeployMetrics, DeploymentReport, FusedWindow};
use crate::telemetry::{DeployTelemetry, WorkerTap};
use crate::worker::{run_worker, WindowDone, WorkerCfg, WorkerMsg, WorkerPacket};
use sa_channel::geom::Point;
use sa_linalg::CMat;
use sa_mac::MacAddr;
use sa_phy::Modulation;
use sa_telemetry::{Histogram, StageTimer, TelemetrySnapshot};
use secureangle::pipeline::{decode_reference, DecodedPacket};
use secureangle::AccessPoint;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One client transmission as every live AP heard it: `per_ap[k]` is
/// the `k`-th *live* AP's multi-antenna capture of the same frame.
/// Captures are reference-counted so staging a transmission is cheap.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// One capture per live AP, in live-AP order.
    pub per_ap: Vec<Arc<CMat>>,
}

impl Transmission {
    /// Wrap raw per-AP captures (e.g. from
    /// `sa_testbed::Testbed::transmission`).
    pub fn new(captures: Vec<CMat>) -> Self {
        Self {
            per_ap: captures.into_iter().map(Arc::new).collect(),
        }
    }
}

/// One AP's slot in the deployment. AP ids are stable for the life of
/// the deployment and never reused; a removed or crashed AP keeps its
/// slot (for stats attribution) with `alive = false`.
struct WorkerSlot {
    tx: Option<SyncSender<WorkerMsg>>,
    join: Option<JoinHandle<(AccessPoint, ApStats)>>,
    alive: bool,
    /// The worker's thread has exited and its buffered reports have
    /// been salvaged, but its *membership* has not ended yet. Hangups
    /// are noticed at racy points (timeout scans, failed sends), so
    /// noticing only sets this flag; the membership end happens in
    /// [`Deployment::collect_window`] at the first window the worker
    /// failed to report, a deterministic point in window order. A
    /// worker that exited normally may also be flagged here; since all
    /// its windows closed, the flag is then inert.
    hung: bool,
    /// Run totals captured when the worker's membership ended early
    /// (removed, lost or reaped); `None` while running or if the
    /// thread panicked.
    final_stats: Option<ApStats>,
}

impl WorkerSlot {
    /// The worker's thread is still running.
    fn running(&self) -> bool {
        self.join.as_ref().is_some_and(|j| !j.is_finished())
    }
}

/// Why an AP's membership ended — decides the one counter
/// [`Deployment::end_membership`] bumps.
enum Departure {
    /// The worker thread died (crash, panic):
    /// [`DeployMetrics::worker_losses`].
    Lost,
    /// The stall watchdog reaped it: [`DeployMetrics::watchdog_reaps`].
    Watchdog,
    /// [`Deployment::remove_ap`]: [`DeployMetrics::aps_removed`] if the
    /// worker drained and exited cleanly, otherwise a loss.
    Removed,
}

/// Reports buffered for one not-yet-closed window — one cell of the
/// coordinator's reorder buffer.
#[derive(Default)]
struct WindowBin {
    /// AP ids that were live when the window was submitted: the close
    /// condition. An AP that dies afterward stops being waited on.
    expected: Vec<usize>,
    /// AP ids whose end-of-window marker has arrived.
    reported: Vec<usize>,
    packets: Vec<crate::report::ApPacket>,
    end_stats: Vec<(usize, ApStats)>,
    /// The window's degradation, by AP: which APs lost their payload,
    /// were skew-rejected, lost their end-of-window marker, failed the
    /// wire checksum, or arrived stalled. Sets of AP ids (arrival
    /// order; consumers treat them as sets). A marker-lost AP (revealed
    /// by a later marker's gap, or by the worker's final flush) counts
    /// as reported — the window closes — but contributed nothing.
    lost_ap_ids: Vec<usize>,
    skew_ap_ids: Vec<usize>,
    marker_lost_ap_ids: Vec<usize>,
    corrupt_ap_ids: Vec<usize>,
    stalled_ap_ids: Vec<usize>,
    /// Packets withheld from fusion because their AP was quarantined
    /// when the window closed — still evaluated against the fused fixes
    /// for the quarantined AP's clean-streak readmission decision.
    withheld: Vec<crate::report::ApPacket>,
}

/// A running multi-AP deployment (see the crate docs for the data
/// flow). Construction spawns one worker thread per AP; dropping
/// without [`Deployment::finish`] shuts the workers down but discards
/// their state.
///
/// ```no_run
/// use sa_deploy::{ApSkew, DeployConfig, Deployment, LinkConfig, Transmission};
/// # fn aps() -> Vec<secureangle::AccessPoint> { Vec::new() }
/// # fn spare_ap() -> secureangle::AccessPoint { unimplemented!() }
/// # fn captures(_n: usize) -> Vec<Transmission> { Vec::new() }
///
/// // A degraded-mode deployment: 10% report loss with 3 retransmits,
/// // tolerate up to ±2 windows of per-AP clock skew.
/// let cfg = DeployConfig {
///     link: LinkConfig { loss_rate: 0.10, retry_limit: 3, seed: 7 },
///     max_skew_windows: 2,
///     ..DeployConfig::default()
/// };
/// let skews = vec![ApSkew { window_offset: 2, seq_offset: 40, drift_ppw: 0.0 }; 4];
/// let mut deployment = Deployment::with_skews(aps(), cfg, skews);
///
/// deployment.submit_window(captures(deployment.live_aps())).unwrap();
/// let fused = deployment.collect_window().unwrap();
/// assert!(fused.lost_reports <= fused.expected_aps);
///
/// // Mid-run churn: a new AP joins (consensus re-baselines), a flaky
/// // one is pulled. Windows already in flight still close.
/// let new_id = deployment.add_ap(spare_ap());
/// let _flaky = deployment.remove_ap(0).unwrap();
/// assert!(new_id > 0);
///
/// let (report, _aps) = deployment.finish();
/// println!("{} windows, {} degraded", report.metrics.windows,
///          report.metrics.degraded_windows);
/// ```
pub struct Deployment {
    cfg: DeployConfig,
    modulation: Modulation,
    /// Positions by stable AP id (retired ids keep their entry).
    ap_positions: Vec<Point>,
    slots: Vec<WorkerSlot>,
    /// One `stage.decode{shard=i}` handle per stage-1 decode run
    /// ([`DeployConfig::decode_shards`] of them, at least one); `None`
    /// entries unless stage timing is on. The length sets the fan-out.
    decode_hists: Vec<Option<Arc<Histogram>>>,
    up_tx: SyncSender<WindowDone>,
    up_rx: Receiver<WindowDone>,
    fusion: Fusion,
    aligner: SkewAligner,
    /// The AP immune system: per-AP scores, quarantine membership, and
    /// the stall watchdog. Inert when [`crate::HealthConfig::enabled`]
    /// is off (the default).
    health: FleetHealth,
    /// Windows submitted but not yet collected, in order.
    pending: VecDeque<u64>,
    next_window: u64,
    bins: BTreeMap<u64, WindowBin>,
    metrics: DeployMetrics,
    per_ap_window_stats: Vec<ApStats>,
    /// The shared telemetry bundle; `None` when
    /// [`DeployConfig::telemetry`] is disabled (the default).
    telemetry: Option<Arc<DeployTelemetry>>,
    /// Periodic snapshot hook: `(every_windows, callback)`, fired from
    /// [`Deployment::collect_window`].
    dump_hook: Option<(u64, DumpHook)>,
}

/// Boxed callback for [`Deployment::set_dump_hook`].
type DumpHook = Box<dyn FnMut(&TelemetrySnapshot) + Send>;

impl Deployment {
    /// Spawn a deployment over the given APs with synchronized clocks.
    /// All APs must share one modulation (the shared decode runs once
    /// per transmission) and have a circular array if their bearings
    /// are to contribute global azimuths. Panics on an empty AP list or
    /// mixed modulations.
    pub fn new(aps: Vec<AccessPoint>, cfg: DeployConfig) -> Self {
        let skews = vec![ApSkew::NONE; aps.len()];
        Self::with_skews(aps, cfg, skews)
    }

    /// [`Deployment::new`] with a per-AP clock-skew model: `skews[k]`
    /// is AP `k`'s [`ApSkew`]. Panics if the lengths differ.
    pub fn with_skews(aps: Vec<AccessPoint>, cfg: DeployConfig, skews: Vec<ApSkew>) -> Self {
        assert!(!aps.is_empty(), "deployment needs at least one AP");
        assert_eq!(aps.len(), skews.len(), "one ApSkew per AP required");
        let modulation = aps[0].config().modulation;
        assert!(
            aps.iter().all(|ap| ap.config().modulation == modulation),
            "deployment APs must share one modulation"
        );
        assert!(
            cfg.marker_loss_rate == 0.0 || cfg.marker_timeout_windows >= 1,
            "marker_loss_rate > 0 requires marker_timeout_windows >= 1: without \
             gap detection a lost end-of-window marker stalls its window forever"
        );
        let ap_positions: Vec<Point> = aps.iter().map(|ap| ap.config().position).collect();
        let n_aps = aps.len();
        let telemetry = DeployTelemetry::new(cfg.telemetry);
        let decode_hists = (0..cfg.decode_shards.max(1))
            .map(|shard| {
                telemetry
                    .as_ref()
                    .and_then(|t| t.stage("stage.decode", "shard", shard))
            })
            .collect();

        let (up_tx, up_rx) = sync_channel(cfg.channel_capacity.max(1));
        let mut aligner = SkewAligner::new(cfg.max_skew_windows);
        let mut health = FleetHealth::new(cfg.health);
        let slots = aps
            .into_iter()
            .zip(skews)
            .enumerate()
            .map(|(ap_id, (ap, skew))| {
                aligner.add_ap();
                health.add_ap();
                let tap = worker_tap(telemetry.as_ref(), ap_id);
                spawn_worker(ap_id, ap, &cfg, skew, up_tx.clone(), tap)
            })
            .collect();

        let mut fusion = Fusion::new(ap_positions.clone(), cfg.clone());
        if let Some(t) = &telemetry {
            fusion.attach_telemetry(t);
        }
        Self {
            fusion,
            telemetry,
            dump_hook: None,
            cfg,
            health,
            modulation,
            ap_positions,
            slots,
            decode_hists,
            up_tx,
            up_rx,
            aligner,
            pending: VecDeque::new(),
            next_window: 0,
            bins: BTreeMap::new(),
            metrics: DeployMetrics::default(),
            per_ap_window_stats: vec![ApStats::default(); n_aps],
        }
    }

    /// Number of *live* APs — the capture count
    /// [`Deployment::submit_window`] expects per transmission.
    pub fn live_aps(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Size of the stable AP id space (live + removed + lost APs).
    pub fn n_aps(&self) -> usize {
        self.slots.len()
    }

    /// The ids of the live APs, ascending — `live_ap_ids()[k]` is the
    /// AP that hears `Transmission::per_ap[k]`.
    pub fn live_ap_ids(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(id, _)| id)
            .collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeployConfig {
        &self.cfg
    }

    /// AP positions, by stable AP id (including retired APs).
    pub fn ap_positions(&self) -> &[Point] {
        &self.ap_positions
    }

    /// Running deployment-wide counters.
    pub fn metrics(&self) -> &DeployMetrics {
        &self.metrics
    }

    /// Per-AP statistics accumulated so far (from closed windows only;
    /// the final totals come back in the [`DeploymentReport`]).
    pub fn per_ap_stats(&self) -> &[ApStats] {
        &self.per_ap_window_stats
    }

    /// Train a client's consensus reference position by hand (see
    /// [`Fusion::train_reference`]).
    pub fn train_reference(&mut self, mac: MacAddr, position: Point) {
        self.fusion.train_reference(mac, position);
    }

    /// A client's trained consensus reference position.
    pub fn reference(&self, mac: &MacAddr) -> Option<Point> {
        self.fusion.reference(mac)
    }

    /// Add an AP to the running deployment (synchronized clock). The
    /// new AP participates from the next submitted window; windows
    /// already in flight close with their original membership. Returns
    /// the new AP's stable id. Consensus references re-baseline: fused
    /// geometry shifts with membership, so every client retrains its
    /// reference from its next clean fix.
    pub fn add_ap(&mut self, ap: AccessPoint) -> usize {
        self.add_ap_with_skew(ap, ApSkew::NONE)
    }

    /// [`Deployment::add_ap`] with a clock-skew model for the joiner.
    /// Panics if the AP's modulation differs from the deployment's.
    pub fn add_ap_with_skew(&mut self, ap: AccessPoint, skew: ApSkew) -> usize {
        assert_eq!(
            ap.config().modulation,
            self.modulation,
            "deployment APs must share one modulation"
        );
        let ap_id = self.slots.len();
        self.aligner.add_ap();
        self.health.add_ap();
        self.ap_positions.push(ap.config().position);
        self.fusion.add_ap(ap.config().position);
        self.per_ap_window_stats.push(ApStats::default());
        let tap = worker_tap(self.telemetry.as_ref(), ap_id);
        self.slots.push(spawn_worker(
            ap_id,
            ap,
            &self.cfg,
            skew,
            self.up_tx.clone(),
            tap,
        ));
        self.metrics.aps_added += 1;
        self.fusion.rebaseline();
        ap_id
    }

    /// Remove a live AP from the running deployment, returning it with
    /// its trained state. The worker first drains every window already
    /// dispatched to it — a mid-run removal never stalls or abandons an
    /// in-flight window — then shuts down. Windows submitted afterward
    /// expect one fewer capture. Consensus references re-baseline.
    ///
    /// Errors: [`DeployError::UnknownAp`] if the id is not live,
    /// [`DeployError::LastAp`] if this is the last live AP, and
    /// [`DeployError::WorkerLost`] if the worker dies while draining.
    pub fn remove_ap(&mut self, ap_id: usize) -> Result<AccessPoint, DeployError> {
        if !self.slots.get(ap_id).is_some_and(|s| s.alive) {
            return Err(DeployError::UnknownAp { ap_id });
        }
        if self.live_aps() == 1 {
            return Err(DeployError::LastAp);
        }
        // Shutdown first, then drain — the order matters under marker
        // loss: its dispatched-but-unreported windows resolve either by
        // their markers (FIFO: everything queued processes before the
        // Shutdown), by a later marker's gap, or by the final flush
        // revealing tail losses. A drain-first order would wait forever
        // on a lost tail marker. A worker that exits with windows still
        // outstanding died without flushing: a loss, not a removal.
        self.send_shutdown(ap_id);
        while self.aligner.pending(ap_id) > 0 && self.slots[ap_id].running() {
            self.wait_for_progress();
        }
        self.end_membership(ap_id, Departure::Removed)
            .ok_or(DeployError::WorkerLost {
                window: self.next_window,
            })
    }

    /// Re-join a previously removed (or lost) AP under its original
    /// stable id, with its trained state intact — persistent identity
    /// instead of the fresh-id full retrain [`Deployment::add_ap`]
    /// would force. The AP participates from the next submitted window.
    /// When the health layer is on, the re-joiner comes back *on
    /// probation*: it stays quarantined (reports withheld from
    /// fusion/consensus, but still scored) until it logs
    /// [`crate::HealthConfig::probation_windows`] clean windows, then
    /// is re-admitted. Consensus references re-baseline either way —
    /// fused geometry shifts with membership.
    ///
    /// Errors: [`DeployError::UnknownAp`] if the id was never a member
    /// or is still live. Panics if the AP's modulation differs from the
    /// deployment's.
    pub fn rejoin_ap(
        &mut self,
        ap_id: usize,
        ap: AccessPoint,
        skew: ApSkew,
    ) -> Result<(), DeployError> {
        if self.slots.get(ap_id).is_none_or(|s| s.alive) {
            return Err(DeployError::UnknownAp { ap_id });
        }
        assert_eq!(
            ap.config().modulation,
            self.modulation,
            "deployment APs must share one modulation"
        );
        self.ap_positions[ap_id] = ap.config().position;
        self.aligner.revive_ap(ap_id);
        self.fusion.revive_ap(ap_id, ap.config().position);
        let tap = worker_tap(self.telemetry.as_ref(), ap_id);
        let prior_stats = self.slots[ap_id].final_stats.take();
        self.slots[ap_id] = spawn_worker(ap_id, ap, &self.cfg, skew, self.up_tx.clone(), tap);
        self.slots[ap_id].final_stats = prior_stats;
        self.metrics.aps_rejoined += 1;
        self.health.start_probation(ap_id);
        self.fusion.rebaseline();
        Ok(())
    }

    /// Current health score for `ap_id`, `[0, 1]` (1.0 when the health
    /// layer is disabled or the AP has a clean record).
    pub fn health_score(&self, ap_id: usize) -> f64 {
        self.health.score(ap_id)
    }

    /// Ids of the APs currently quarantined by the health layer,
    /// ascending (always empty when health is disabled).
    pub fn quarantined_aps(&self) -> Vec<usize> {
        self.health.quarantined_aps()
    }

    /// Ingest one observation window of traffic: run the shared stage-1
    /// decode per transmission and dispatch the per-AP captures (plus
    /// the shared [`secureangle::DecodedPacket`]) to every live worker.
    /// Returns the window number. Transmissions whose reference capture
    /// contains no detectable packet are counted in
    /// [`DeployMetrics::decode_failures`] and skipped fleet-wide.
    pub fn submit_window(&mut self, transmissions: Vec<Transmission>) -> Result<u64, DeployError> {
        let live = self.live_ap_ids();
        if live.is_empty() {
            return Err(DeployError::WorkerLost {
                window: self.next_window,
            });
        }
        for t in &transmissions {
            if t.per_ap.len() != live.len() {
                return Err(DeployError::ApCountMismatch {
                    expected: live.len(),
                    got: t.per_ap.len(),
                });
            }
        }
        let window = self.next_window;
        self.next_window += 1;

        // Stage 1, once per transmission. The results are consumed in
        // sequence order below, so metrics and dispatches are
        // byte-identical across shard counts.
        let decoded_by_seq = decode_window(&transmissions, self.modulation, &self.decode_hists);
        let mut per_worker: Vec<Vec<WorkerPacket>> = (0..live.len()).map(|_| Vec::new()).collect();
        for (seq, (t, decoded)) in transmissions.into_iter().zip(decoded_by_seq).enumerate() {
            self.metrics.transmissions += 1;
            let Some(decoded) = decoded else {
                self.metrics.decode_failures += 1;
                continue;
            };
            for (k, buffer) in t.per_ap.into_iter().enumerate() {
                per_worker[k].push(WorkerPacket {
                    buffer,
                    decoded: decoded.clone(),
                    seq: seq as u64,
                });
            }
        }

        self.bins.insert(
            window,
            WindowBin {
                expected: live.clone(),
                ..WindowBin::default()
            },
        );

        // Dispatch, counting ingest backpressure once per dispatch. A
        // worker found dead here has its hangup noted and is skipped;
        // the window will close without it.
        for (k, packets) in per_worker.into_iter().enumerate() {
            let ap_id = live[k];
            self.aligner
                .note_dispatch(ap_id, window, packets.first().map(|p| p.seq));
            let dispatched_packets = packets.len() as u64;
            // A hung worker (crash noticed at some earlier racy point)
            // is still a *member* — its membership ends at the collect
            // of its first unreported window — so the dispatch is
            // accounted identically whether the hangup was noticed
            // before this send, during it (`Disconnected`), or not yet
            // at all: *when* a crash is noticed never changes a byte.
            if self.send(ap_id, WorkerMsg::Window { window, packets }) {
                self.metrics.ingest_backpressure_events += 1;
            }
            self.metrics.packets_dispatched += dispatched_packets;
        }
        self.pending.push_back(window);
        Ok(window)
    }

    /// Route one worker report batch into its window's bin, aligning
    /// the worker's local window label back to the global window and
    /// rejecting labels beyond the skew tolerance.
    fn route(&mut self, done: WindowDone) {
        if done.flush {
            // Ordered-shutdown sentinel: everything queued before the
            // Shutdown already reported (FIFO), so whatever this AP
            // still owes lost its marker for good — nothing later will
            // ever reveal the tail gap. Close those windows now.
            for global in self.aligner.take_outstanding(done.ap_id) {
                self.mark_marker_lost(done.ap_id, global);
            }
            return;
        }
        let (skipped, aligned) = self.aligner.align_gaps(
            done.ap_id,
            done.label,
            done.seq_base,
            self.cfg.marker_timeout_windows,
        );
        // Earlier windows revealed as marker-lost by this marker's gap.
        for global in skipped {
            self.mark_marker_lost(done.ap_id, global);
        }
        let Some(aligned) = aligned else {
            // Unattributable (nothing outstanding for the AP — e.g. it
            // was reaped and forgotten): discard.
            return;
        };
        let Some(bin) = self.bins.get_mut(&aligned.global) else {
            return;
        };
        if done.stalled {
            // Wedged DSP: the marker closed the window but the payload
            // is empty. A run of these trips the stall watchdog.
            bin.stalled_ap_ids.push(done.ap_id);
            self.metrics.windows_stalled += 1;
        }
        if done.lost {
            bin.lost_ap_ids.push(done.ap_id);
            self.metrics.reports_lost += 1;
        } else if !aligned.accepted {
            bin.skew_ap_ids.push(done.ap_id);
            self.metrics.skew_rejections += 1;
            self.per_ap_window_stats[done.ap_id].skew_rejections += 1;
        } else if payload_checksum(done.label, done.seq_base, &done.packets) != done.checksum {
            // Wire corruption: the payload does not match the checksum
            // the worker computed when it sent it. Reject the whole
            // payload — a bit-flipped bearing must never be fused.
            bin.corrupt_ap_ids.push(done.ap_id);
            self.metrics.reports_corrupt += 1;
            self.per_ap_window_stats[done.ap_id].reports_corrupt += 1;
        } else {
            let mut packets = done.packets;
            for p in &mut packets {
                p.window = aligned.global;
                p.seq = (p.seq as i64 - aligned.seq_delta) as u64;
                if let Some(r) = &mut p.report {
                    r.seq = p.seq;
                }
            }
            bin.packets.extend(packets);
        }
        bin.reported.push(done.ap_id);
        bin.end_stats.push((done.ap_id, done.stats));
        let depth: usize = self.bins.values().map(|b| b.packets.len()).sum();
        self.metrics.max_fusion_queue_depth = self.metrics.max_fusion_queue_depth.max(depth);
    }

    /// Close the books on one `(AP, window)` whose end-of-window marker
    /// was lost: the AP counts as reported — so the window can close —
    /// but contributed no bearings, and the loss earns consensus slack
    /// in [`Deployment::collect_window`].
    fn mark_marker_lost(&mut self, ap_id: usize, window: u64) {
        self.metrics.markers_lost += 1;
        self.per_ap_window_stats[ap_id].markers_lost += 1;
        if let Some(bin) = self.bins.get_mut(&window) {
            if !bin.reported.contains(&ap_id) {
                bin.reported.push(ap_id);
                bin.marker_lost_ap_ids.push(ap_id);
            }
        }
    }

    /// Deliver one message to AP `ap_id`'s worker without blocking the
    /// coordinator: a full input queue is waited out while draining
    /// reports, so workers stuck publishing finished windows can always
    /// make progress — deep pipelining backs up gracefully instead of
    /// deadlocking on a full channel cycle. A disconnected queue means
    /// the worker already died: its hangup is noted and the message
    /// dropped, as it is for a worker already hung up. Returns whether
    /// the queue was ever full (backpressure).
    fn send(&mut self, ap_id: usize, mut msg: WorkerMsg) -> bool {
        let mut was_full = false;
        while let Some(tx) = &self.slots[ap_id].tx {
            match tx.try_send(msg) {
                Ok(()) => break,
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    was_full = true;
                    self.wait_for_progress();
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.note_hangup(ap_id);
                    break;
                }
            }
        }
        was_full
    }

    /// Order one worker to shut down and hang up its input. The input
    /// channel is FIFO, so everything already queued still processes
    /// first, and the worker's final flush sentinel then closes any
    /// tail windows whose markers were lost.
    fn send_shutdown(&mut self, ap_id: usize) {
        self.send(ap_id, WorkerMsg::Shutdown);
        self.slots[ap_id].tx = None;
    }

    /// Wait a beat for the workers to make progress, draining any
    /// report that arrives in the meantime. Detects exited workers: a
    /// worker thread that is gone (panic, injected crash, or a normal
    /// post-shutdown exit) has its buffered reports salvaged and its
    /// hangup flagged — but its membership is *not* ended here; that
    /// happens deterministically in [`Deployment::collect_window`].
    fn wait_for_progress(&mut self) {
        match self
            .up_rx
            .recv_timeout(std::time::Duration::from_millis(10))
        {
            Ok(done) => self.route(done),
            Err(_) => {
                let finished: Vec<usize> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.alive && !s.hung && !s.running())
                    .map(|(id, _)| id)
                    .collect();
                for ap_id in finished {
                    self.note_hangup(ap_id);
                }
            }
        }
    }

    /// Note that a worker's thread has exited: drain every report
    /// already in flight, stop sending to it, and flag the hangup. The
    /// drain-first order matters — a dead thread's sends all happened
    /// before it exited, so draining salvages them no matter *where*
    /// the death was noticed (timeout scan or a failed send).
    /// Deliberately does **not** end the worker's membership: hangups
    /// are noticed at racy points, so [`Deployment::end_membership`] is
    /// deferred to [`Deployment::collect_window`], at the first window
    /// the worker failed to report — a deterministic point in window
    /// order.
    fn note_hangup(&mut self, ap_id: usize) {
        if !self.slots[ap_id].alive || self.slots[ap_id].hung {
            return;
        }
        self.drain_until_exited(&[ap_id]);
        let slot = &mut self.slots[ap_id];
        slot.tx = None;
        slot.hung = true;
    }

    /// Route reports until every listed worker thread has exited, then
    /// sweep the stragglers. A worker's sends (markers, the final
    /// flush) are *blocking* on the shared report channel, so joining a
    /// thread that has not exited could deadlock on a full channel.
    fn drain_until_exited(&mut self, ap_ids: &[usize]) {
        while ap_ids.iter().any(|&k| self.slots[k].running()) {
            if let Ok(done) = self
                .up_rx
                .recv_timeout(std::time::Duration::from_millis(10))
            {
                self.route(done);
            }
        }
        while let Ok(done) = self.up_rx.try_recv() {
            self.route(done);
        }
    }

    /// End AP `ap_id`'s membership — the one exit path for removal,
    /// worker loss and watchdog reap. Hangs up the input (the worker
    /// drains its queue and exits at the next receive), routes
    /// everything it still owes *before* the aligner forgets it (a
    /// report routed afterwards is unattributable and discarded), joins
    /// the thread, keeps its run totals, retires it from alignment,
    /// fusion and health, re-baselines consensus, and bumps exactly one
    /// departure counter. Returns the AP only for a clean removal: a
    /// lost or reaped worker's state is not trusted, though its
    /// counters are. Only called from deterministic points (a collect,
    /// or [`Deployment::remove_ap`]).
    fn end_membership(&mut self, ap_id: usize, departure: Departure) -> Option<AccessPoint> {
        debug_assert!(self.slots[ap_id].alive, "AP {ap_id} already departed");
        self.slots[ap_id].tx = None;
        self.drain_until_exited(&[ap_id]);
        // Windows still outstanding after the drain died with a worker
        // that never flushed them.
        let flushed = self.aligner.pending(ap_id) == 0;
        let slot = &mut self.slots[ap_id];
        slot.alive = false;
        let ap = match slot.join.take().map(JoinHandle::join) {
            Some(Ok((ap, stats))) => {
                slot.final_stats = Some(stats);
                Some(ap)
            }
            _ => None,
        };
        self.aligner.forget_ap(ap_id);
        self.fusion.retire_ap(ap_id);
        self.health.mark_dead(ap_id);
        self.fusion.rebaseline();
        match departure {
            Departure::Removed if flushed && ap.is_some() => {
                self.metrics.aps_removed += 1;
                ap
            }
            Departure::Watchdog => {
                self.metrics.watchdog_reaps += 1;
                None
            }
            _ => {
                self.metrics.worker_losses += 1;
                None
            }
        }
    }

    /// Is window `w`'s bin closable: every AP expected at submit has
    /// either delivered its end-of-window marker, hung up (thread gone,
    /// reports salvaged — it will never deliver), or is no longer live.
    fn closable(&self, window: u64) -> bool {
        match self.bins.get(&window) {
            Some(bin) => bin
                .expected
                .iter()
                .all(|&k| bin.reported.contains(&k) || !self.slots[k].alive || self.slots[k].hung),
            None => true,
        }
    }

    /// Block until the oldest in-flight window has closed — every AP
    /// that was live at submit has reported (or died) — then fuse and
    /// return it. Reports for later windows that arrive in the meantime
    /// are buffered in the reorder buffer (their depth shows up in
    /// [`DeployMetrics::max_fusion_queue_depth`]). A window whose data
    /// is partial (lost reports, skew rejections, dead APs) is fused
    /// from the bearings that survived; see [`FusedWindow::lost_reports`]
    /// and [`FusedWindow::skew_rejected`].
    pub fn collect_window(&mut self) -> Result<FusedWindow, DeployError> {
        let window = self
            .pending
            .pop_front()
            .ok_or(DeployError::NothingSubmitted)?;
        while !self.closable(window) {
            self.wait_for_progress();
        }

        let mut bin = self.bins.remove(&window).unwrap_or_default();
        // Membership end for hung workers, at the first window each one
        // failed to report. Collects run strictly in window order, so
        // this sweep — and the retire/re-baseline it triggers — lands
        // at the same window on every rerun, no matter *when* the
        // hangup was physically noticed. A hung worker that reported
        // everything it was dispatched (e.g. an ordered shutdown, or a
        // crash after its last report) is never swept: its exit is
        // indistinguishable from a clean one.
        let failed: Vec<usize> = bin
            .expected
            .iter()
            .copied()
            .filter(|&k| !bin.reported.contains(&k) && self.slots[k].alive && self.slots[k].hung)
            .collect();
        for ap_id in failed {
            self.end_membership(ap_id, Departure::Lost);
        }
        for (ap_id, stats) in &bin.end_stats {
            self.per_ap_window_stats[*ap_id].absorb(stats);
            self.metrics.report_backpressure_events += stats.backpressure_events;
        }
        // Quarantine filter: a quarantined AP's packets are withheld
        // from fusion/consensus (still scored against the fused fixes
        // below, for its readmission decision), it stops counting
        // toward the expected-AP denominator, and its losses earn no
        // consensus slack. Quarantine membership is read at *collect*
        // time, and collects are strictly in window order, so the
        // filter is deterministic at any pipelining depth.
        let quarantined: Vec<usize> = bin
            .expected
            .iter()
            .copied()
            .filter(|&k| self.health.is_quarantined(k))
            .collect();
        if !quarantined.is_empty() {
            let packets = std::mem::take(&mut bin.packets);
            let (withheld, kept) = packets
                .into_iter()
                .partition(|p| quarantined.contains(&p.ap_id));
            bin.withheld = withheld;
            bin.packets = kept;
        }
        // Down-weighting: a degraded-but-not-quarantined AP's report
        // confidence is scaled by its health score, so its bearings
        // pull confidence-weighted fixes less while evidence
        // accumulates. A healthy AP's weight is exactly 1.0, leaving
        // clean runs byte-identical.
        if self.health.enabled() {
            for p in &mut bin.packets {
                if let Some(r) = &mut p.report {
                    r.confidence *= self.health.weight(p.ap_id);
                }
            }
        }
        let not_q = |ids: &[usize]| ids.iter().filter(|k| !quarantined.contains(k)).count();
        let dead_not_q = bin
            .expected
            .iter()
            .filter(|&&k| !bin.reported.contains(&k) && !quarantined.contains(&k))
            .count();
        // Degradation the coordinator *knows* about — and the only
        // thing that earns consensus slack downstream: reports lost on
        // the link, rejected for skew, marker-lost, checksum-rejected,
        // stalled, or never coming (dead worker). Marker-lost APs sit
        // in `reported`, so they are disjoint from `dead_aps` — no
        // double counting — and a stalled AP whose payload was *also*
        // lost is only counted once. Quarantined APs' losses are
        // excluded: they are not expected, so they earn no slack.
        let stalled_slack = bin
            .stalled_ap_ids
            .iter()
            .filter(|&&k| !quarantined.contains(&k) && !bin.lost_ap_ids.contains(&k))
            .count();
        let missing_aps = not_q(&bin.lost_ap_ids)
            + not_q(&bin.skew_ap_ids)
            + not_q(&bin.marker_lost_ap_ids)
            + not_q(&bin.corrupt_ap_ids)
            + stalled_slack
            + dead_not_q;
        if missing_aps > 0 {
            self.metrics.degraded_windows += 1;
        }
        let packets = std::mem::take(&mut bin.packets);
        let mut fused = self.fusion.fuse_window_degraded(
            window,
            packets,
            bin.expected.len() - quarantined.len(),
            missing_aps,
            quarantined.len(),
        );
        fused.lost_reports = bin.lost_ap_ids.len();
        fused.skew_rejected = bin.skew_ap_ids.len();
        fused.markers_lost = bin.marker_lost_ap_ids.len();
        fused.corrupt_reports = bin.corrupt_ap_ids.len();
        fused.stalled_aps = bin.stalled_ap_ids.len();
        fused.quarantined_aps = quarantined.len();
        self.metrics.windows += 1;
        self.metrics.fused_bearings += fused.bearings as u64;
        self.metrics.localize_failures += fused.localize_failures as u64;
        for c in &fused.clients {
            if c.fix.is_some() {
                self.metrics.fixes += 1;
            }
            if c.consensus.is_spoof() {
                self.metrics.consensus_flags += 1;
            }
        }
        if self.health.enabled() {
            self.observe_health(&bin, &fused);
        }
        // Periodic telemetry dump: fire the hook every `every` fused
        // windows, with the window's counters already folded in. Out of
        // band — the hook sees a snapshot copy and cannot influence the
        // pipeline.
        if let Some((every, mut hook)) = self.dump_hook.take() {
            if every > 0 && self.metrics.windows.is_multiple_of(every) {
                let snap = self.telemetry_snapshot();
                hook(&snap);
            }
            self.dump_hook = Some((every, hook));
        }
        Ok(fused)
    }

    /// Fold one fused window's per-AP evidence into the health layer
    /// and apply the resulting actions. The evidence is assembled from
    /// order-independent aggregates (flags, counts, maxima), so the
    /// scores — and every quarantine/readmit/reap decision — are
    /// byte-deterministic at any shard count or pipelining depth.
    fn observe_health(&mut self, bin: &WindowBin, fused: &FusedWindow) {
        let mut ev = vec![ApWindowEvidence::default(); self.slots.len()];
        for e in &fused.ap_bearing_errors {
            let x = &mut ev[e.ap_id];
            x.bearings = e.bearings;
            x.over_warn = e.over_warn;
            x.max_err_deg = e.max_err_deg;
        }
        for &k in &bin.lost_ap_ids {
            ev[k].report_lost = true;
        }
        for &k in &bin.skew_ap_ids {
            ev[k].skew_rejected = true;
        }
        for &k in &bin.marker_lost_ap_ids {
            ev[k].marker_lost = true;
        }
        for &k in &bin.corrupt_ap_ids {
            ev[k].corrupt = true;
        }
        for &k in &bin.stalled_ap_ids {
            ev[k].stalled = true;
        }
        // A quarantined AP's withheld packets are scored against the
        // *untainted* fused fixes: a clean streak here is what earns
        // its re-admission.
        for p in &bin.withheld {
            let Some(r) = &p.report else { continue };
            let Some(fix) = fused
                .clients
                .iter()
                .find(|c| c.mac == r.mac)
                .and_then(|c| c.fix.as_ref())
            else {
                continue;
            };
            let err =
                crate::fusion::bearing_err_deg(self.ap_positions[p.ap_id], fix.position, r.azimuth);
            let x = &mut ev[p.ap_id];
            x.bearings += 1;
            if err > self.cfg.health.bearing_err_warn_deg {
                x.over_warn += 1;
            }
            if err > x.max_err_deg {
                x.max_err_deg = err;
            }
        }
        for action in self.health.observe_window(&ev) {
            match action {
                HealthAction::Quarantine(k) => {
                    self.metrics.aps_quarantined += 1;
                    self.per_ap_window_stats[k].quarantined += 1;
                    // Fused geometry shifts without the outlier —
                    // stale references would false-flag every client.
                    self.fusion.rebaseline();
                }
                HealthAction::Readmit(k) => {
                    self.metrics.aps_readmitted += 1;
                    self.per_ap_window_stats[k].readmitted += 1;
                    self.fusion.rebaseline();
                }
                HealthAction::Reap(k) => {
                    self.end_membership(k, Departure::Watchdog);
                }
            }
        }
    }

    /// Install a periodic telemetry dump hook: `hook` is called with a
    /// fresh [`TelemetrySnapshot`] after every `every_windows`-th fused
    /// window (e.g. to append exposition dumps to a file). Replaces any
    /// previous hook. With telemetry disabled the hook still fires but
    /// sees only empty snapshots; `every_windows = 0` never fires.
    pub fn set_dump_hook(
        &mut self,
        every_windows: u64,
        hook: impl FnMut(&TelemetrySnapshot) + Send + 'static,
    ) {
        self.dump_hook = Some((every_windows, Box::new(hook)));
    }

    /// A point-in-time [`TelemetrySnapshot`]: the unified counter
    /// registry (fleet and per-AP counters mirrored from the
    /// deterministic [`DeployMetrics`]/[`ApStats`] sources), fusion
    /// occupancy gauges, and every per-stage latency histogram recorded
    /// so far. Empty when telemetry is disabled. While the run is live
    /// the per-AP counters reflect *closed windows* (the full-run
    /// totals, including in-flight work, arrive in
    /// [`DeploymentReport::telemetry`] from [`Deployment::finish`]).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        match &self.telemetry {
            Some(t) => {
                mirror_counters(
                    t,
                    &self.metrics,
                    &self.per_ap_window_stats,
                    &self.fusion,
                    &self.health,
                );
                t.registry.snapshot()
            }
            None => TelemetrySnapshot::default(),
        }
    }

    /// Render the flight recorder's per-client post-mortem for `mac`:
    /// one block per recorded window (oldest first) showing the
    /// bearings, fix, reference and consensus verdict that produced
    /// each decision — the evidence trail behind a spoof flag. `None`
    /// when the flight recorder is off or has nothing for this client.
    pub fn explain(&self, mac: &MacAddr) -> Option<String> {
        let t = self.telemetry.as_ref()?;
        let events = t.recorder()?.events(*mac)?;
        let flags = events.iter().filter(|e| e.verdict.is_spoof()).count();
        let mut out = format!(
            "client {mac}: {} recorded window(s), {} spoof verdict(s)\n",
            events.len(),
            flags
        );
        for e in &events {
            out.push_str(&e.render());
        }
        Some(out)
    }

    /// Submit one window and immediately collect it — the synchronous
    /// path. Pipeline by hand with [`Deployment::submit_window`] and
    /// [`Deployment::collect_window`] to keep more windows in flight.
    pub fn run_window(
        &mut self,
        transmissions: Vec<Transmission>,
    ) -> Result<FusedWindow, DeployError> {
        self.submit_window(transmissions)?;
        self.collect_window()
    }

    /// Number of windows currently submitted but not yet collected.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Run a sequence of windows, one at a time — each is submitted and
    /// then collected — and return them fused in submission order,
    /// after any windows that were already in flight. Keeping a second
    /// window in flight measured no faster on a 2-core host — the AP
    /// workers already fill the cores the overlapped decode would use —
    /// and fused bytes are identical at any depth, so this path does
    /// not pipeline.
    ///
    /// Not for runs with [`DeployConfig::marker_loss_rate`] > 0: a lost
    /// marker is only revealed by a *later* window's marker or by the
    /// shutdown flush, so a window collected with nothing submitted
    /// after it can wait forever. Under marker loss, submit ahead,
    /// collect while later windows are in flight, and let
    /// [`Deployment::finish`] close the tail.
    ///
    /// On an error the windows fused so far are lost to the caller.
    pub fn run_stream(
        &mut self,
        windows: Vec<Vec<Transmission>>,
    ) -> Result<Vec<FusedWindow>, DeployError> {
        let mut out = Vec::with_capacity(windows.len());
        for transmissions in windows {
            self.submit_window(transmissions)?;
            while !self.pending.is_empty() {
                out.push(self.collect_window()?);
            }
        }
        Ok(out)
    }

    /// Drain any in-flight windows, shut the workers down, and return
    /// the final report together with the still-live APs (whose trained
    /// signature stores and quarantine state survive the deployment;
    /// APs removed mid-run were already handed back by
    /// [`Deployment::remove_ap`], and crashed APs' state is gone).
    pub fn finish(mut self) -> (DeploymentReport, Vec<AccessPoint>) {
        // Shutdown orders go out *before* the drain: the input channels
        // are FIFO, so queued windows still process first, and each
        // worker's final flush then closes any tail windows whose
        // markers were lost — a drain-first order would wait on those
        // forever. On a healthy run the flush is a no-op and the result
        // is byte-identical to draining first.
        let live: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tx.is_some())
            .map(|(id, _)| id)
            .collect();
        for ap_id in live {
            self.send_shutdown(ap_id);
        }
        while !self.pending.is_empty() {
            if self.collect_window().is_err() {
                break;
            }
        }
        // A worker still parked in its final flush (possible on small
        // channels once every window has closed) must not be joined.
        let all: Vec<usize> = (0..self.slots.len()).collect();
        self.drain_until_exited(&all);
        let telemetry = self.telemetry.clone();
        let mut per_ap = Vec::with_capacity(self.slots.len());
        let mut aps = Vec::new();
        for (ap_id, slot) in self.slots.into_iter().enumerate() {
            let prior = slot.final_stats;
            let mut stats = match slot.join.map(|j| j.join()) {
                Some(Ok((ap, mut stats))) => {
                    // A re-joined AP's totals span both stints: fold
                    // the pre-rejoin run (captured at removal) in.
                    if let Some(p) = &prior {
                        stats.absorb(p);
                    }
                    // Store-occupancy gauges, tapped now that the AP's
                    // trained signature store is back in hand.
                    if let Some(t) = &telemetry {
                        let occ = ap.spoof.store().occupancy_summary();
                        let label = ap_id.to_string();
                        t.registry
                            .gauge("store.occupancy", &[("ap", &label)])
                            .set(occ.total as i64);
                        t.registry
                            .gauge("store.max_shard_occupancy", &[("ap", &label)])
                            .set(occ.max as i64);
                        // Shard imbalance is a ratio; gauges are
                        // integers, so export it in milli-units
                        // (1000 = perfectly balanced).
                        t.registry
                            .gauge("store.shard_imbalance_milli", &[("ap", &label)])
                            .set_milli(occ.imbalance());
                    }
                    aps.push(ap);
                    stats
                }
                // Removed or reaped earlier: use the captured totals,
                // falling back to the closed-window view for a panicked
                // worker whose totals died with it.
                _ => prior.unwrap_or(self.per_ap_window_stats[ap_id]),
            };
            // Counters only the coordinator can see (a worker cannot
            // observe its own clock error, wire corruption, or
            // quarantine status) are grafted onto the worker-side
            // totals here.
            stats.skew_rejections = self.per_ap_window_stats[ap_id].skew_rejections;
            stats.reports_corrupt = self.per_ap_window_stats[ap_id].reports_corrupt;
            stats.quarantined = self.per_ap_window_stats[ap_id].quarantined;
            stats.readmitted = self.per_ap_window_stats[ap_id].readmitted;
            per_ap.push(stats);
        }
        // Final mirror from the *full-run* per-AP totals (richer than
        // the closed-window view the live snapshot uses), then freeze
        // the registry into the report. Disabled telemetry yields the
        // empty default snapshot, keeping reports byte-stable.
        let report_telemetry = match &telemetry {
            Some(t) => {
                mirror_counters(t, &self.metrics, &per_ap, &self.fusion, &self.health);
                t.registry.snapshot()
            }
            None => TelemetrySnapshot::default(),
        };
        let report = DeploymentReport {
            n_aps: per_ap.len(),
            metrics: self.metrics,
            per_ap,
            clients: self.fusion.client_summaries(),
            telemetry: report_telemetry,
        };
        (report, aps)
    }
}

/// Mirror the deterministic counter sources into the registry — `set`,
/// not `add`, so repeated snapshots never double-count — plus the
/// fusion occupancy gauges. Mirroring at snapshot time, instead of
/// incrementing registry counters on the hot paths, is what keeps
/// control flow (and therefore every fused byte) identical with
/// telemetry on or off.
fn mirror_counters(
    t: &DeployTelemetry,
    metrics: &DeployMetrics,
    per_ap: &[ApStats],
    fusion: &Fusion,
    health: &FleetHealth,
) {
    metrics.for_each(|name, v| {
        t.registry.counter(&format!("fleet.{name}"), &[]).set(v);
    });
    t.registry
        .gauge("fleet.max_fusion_queue_depth", &[])
        .set(metrics.max_fusion_queue_depth as i64);
    for (ap_id, stats) in per_ap.iter().enumerate() {
        let label = ap_id.to_string();
        stats.for_each(|name, v| {
            t.registry
                .counter(&format!("ap.{name}"), &[("ap", &label)])
                .set(v);
        });
        // The health score is a ratio in [0, 1]; gauges are integers,
        // so it is exported in milli-units (1000 = perfectly healthy).
        if ap_id < health.n_aps() {
            t.registry
                .gauge("ap.health_score", &[("ap", &label)])
                .set_milli(health.score(ap_id));
        }
    }
    t.registry
        .gauge("fusion.rebaselines", &[])
        .set(fusion.rebaseline_count() as i64);
    t.registry
        .gauge("fusion.tracked_clients", &[])
        .set(fusion.tracked_clients() as i64);
    t.registry
        .gauge("recorder.clients", &[])
        .set(t.recorder.client_count() as i64);
}

/// The per-AP stage-histogram handles for one worker, when stage
/// timing is on.
fn worker_tap(telemetry: Option<&Arc<DeployTelemetry>>, ap_id: usize) -> Option<WorkerTap> {
    let t = telemetry?;
    Some(WorkerTap {
        dsp: t.stage("stage.worker_dsp", "ap", ap_id)?,
        enforce: t.stage("stage.enforce", "ap", ap_id)?,
    })
}

/// Stage-1 decode of one window's reference captures (each
/// transmission's first capture), split into `decode_hists.len()`
/// contiguous runs: the calling thread decodes the first run and one
/// scoped thread each of the rest, each run timed into its own
/// histogram. Results are gathered in sequence order, so the run count
/// never changes a byte downstream; `None` = no detectable packet. A
/// panicking run propagates its panic to the caller.
fn decode_window(
    transmissions: &[Transmission],
    modulation: Modulation,
    decode_hists: &[Option<Arc<Histogram>>],
) -> Vec<Option<Arc<DecodedPacket>>> {
    let decode_run = |run: &[Transmission], hist: Option<&Histogram>| {
        run.iter()
            .map(|t| {
                let _span = StageTimer::start(hist);
                decode_reference(&t.per_ap[0], modulation)
                    .ok()
                    .map(Arc::new)
            })
            .collect::<Vec<_>>()
    };
    let run_len = transmissions.len().div_ceil(decode_hists.len()).max(1);
    let mut runs = transmissions
        .chunks(run_len)
        .zip(decode_hists.iter().map(Option::as_deref));
    let Some((first, first_hist)) = runs.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let rest: Vec<_> = runs
            .map(|(run, hist)| scope.spawn(move || decode_run(run, hist)))
            .collect();
        let mut out = decode_run(first, first_hist);
        for run in rest {
            out.extend(run.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Spawn one AP worker thread.
fn spawn_worker(
    ap_id: usize,
    ap: AccessPoint,
    cfg: &DeployConfig,
    skew: ApSkew,
    up: SyncSender<WindowDone>,
    tap: Option<WorkerTap>,
) -> WorkerSlot {
    let (tx, rx) = sync_channel(cfg.channel_capacity.max(1));
    let wcfg = WorkerCfg {
        snapshot_cap: cfg.snapshot_cap,
        auto_train_signatures: cfg.auto_train_signatures,
        skew,
        link: cfg.link,
        marker_loss_rate: cfg.marker_loss_rate,
        tap,
        faults: crate::faults::ApFaults::new(
            cfg.faults
                .as_ref()
                .map(|p| p.for_ap(ap_id))
                .unwrap_or_default(),
        ),
    };
    let join = std::thread::Builder::new()
        .name(format!("sa-deploy-ap{}", ap_id))
        .spawn(move || run_worker(ap_id, ap, wcfg, rx, up))
        .expect("spawn AP worker");
    WorkerSlot {
        tx: Some(tx),
        join: Some(join),
        alive: true,
        hung: false,
        final_stats: None,
    }
}
