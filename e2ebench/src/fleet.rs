//! The two deployment workloads, `office_1024B` and `campus_attack`.
//!
//! One caller thread drives a [`Deployment`] in a closed loop with two
//! windows in flight: it submits the next window only after collecting
//! the oldest once two are pending. The replay runs the same windows
//! serially the way a deployment worker does — `decode_reference` per
//! transmission, then per AP `batch_with_engine` → `push_predecoded` →
//! `process`, `enforce`/`train_client`, `bearing_report` → [`ApPacket`]
//! — and fuses them with [`Fusion::fuse_window_degraded`].

use crate::kernels::{DecodeSplit, DspKernels, DspSplit};
use crate::layers::{
    pristine_copy, record_replay_layers, write_spans, Counts, SetupTimes, SETUP_REPS,
};
use crate::stats::{median, ms, peak_rss_mb, ratio, Digest, Steal, MIN_SAMPLES};
use crate::trace::Tracer;
use crate::{Args, Report, ACCURACY_PASSES};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_aoa::estimator::AoaEngine;
use sa_channel::geom::{pt, Point};
use sa_channel::pattern::TxAntenna;
use sa_deploy::{
    ApPacket, ApSkew, DeployConfig, DeployError, Deployment, DeploymentReport, FusedWindow, Fusion,
    LinkConfig, Transmission,
};
use sa_mac::{Frame, MacAddr};
use sa_phy::Modulation;
use sa_testbed::Testbed;
use secureangle::pipeline::{decode_reference, AccessPoint, DropReason, FrameVerdict, Observation};
use secureangle::spoof::SpoofVerdict;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Windows the caller keeps in flight.
const DEPTH: usize = 2;

/// A spoofer stands this far beyond its victim on the AP-0 → victim
/// ray, so AP 0 sees it at the victim's bearing.
const SPOOFER_BEYOND_M: f64 = 3.5;

/// Which floor the deployment covers.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// The paper's Fig-4 office, 20 clients.
    Office,
    /// `Testbed::campus_with(n, 4, seed)`.
    Campus(usize),
}

/// A deployment workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    site: Site,
    payload_len: usize,
    snapshot_cap: usize,
    decode_shards: usize,
    report_loss: f64,
    skew_windows: i64,
    /// Windows synthesised for the timed phase; accuracy is scored on
    /// the first pass over them.
    pool_windows: usize,
    /// Windows every client sends before timing starts (signature and
    /// reference training).
    warmup_windows: usize,
    /// Clients silenced per pool window, each impersonated by a spoofer.
    /// Victims are dealt from a seeded shuffle of the roster, so when
    /// `pool_windows × victims_per_window` covers the roster every
    /// client is impersonated exactly once per pass.
    victims_per_window: usize,
    /// Add one transmitter outside the building with an unlisted MAC.
    outsider: bool,
}

impl Spec {
    /// `office_1024B`: the Fig-4 office, 4 APs, 1024-byte frames, a
    /// 2-shard decode pool — stage-1 decode dominates. Each of the 20
    /// clients is impersonated once per pass over the 4-window pool.
    pub fn office() -> Self {
        Self {
            name: "office_1024B",
            site: Site::Office,
            payload_len: 1024,
            snapshot_cap: 128,
            decode_shards: 2,
            report_loss: 0.0,
            skew_windows: 0,
            pool_windows: 4,
            warmup_windows: 1,
            victims_per_window: 5,
            outsider: false,
        }
    }

    /// `campus_attack`: 200 clients, 4 APs, 18-byte frames, inline
    /// decode, 10% report loss, ±1-window clock skew, spoofers and an
    /// outsider — per-AP DSP dominates.
    pub fn campus() -> Self {
        Self {
            name: "campus_attack",
            site: Site::Campus(200),
            payload_len: 18,
            snapshot_cap: DeployConfig::default().snapshot_cap,
            decode_shards: 1,
            report_loss: 0.10,
            skew_windows: 1,
            pool_windows: 3,
            warmup_windows: 1,
            victims_per_window: 10,
            outsider: true,
        }
    }

    fn testbed(&self, seed: u64) -> Testbed {
        let mut tb = match self.site {
            Site::Office => Testbed::deployment(4, seed),
            Site::Campus(n) => Testbed::campus_with(n, 4, seed),
        };
        tb.cfg.payload_len = self.payload_len;
        tb
    }

    /// The deployment configuration. Only the knobs an operator sizes a
    /// fleet with are set; everything else stays at its default.
    fn config(&self, seed: u64) -> DeployConfig {
        DeployConfig {
            snapshot_cap: self.snapshot_cap,
            decode_shards: self.decode_shards,
            link: LinkConfig {
                loss_rate: self.report_loss,
                retry_limit: 3,
                seed: seed ^ 0x11_4b5e,
            },
            max_skew_windows: 2,
            ..DeployConfig::default()
        }
    }

    fn skews(&self, n_aps: usize, seed: u64) -> Vec<ApSkew> {
        if self.skew_windows == 0 {
            return vec![ApSkew::NONE; n_aps];
        }
        Testbed::skew_profile(n_aps, self.skew_windows, seed)
            .into_iter()
            .map(|(window_offset, seq_offset)| ApSkew {
                window_offset,
                seq_offset,
                drift_ppw: 0.0,
            })
            .collect()
    }
}

/// What a transmission is, for scoring against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Legit,
    Spoof,
    Outsider,
}

#[derive(Debug, Clone, Copy)]
struct TxMeta {
    kind: Kind,
    mac: MacAddr,
    /// Where the transmitter really is.
    position: Point,
}

struct Window {
    txs: Vec<Transmission>,
    meta: Vec<TxMeta>,
}

struct Setup {
    ap_positions: Vec<Point>,
    pristine: Vec<AccessPoint>,
    warmup: Vec<Vec<Transmission>>,
    pool: Vec<Window>,
    times: SetupTimes,
}

fn set_up(spec: &Spec, seed: u64) -> Result<(Setup, Deployment), DeployError> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut tb = spec.testbed(seed);
    times.build_s = t.elapsed().as_secs_f64();

    let cfg = spec.config(seed);
    let t = Instant::now();
    let (warmup, pool) = synthesise(spec, &tb, cfg.window_dt_s, seed);
    times.synth_s = t.elapsed().as_secs_f64();
    let n_aps = tb.nodes.len();
    let transmissions: usize = warmup.iter().map(Vec::len).sum::<usize>()
        + pool.iter().map(|w| w.txs.len()).sum::<usize>();
    times.captures = (transmissions * n_aps) as u64;

    let aps: Vec<AccessPoint> = std::mem::take(&mut tb.nodes)
        .into_iter()
        .map(|n| n.ap)
        .collect();
    let ap_positions = aps.iter().map(|ap| ap.config().position).collect();
    let pristine = aps.iter().map(pristine_copy).collect();
    let t = Instant::now();
    let mut deployment = Deployment::with_skews(aps, cfg, spec.skews(n_aps, seed));
    times.new_ms = ms(t.elapsed());

    let t = Instant::now();
    for w in &warmup {
        deployment.run_window(w.clone())?;
    }
    times.warmup_ms = ms(t.elapsed());
    let setup = Setup {
        ap_positions,
        pristine,
        warmup,
        pool,
        times,
    };
    Ok((setup, deployment))
}

/// Synthesise the warm-up windows (every client) and the timed pool
/// (victims silenced and impersonated, plus the outsider).
fn synthesise(
    spec: &Spec,
    tb: &Testbed,
    window_dt_s: f64,
    seed: u64,
) -> (Vec<Vec<Transmission>>, Vec<Window>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7e57_bed5);
    let clients: Vec<usize> = tb.office.clients.iter().map(|c| c.id).collect();
    let to_txs = |captures: Vec<Vec<_>>| -> Vec<Transmission> {
        captures.into_iter().map(Transmission::new).collect()
    };

    let warmup = (0..spec.warmup_windows)
        .map(|w| to_txs(tb.window_traffic(&clients, w as u16, w as f64 * window_dt_s, &mut rng)))
        .collect();

    // Victims differ from window to window: shuffle once, deal in order.
    let mut order = clients.clone();
    crate::shuffle(&mut order, &mut rng);
    let ap0 = tb.nodes[0].ap.config().position;
    let mut pool = Vec::with_capacity(spec.pool_windows);
    for p in 0..spec.pool_windows {
        let index = spec.warmup_windows + p;
        let seq = index as u16;
        let dt = index as f64 * window_dt_s;
        let start = (p * spec.victims_per_window) % order.len();
        let victims: Vec<usize> = order
            .iter()
            .cycle()
            .skip(start)
            .take(spec.victims_per_window)
            .copied()
            .collect();
        let legit: Vec<usize> = clients
            .iter()
            .copied()
            .filter(|c| !victims.contains(c))
            .collect();

        let mut txs = to_txs(tb.window_traffic(&legit, seq, dt, &mut rng));
        let mut meta: Vec<TxMeta> = legit
            .iter()
            .map(|&id| TxMeta {
                kind: Kind::Legit,
                mac: Testbed::client_mac(id),
                position: tb.office.client(id).position,
            })
            .collect();
        for &victim in &victims {
            let vpos = tb.office.client(victim).position;
            let az = ap0.azimuth_to(vpos);
            let at = pt(
                vpos.x + SPOOFER_BEYOND_M * az.cos(),
                vpos.y + SPOOFER_BEYOND_M * az.sin(),
            );
            let power = tb.rx_power_from(0, vpos) / tb.rx_power_from(0, at);
            let frame = tb.client_frame(victim, seq);
            txs.push(Transmission::new(tb.transmission(
                at,
                &TxAntenna::Omni,
                power,
                &frame,
                dt,
                &mut rng,
            )));
            meta.push(TxMeta {
                kind: Kind::Spoof,
                mac: frame.src,
                position: at,
            });
        }
        if spec.outsider {
            let mac = MacAddr::local_from_index(1_000_000);
            let at = pt(40.0, 10.0);
            let payload = vec![0x5a; spec.payload_len];
            let frame = Frame::data(
                mac,
                MacAddr::BROADCAST,
                MacAddr::local_from_index(0),
                seq,
                &payload,
            );
            txs.push(Transmission::new(tb.transmission(
                at,
                &TxAntenna::Omni,
                100.0,
                &frame,
                dt,
                &mut rng,
            )));
            meta.push(TxMeta {
                kind: Kind::Outsider,
                mac,
                position: at,
            });
        }
        pool.push(Window { txs, meta });
    }
    (warmup, pool)
}

/// What the closed loop observed.
#[derive(Default)]
struct Samples {
    latencies_ms: Vec<f64>,
    /// When each window was collected, seconds from the start.
    done_s: Vec<f64>,
    submit_ms: Vec<f64>,
    collect_ms: Vec<f64>,
    /// Digest of each collected window, in order.
    digests: Vec<u64>,
    /// Per collected window, the APs whose report the link lost (bit k
    /// = AP k), read from the per-AP counters after each collect.
    lost: Vec<u8>,
}

/// The closed-loop timed phase.
struct Timed {
    wall: Duration,
    /// Host CPU steal over the timed phase.
    steal: Option<f64>,
    s: Samples,
    report: DeploymentReport,
}

fn run_timed(
    mut deployment: Deployment,
    pool: &[Window],
    seconds: f64,
    min_windows: usize,
    report: &mut Report,
) -> Timed {
    let mut s = Samples::default();
    let steal = Steal::start();
    let start = Instant::now();
    let result = closed_loop(&mut deployment, pool, start, seconds, min_windows, &mut s);
    let wall = start.elapsed();
    let steal = steal.fraction();
    if let Err(e) = result {
        report.fail(format!("deployment error in the timed phase: {e}"));
    }
    Timed {
        wall,
        steal,
        s,
        report: deployment.finish().0,
    }
}

/// Submit pool windows, keeping [`DEPTH`] in flight, until the time is
/// up and at least `min_windows` were submitted; then drain.
fn closed_loop(
    deployment: &mut Deployment,
    pool: &[Window],
    start: Instant,
    seconds: f64,
    min_windows: usize,
    out: &mut Samples,
) -> Result<(), DeployError> {
    let limit = Duration::from_secs_f64(seconds);
    let mut lost_so_far = vec![0u64; deployment.n_aps()];
    let mut submitted_at = VecDeque::new();
    let mut next = 0usize;
    while start.elapsed() < limit || next < min_windows {
        while deployment.pending_windows() >= DEPTH {
            collect(deployment, start, &mut submitted_at, &mut lost_so_far, out)?;
        }
        let window = &pool[next % pool.len()];
        let txs = window.txs.clone();
        let t = Instant::now();
        deployment.submit_window(txs)?;
        out.submit_ms.push(ms(t.elapsed()));
        submitted_at.push_back(t);
        next += 1;
    }
    while deployment.pending_windows() > 0 {
        collect(deployment, start, &mut submitted_at, &mut lost_so_far, out)?;
    }
    Ok(())
}

/// Collect the oldest window: its latency from submit, its digest, and
/// which APs' reports the link lost (the per-AP counters for a window
/// are folded in when it is collected).
fn collect(
    deployment: &mut Deployment,
    start: Instant,
    submitted_at: &mut VecDeque<Instant>,
    lost_so_far: &mut [u64],
    out: &mut Samples,
) -> Result<(), DeployError> {
    let t = Instant::now();
    let fused = deployment.collect_window()?;
    let done = Instant::now();
    let submitted = submitted_at.pop_front().expect("a window is pending");
    out.collect_ms.push(ms(done - t));
    out.latencies_ms.push(ms(done - submitted));
    out.done_s.push((done - start).as_secs_f64());
    out.digests.push(Digest::of_debug(&fused));
    let mut lost = 0u8;
    for (k, s) in deployment.per_ap_stats().iter().enumerate() {
        if s.reports_lost > lost_so_far[k] {
            lost |= 1 << k;
        }
        lost_so_far[k] = s.reports_lost;
    }
    out.lost.push(lost);
    Ok(())
}

/// One window after stage-1 decode and the per-AP DSP pass: per AP,
/// the observations with the sequence number of their transmission.
/// Both are pure functions of the captures, so a window's staging can
/// be computed once and reused every time the pool cycles back to it.
struct Staged {
    per_ap: Vec<Vec<(usize, Observation)>>,
    counts: Counts,
}

/// What one AP made of one transmission, for accuracy scoring.
#[derive(Debug, Clone, Copy)]
struct ApSeen {
    azimuth: Option<f64>,
    verdict: FrameVerdict,
}

/// The serial replay of a deployment.
struct Replay {
    aps: Vec<AccessPoint>,
    engines: Vec<Option<AoaEngine>>,
    fusion: Fusion,
    modulation: Modulation,
    snapshot_cap: usize,
    auto_train: bool,
    /// Counts over the timed windows.
    counts: Counts,
    /// Counts over the warm-up windows.
    warmup: Counts,
}

impl Replay {
    fn new(pristine: &[AccessPoint], ap_positions: &[Point], cfg: DeployConfig) -> Self {
        let aps: Vec<AccessPoint> = pristine.iter().map(pristine_copy).collect();
        Self {
            modulation: aps[0].config().modulation,
            engines: (0..aps.len()).map(|_| None).collect(),
            aps,
            fusion: Fusion::new(ap_positions.to_vec(), cfg.clone()),
            snapshot_cap: cfg.snapshot_cap,
            auto_train: cfg.auto_train_signatures,
            counts: Counts::default(),
            warmup: Counts::default(),
        }
    }

    /// Stage-1 decode of every transmission's reference capture, then
    /// each AP's DSP pass over the window, as a deployment worker runs
    /// it: `batch_with_engine` → `push_predecoded` → `process`.
    fn stage(&mut self, txs: &[Transmission], tracer: &mut Tracer) -> Staged {
        let mut counts = Counts::default();
        let decoded: Vec<_> = txs
            .iter()
            .map(|t| {
                let d = tracer.span("decode", || decode_reference(&t.per_ap[0], self.modulation));
                counts.frames += 1;
                match &d {
                    Err(_) => counts.decode_failures += 1,
                    Ok(p) if p.frame.is_none() => counts.fallbacks += 1,
                    Ok(_) => {}
                }
                d.ok()
            })
            .collect();
        let mut failed: Vec<bool> = decoded.iter().map(Option::is_none).collect();

        let mut per_ap = Vec::with_capacity(self.aps.len());
        for (k, ap) in self.aps.iter().enumerate() {
            tracer.open("dsp");
            let mut batch = match self.engines[k].take() {
                Some(e) => ap.batch_with_engine(e),
                None => ap.batch(),
            };
            batch.set_snapshot_cap(self.snapshot_cap);
            let mut seqs = Vec::with_capacity(txs.len());
            for (seq, (t, d)) in txs.iter().zip(&decoded).enumerate() {
                let Some(d) = d else { continue };
                counts.packets += 1;
                match tracer.span("dsp.extract", || batch.push_predecoded(&t.per_ap[k], d)) {
                    Ok(()) => seqs.push(seq),
                    Err(_) => {
                        counts.observe_failures += 1;
                        failed[seq] = true;
                    }
                }
            }
            let observations = tracer.span("dsp.process", || batch.process());
            self.engines[k] = Some(batch.into_engine());
            tracer.close();
            per_ap.push(seqs.into_iter().zip(observations).collect());
        }
        counts.failed_frames = failed.iter().filter(|&&f| f).count() as u64;
        Staged { per_ap, counts }
    }

    /// Replay one window: stage it (or take its cached staging), then
    /// enforce, assemble reports and fuse. `lost` masks the APs whose
    /// report the link dropped: their enforcement still ran, but fusion
    /// does not see their packets. With `seen`, also return per
    /// transmission what each AP observed (`None`: no observation).
    fn window(
        &mut self,
        window: u64,
        txs: &[Transmission],
        cached: Option<&Staged>,
        lost: u8,
        tracer: &mut Tracer,
        mut seen: Option<&mut Vec<Vec<Option<ApSeen>>>>,
    ) -> FusedWindow {
        tracer.set_window(window);
        tracer.open("window");
        let fresh;
        let staged = match cached {
            Some(s) => s,
            None => {
                fresh = self.stage(txs, tracer);
                &fresh
            }
        };
        self.counts.add_staged(&staged.counts);
        if let Some(seen) = seen.as_deref_mut() {
            *seen = vec![vec![None; self.aps.len()]; txs.len()];
        }

        let mut packets = Vec::new();
        for (k, (ap, observations)) in self.aps.iter_mut().zip(&staged.per_ap).enumerate() {
            for (seq, obs) in observations {
                let seq = *seq;
                tracer.open("enforce");
                let verdict = ap.enforce(obs);
                self.counts.enforce_calls += 1;
                match verdict {
                    FrameVerdict::Admit { spoof } => {
                        self.counts.admitted += 1;
                        if self.auto_train && spoof == SpoofVerdict::Untrained {
                            if let Some(frame) = &obs.frame {
                                ap.train_client(frame.src, obs);
                                self.counts.trained += 1;
                            }
                        }
                    }
                    FrameVerdict::Drop(DropReason::SpoofSuspected { .. })
                    | FrameVerdict::Drop(DropReason::Quarantined) => self.counts.spoof_dropped += 1,
                    FrameVerdict::Drop(DropReason::AclDenied) => self.counts.acl_denied += 1,
                    FrameVerdict::Drop(_) => {}
                }
                let packet = ApPacket {
                    ap_id: k,
                    window,
                    seq: seq as u64,
                    mac: obs.frame.as_ref().map(|f| f.src),
                    report: obs.bearing_report(seq as u64),
                    bearing_deg: obs.bearing_deg,
                    rss_db: obs.rss_db,
                    verdict,
                };
                tracer.close();
                if let Some(seen) = seen.as_deref_mut() {
                    seen[seq][k] = Some(ApSeen {
                        azimuth: obs.global_azimuth,
                        verdict,
                    });
                }
                if lost & (1 << k) == 0 {
                    packets.push(packet);
                }
            }
        }

        let n_lost = lost.count_ones() as usize;
        let n_aps = self.aps.len();
        let mut fused = tracer.span("fusion", || {
            self.fusion
                .fuse_window_degraded(window, packets, n_aps, n_lost, 0)
        });
        fused.lost_reports = n_lost;
        tracer.close();

        let c = &mut self.counts;
        c.windows += 1;
        c.bearings += fused.bearings as u64;
        c.localize_failures += fused.localize_failures as u64;
        for client in &fused.clients {
            c.fixes += u64::from(client.fix.is_some());
            c.consensus_flags += u64::from(client.consensus.is_spoof());
        }
        fused
    }
}

/// Ground-truth scoring of the first passes over the pool.
#[derive(Debug, Default)]
struct Accuracy {
    legit: u64,
    fix_ok: u64,
    bearings: u64,
    bearing_ok: u64,
    legit_pass: u64,
    spoofs: u64,
    spoof_caught: u64,
}

fn angle_gap(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(std::f64::consts::TAU);
    d.min(std::f64::consts::TAU - d)
}

impl Accuracy {
    fn score(
        &mut self,
        window: &Window,
        fused: &FusedWindow,
        seen: &[Vec<Option<ApSeen>>],
        ap_positions: &[Point],
    ) {
        for (meta, per_ap) in window.meta.iter().zip(seen) {
            let client = fused.clients.iter().find(|c| c.mac == meta.mac);
            let dropped_as_spoof = per_ap.iter().flatten().any(|s| {
                matches!(
                    s.verdict,
                    FrameVerdict::Drop(DropReason::SpoofSuspected { .. })
                        | FrameVerdict::Drop(DropReason::Quarantined)
                )
            });
            let flagged = dropped_as_spoof || client.is_some_and(|c| c.consensus.is_spoof());
            match meta.kind {
                Kind::Legit => {
                    self.legit += 1;
                    self.legit_pass += u64::from(!flagged);
                    let fix = client.and_then(|c| c.fix);
                    self.fix_ok +=
                        u64::from(fix.is_some_and(|f| f.position.dist(meta.position) <= 3.0));
                    for (ap, s) in ap_positions.iter().zip(per_ap) {
                        self.bearings += 1;
                        let truth = ap.azimuth_to(meta.position);
                        let ok = s
                            .and_then(|s| s.azimuth)
                            .is_some_and(|az| angle_gap(az, truth) <= 5f64.to_radians());
                        self.bearing_ok += u64::from(ok);
                    }
                }
                Kind::Spoof => {
                    self.spoofs += 1;
                    self.spoof_caught += u64::from(flagged);
                }
                Kind::Outsider => {}
            }
        }
    }

    fn record(&self, report: &mut Report) {
        let e = &mut report.end_to_end;
        e.insert(
            "fix_within_3m_frac",
            ratio(self.fix_ok as f64, self.legit as f64),
        );
        e.insert(
            "bearing_within_5deg_frac",
            ratio(self.bearing_ok as f64, self.bearings as f64),
        );
        e.insert(
            "spoof_caught_frac",
            ratio(self.spoof_caught as f64, self.spoofs as f64),
        );
        e.insert(
            "legit_pass_frac",
            ratio(self.legit_pass as f64, self.legit as f64),
        );
        report.notes.push(format!(
            "accuracy over the first {ACCURACY_PASSES} passes of the pool: {} legitimate frames ({} per-AP bearings), {} spoofed frames",
            self.legit, self.bearings, self.spoofs
        ));
    }
}

/// One replay of the warm-up and timed windows. With `cached`, each
/// pool window's stage-1 and DSP results are computed once and reused
/// on every pass (the output check); without, every window is staged
/// afresh, as the deployment's workers do (the traced replay). Returns
/// the replay, its wall time over the timed windows, and the
/// per-window digests.
fn replay(
    setup: &Setup,
    cfg: &DeployConfig,
    timed: &Timed,
    windows: usize,
    cached: bool,
    tracer: &mut Tracer,
    mut accuracy: Option<&mut Accuracy>,
) -> (Replay, Duration, Vec<u64>) {
    let mut r = Replay::new(&setup.pristine, &setup.ap_positions, cfg.clone());
    let mut untraced = Tracer::off();
    for (w, txs) in setup.warmup.iter().enumerate() {
        r.window(w as u64, txs, None, 0, &mut untraced, None);
    }
    r.warmup = std::mem::take(&mut r.counts);
    let first = setup.warmup.len() as u64;
    let mut seen = Vec::new();
    let mut digests = Vec::with_capacity(timed.s.digests.len());
    let start = Instant::now();
    let staged: Vec<Staged> = if cached {
        setup
            .pool
            .iter()
            .map(|w| r.stage(&w.txs, &mut untraced))
            .collect()
    } else {
        Vec::new()
    };
    for (i, &lost) in timed.s.lost.iter().take(windows).enumerate() {
        let p = i % setup.pool.len();
        let window = &setup.pool[p];
        let score = i < ACCURACY_PASSES * setup.pool.len() && accuracy.is_some();
        let fused = r.window(
            first + i as u64,
            &window.txs,
            staged.get(p),
            lost,
            tracer,
            score.then_some(&mut seen),
        );
        digests.push(Digest::of_debug(&fused));
        if let (true, Some(acc)) = (score, accuracy.as_deref_mut()) {
            acc.score(window, &fused, &seen, &setup.ap_positions);
        }
    }
    (r, start.elapsed(), digests)
}

fn check_digests(
    report: &mut Report,
    what: &str,
    timed: &Timed,
    replayed: &[u64],
    pool: &[Window],
) {
    let mismatched: Vec<usize> = timed
        .s
        .digests
        .iter()
        .zip(replayed)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    if let Some(&first) = mismatched.first() {
        report.fail(format!(
            "{what}: {} of {} fused windows differ from the deployment's (first: timed window {first})",
            mismatched.len(),
            timed.s.digests.len()
        ));
        report.failed += mismatched
            .iter()
            .map(|&i| pool[i % pool.len()].txs.len() as u64)
            .sum::<u64>();
    }
}

/// Run a deployment workload.
pub fn run(spec: &Spec, args: &Args) -> Report {
    let mut report = Report::default();
    let cfg = spec.config(args.seed);

    // Set up several times; keep the last. Earlier set-ups are torn
    // down first so only one pool is resident at a time.
    let mut all_times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Setup, Deployment)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((previous, deployment)) = kept.take() {
            drop(previous);
            deployment.finish();
        }
        match set_up(spec, args.seed) {
            Ok(s) => {
                all_times.push(s.0.times);
                kept = Some(s);
            }
            Err(e) => {
                report.fail(format!("deployment error during set-up: {e}"));
                return report;
            }
        }
    }
    let (setup, deployment) = kept.expect("at least one set-up");
    report.inputs_digest = crate::digest_captures(
        setup
            .warmup
            .iter()
            .flatten()
            .chain(setup.pool.iter().flat_map(|w| &w.txs))
            .flat_map(|t| t.per_ap.iter().map(|c| &**c)),
    );
    let times = SetupTimes::median_of(&all_times);
    report.end_to_end.insert(
        "setup_s",
        median(
            &all_times
                .iter()
                .map(SetupTimes::total_s)
                .collect::<Vec<_>>(),
        ),
    );

    let min_windows = (ACCURACY_PASSES * setup.pool.len()).max(MIN_SAMPLES);
    let timed = run_timed(
        deployment,
        &setup.pool,
        args.seconds,
        min_windows,
        &mut report,
    );
    let rss = peak_rss_mb().unwrap_or(0.0);
    let windows = timed.s.digests.len();
    let frames: Vec<u64> = (0..windows)
        .map(|i| setup.pool[i % setup.pool.len()].txs.len() as u64)
        .collect();
    report.attempted = frames.iter().sum();

    // The output check; it also scores accuracy.
    let mut accuracy = Accuracy::default();
    let (check, _, digests) = replay(
        &setup,
        &cfg,
        &timed,
        windows,
        true,
        &mut Tracer::off(),
        Some(&mut accuracy),
    );
    check_digests(&mut report, "replay", &timed, &digests, &setup.pool);
    cross_check(&mut report, &check, &timed);
    report.failed += check.counts.failed_frames;

    report.record_timing(
        &frames,
        &timed.s.latencies_ms,
        &timed.s.done_s,
        "windows",
        timed.steal,
    );
    let e = &mut report.end_to_end;
    e.insert("peak_rss_mb", rss);
    e.insert(
        "processed_frac",
        ratio(
            report.attempted.saturating_sub(report.failed) as f64,
            report.attempted as f64,
        ),
    );
    accuracy.record(&mut report);
    report.note_complements();

    if args.trace {
        // The worker-path replay of a prefix of the timed windows,
        // untraced then traced: both must match the deployment, and
        // their wall times give the tracing cost.
        let prefix = crate::traced_prefix(&timed.s.done_s, ACCURACY_PASSES * setup.pool.len());
        let (_, untraced_wall, digests) = replay(
            &setup,
            &cfg,
            &timed,
            prefix,
            false,
            &mut Tracer::off(),
            None,
        );
        check_digests(
            &mut report,
            "untraced replay",
            &timed,
            &digests,
            &setup.pool,
        );
        let mut tracer = Tracer::on();
        let (traced, traced_wall, digests) =
            replay(&setup, &cfg, &timed, prefix, false, &mut tracer, None);
        check_digests(&mut report, "traced replay", &timed, &digests, &setup.pool);
        record_layers(
            &mut report,
            &setup,
            &timed,
            &traced,
            &tracer,
            traced_wall,
            untraced_wall,
        );
        times.record(&mut report);
        write_spans(&mut report, args, spec.name, &tracer);
    }
    report
}

/// The deployment's own counters must agree with the replay's.
fn cross_check(report: &mut Report, replay: &Replay, timed: &Timed) {
    let m = &timed.report.metrics;
    let (c, w) = (&replay.counts, &replay.warmup);
    let decode_failures = c.decode_failures + w.decode_failures;
    if m.decode_failures != decode_failures {
        report.fail(format!(
            "decode failures: deployment {} vs replay {decode_failures}",
            m.decode_failures
        ));
    }
    let observe_failures: u64 = timed.report.per_ap.iter().map(|s| s.observe_failures).sum();
    if observe_failures != c.observe_failures + w.observe_failures {
        report.fail(format!(
            "observe failures: deployment {observe_failures} vs replay {}",
            c.observe_failures + w.observe_failures
        ));
    }
    let lost: u64 = timed.s.lost.iter().map(|l| u64::from(l.count_ones())).sum();
    if m.reports_lost != lost {
        report.fail(format!(
            "lost reports: deployment {} vs {lost} seen per window",
            m.reports_lost
        ));
    }
    // The replay mirrors report loss only; any other degradation would
    // make it diverge, so it must not occur on these workloads.
    for (what, n) in [
        ("skew rejections", m.skew_rejections),
        ("lost markers", m.markers_lost),
        ("corrupt reports", m.reports_corrupt),
        ("worker losses", m.worker_losses),
    ] {
        if n > 0 {
            report.fail(format!("unexpected {what}: {n}"));
        }
    }
}

fn record_layers(
    report: &mut Report,
    setup: &Setup,
    timed: &Timed,
    traced: &Replay,
    tracer: &Tracer,
    traced_wall: Duration,
    untraced_wall: Duration,
) {
    let (decode_split, dsp_split) = time_kernels(setup, traced);
    let c = &traced.counts;
    let busy = record_replay_layers(
        report,
        tracer,
        c,
        &decode_split,
        &dsp_split,
        traced_wall,
        untraced_wall,
    );

    let l = &mut report.per_layer;
    let m = &timed.report.metrics;
    l.insert("deploy.submit_ms_p50", median(&timed.s.submit_ms));
    l.insert("deploy.collect_wait_ms_p50", median(&timed.s.collect_ms));
    // Layer work per window, serially, over wall time per window in the
    // deployment.
    let wall_per_window = ratio(timed.wall.as_secs_f64(), timed.s.digests.len() as f64);
    l.insert(
        "deploy.overlap",
        ratio(busy / 1e6 / c.windows as f64, wall_per_window),
    );
    l.insert(
        "deploy.ingest_backpressure",
        m.ingest_backpressure_events as f64,
    );
    l.insert(
        "deploy.report_backpressure",
        m.report_backpressure_events as f64,
    );
    l.insert(
        "deploy.max_fusion_queue_depth",
        m.max_fusion_queue_depth as f64,
    );
    let retransmits: u64 = timed
        .report
        .per_ap
        .iter()
        .map(|s| s.report_retransmits)
        .sum();
    l.insert("deploy.report_retransmits", retransmits as f64);
    l.insert("deploy.reports_lost", m.reports_lost as f64);
    l.insert("deploy.skew_rejections", m.skew_rejections as f64);
    l.insert("deploy.degraded_windows", m.degraded_windows as f64);
}

/// Time the decode and DSP kernels over passes of the pool, for at
/// least a second and at least one full pass.
fn time_kernels(setup: &Setup, replay: &Replay) -> (DecodeSplit, DspSplit) {
    let mut decode = DecodeSplit::default();
    let mut dsp = DspSplit::default();
    let mut kernels: Vec<DspKernels> = replay.aps.iter().map(DspKernels::new).collect();
    let start = Instant::now();
    while decode.frames == 0 || start.elapsed() < Duration::from_secs(1) {
        for window in &setup.pool {
            for t in &window.txs {
                decode.time(&t.per_ap[0], replay.modulation);
                let Ok(d) = decode_reference(&t.per_ap[0], replay.modulation) else {
                    continue;
                };
                for ((ap, k), capture) in replay.aps.iter().zip(&mut kernels).zip(&t.per_ap) {
                    dsp.time(ap, k, capture, &d, replay.snapshot_cap);
                }
            }
        }
    }
    (decode, dsp)
}
