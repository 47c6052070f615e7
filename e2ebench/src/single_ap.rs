//! The `single_ap_18B` workload: the paper's single-AP prototype.
//!
//! A circular-array AP in the Fig-4 office trains every client once,
//! then takes captures one at a time through
//! [`AccessPoint::receive`] — the one-shot `observe` path — with
//! spoofed frames claiming trained MACs interleaved. The replay runs
//! the same captures through `decode_reference`, a reused-engine
//! `PacketBatch` and `enforce`.

use crate::kernels::{DecodeSplit, DspKernels, DspSplit};
use crate::layers::{
    pristine_copy, record_replay_layers, write_spans, Counts, SetupTimes, SETUP_REPS,
};
use crate::stats::{median, ms, peak_rss_mb, ratio, us, Digest, Steal, MIN_SAMPLES};
use crate::trace::Tracer;
use crate::{Args, Report, ACCURACY_PASSES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sa_aoa::estimator::AoaEngine;
use sa_channel::geom::Point;
use sa_channel::pattern::TxAntenna;
use sa_linalg::CMat;
use sa_mac::MacAddr;
use sa_testbed::{ApArray, Testbed};
use secureangle::pipeline::{
    decode_reference, AccessPoint, DropReason, FrameVerdict, Observation, ObserveError,
};
use std::time::{Duration, Instant};

/// Trained clients that stay silent after training; spoofers claim
/// their MACs. Fixed rather than drawn per seed, so every seed scores
/// bearings over the same 16 active clients.
const VICTIMS: [usize; 4] = [3, 8, 13, 18];
/// Legitimate frames per active client in the pool.
const FRAMES_PER_CLIENT: usize = 20;
/// Spoofed frames per victim in the pool.
const SPOOFS_PER_VICTIM: usize = 20;
/// Environment time between a client's successive frames, seconds.
const FRAME_DT_S: f64 = 0.5;

struct Capture {
    buffer: CMat,
    spoof: bool,
    /// Where the transmitter really is.
    position: Point,
}

struct Setup {
    ap_position: Point,
    pristine: AccessPoint,
    training: Vec<(MacAddr, CMat)>,
    pool: Vec<Capture>,
    times: SetupTimes,
}

fn set_up(seed: u64) -> Result<(Setup, AccessPoint), ObserveError> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut tb = Testbed::single_ap(ApArray::Circular, seed);
    times.build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51_a9_1e);
    let ids: Vec<usize> = tb.office.clients.iter().map(|c| c.id).collect();
    let training: Vec<(MacAddr, CMat)> = ids
        .iter()
        .map(|&id| {
            (
                Testbed::client_mac(id),
                tb.client_capture(0, id, 0, 0.0, &mut rng),
            )
        })
        .collect();
    let active: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|id| !VICTIMS.contains(id))
        .collect();
    let mut pool = Vec::new();
    for k in 0..FRAMES_PER_CLIENT {
        let dt = FRAME_DT_S * (k + 1) as f64;
        for &id in &active {
            pool.push(Capture {
                buffer: tb.client_capture(0, id, (k + 1) as u16, dt, &mut rng),
                spoof: false,
                position: tb.office.client(id).position,
            });
        }
    }
    for k in 0..SPOOFS_PER_VICTIM {
        let dt = FRAME_DT_S * (k + 1) as f64;
        for victim in VICTIMS {
            // An omni attacker standing at another client's spot,
            // power-matched to the victim at the AP (the §4 attack).
            let at = active[(rng.gen::<f64>() * active.len() as f64) as usize % active.len()];
            let at = tb.office.client(at).position;
            let power =
                tb.rx_power_from(0, tb.office.client(victim).position) / tb.rx_power_from(0, at);
            let frame = tb.client_frame(victim, 1000 + k as u16);
            pool.push(Capture {
                buffer: tb.capture(0, at, &TxAntenna::Omni, power, &frame, dt, &mut rng),
                spoof: true,
                position: at,
            });
        }
    }
    crate::shuffle(&mut pool, &mut rng);
    times.synth_s = t.elapsed().as_secs_f64();
    times.captures = (training.len() + pool.len()) as u64;

    let mut ap = tb.nodes.remove(0).ap;
    let pristine = pristine_copy(&ap);
    let t = Instant::now();
    train(&mut ap, &training)?;
    times.warmup_ms = ms(t.elapsed());
    let setup = Setup {
        ap_position: ap.config().position,
        pristine,
        training,
        pool,
        times,
    };
    Ok((setup, ap))
}

/// The paper's initial training stage: one authenticated frame each.
fn train(ap: &mut AccessPoint, training: &[(MacAddr, CMat)]) -> Result<(), ObserveError> {
    for (mac, buffer) in training {
        let obs = ap.observe(buffer)?;
        ap.train_client(*mac, &obs);
    }
    Ok(())
}

/// The output a verdict is checked by: the verdict and the observation
/// fields it was made from.
fn verdict_digest(obs: &Observation, verdict: &FrameVerdict) -> u64 {
    Digest::of_debug(&(
        verdict,
        obs.frame.as_ref().map(|f| f.src),
        obs.bearing_deg,
        obs.global_azimuth,
        obs.rss_db,
        obs.start,
        obs.extent,
        obs.cfo,
    ))
}

fn digest(result: &Result<(Observation, FrameVerdict), ObserveError>) -> u64 {
    match result {
        Ok((obs, verdict)) => verdict_digest(obs, verdict),
        Err(e) => Digest::of_debug(e),
    }
}

struct Timed {
    /// Host CPU steal over the timed phase.
    steal: Option<f64>,
    latencies_ms: Vec<f64>,
    /// When each call returned, seconds from the start of the phase.
    done_s: Vec<f64>,
    digests: Vec<u64>,
    errors: u64,
}

fn run_timed(ap: &mut AccessPoint, pool: &[Capture], seconds: f64) -> Timed {
    let limit = Duration::from_secs_f64(seconds);
    let min_frames = (ACCURACY_PASSES * pool.len()).max(MIN_SAMPLES);
    let steal = Steal::start();
    let mut out = Timed {
        steal: None,
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        digests: Vec::new(),
        errors: 0,
    };
    let start = Instant::now();
    let mut next = 0usize;
    while start.elapsed() < limit || next < min_frames {
        let capture = &pool[next % pool.len()];
        let t = Instant::now();
        let result = ap.receive(&capture.buffer);
        out.latencies_ms.push(ms(t.elapsed()));
        out.done_s.push(start.elapsed().as_secs_f64());
        out.errors += u64::from(result.is_err());
        out.digests.push(digest(&result));
        next += 1;
    }
    out.steal = steal.fraction();
    out
}

/// A capture after stage-1 decode and the DSP pass — a pure function of
/// the capture, so it can be computed once per pool entry.
struct Staged {
    result: Result<Observation, ObserveError>,
    counts: Counts,
}

/// What the replay made of one frame.
struct Outcome {
    digest: u64,
    azimuth: Option<f64>,
    verdict: Option<FrameVerdict>,
}

/// Ground-truth scoring of the first passes over the pool.
#[derive(Debug, Default)]
struct Accuracy {
    legit: u64,
    bearing_ok: u64,
    ray_ok: u64,
    legit_pass: u64,
    spoofs: u64,
    spoof_caught: u64,
}

/// Distance from `p` to the ray leaving `origin` at azimuth `az`.
fn distance_to_ray(origin: Point, az: f64, p: Point) -> f64 {
    let (dx, dy) = (p.x - origin.x, p.y - origin.y);
    let along = dx * az.cos() + dy * az.sin();
    if along <= 0.0 {
        return origin.dist(p);
    }
    (dx * az.sin() - dy * az.cos()).abs()
}

impl Accuracy {
    fn score(&mut self, capture: &Capture, ap_position: Point, outcome: &Outcome) {
        let (azimuth, verdict) = (outcome.azimuth, outcome.verdict);
        let dropped_as_spoof = matches!(
            verdict,
            Some(FrameVerdict::Drop(
                DropReason::SpoofSuspected { .. } | DropReason::Quarantined
            ))
        );
        if capture.spoof {
            self.spoofs += 1;
            self.spoof_caught += u64::from(dropped_as_spoof);
            return;
        }
        self.legit += 1;
        self.legit_pass += u64::from(verdict.is_some_and(|v| v.admitted()));
        let truth = ap_position.azimuth_to(capture.position);
        if let Some(az) = azimuth {
            let d = (az - truth).rem_euclid(std::f64::consts::TAU);
            let gap = d.min(std::f64::consts::TAU - d);
            self.bearing_ok += u64::from(gap <= 5f64.to_radians());
            self.ray_ok += u64::from(distance_to_ray(ap_position, az, capture.position) <= 3.0);
        }
    }
}

struct Replay {
    ap: AccessPoint,
    engine: Option<AoaEngine>,
    counts: Counts,
}

impl Replay {
    fn new(setup: &Setup) -> Result<Self, ObserveError> {
        let mut ap = pristine_copy(&setup.pristine);
        train(&mut ap, &setup.training)?;
        let counts = Counts {
            trained: setup.training.len() as u64,
            ..Counts::default()
        };
        Ok(Self {
            ap,
            engine: None,
            counts,
        })
    }

    /// Stage-1 decode and a one-packet pass through the reused engine,
    /// the way the batched path handles a capture.
    fn stage(&mut self, buffer: &CMat, tracer: &mut Tracer) -> Staged {
        let mut counts = Counts::default();
        let modulation = self.ap.config().modulation;
        let decoded = tracer.span("decode", || decode_reference(buffer, modulation));
        counts.frames += 1;
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                counts.decode_failures += 1;
                return Staged {
                    result: Err(e),
                    counts,
                };
            }
        };
        counts.fallbacks += u64::from(decoded.frame.is_none());

        tracer.open("dsp");
        let mut batch = match self.engine.take() {
            Some(e) => self.ap.batch_with_engine(e),
            None => self.ap.batch(),
        };
        counts.packets += 1;
        let pushed = tracer.span("dsp.extract", || batch.push_predecoded(buffer, &decoded));
        let obs = tracer.span("dsp.process", || batch.process()).pop();
        self.engine = Some(batch.into_engine());
        tracer.close();
        let result = match pushed {
            Ok(()) => Ok(obs.expect("one staged packet yields one observation")),
            Err(e) => {
                counts.observe_failures += 1;
                counts.failed_frames += 1;
                Err(e)
            }
        };
        Staged { result, counts }
    }

    /// Replay one frame: stage it (or take its cached staging), then
    /// enforce.
    fn frame(&mut self, buffer: &CMat, cached: Option<&Staged>, tracer: &mut Tracer) -> Outcome {
        let fresh;
        let staged = match cached {
            Some(s) => s,
            None => {
                fresh = self.stage(buffer, tracer);
                &fresh
            }
        };
        self.counts.add_staged(&staged.counts);
        let obs = match &staged.result {
            Ok(obs) => obs,
            Err(e) => {
                return Outcome {
                    digest: Digest::of_debug(e),
                    azimuth: None,
                    verdict: None,
                }
            }
        };
        let verdict = tracer.span("enforce", || self.ap.enforce(obs));
        let c = &mut self.counts;
        c.enforce_calls += 1;
        match verdict {
            FrameVerdict::Admit { .. } => c.admitted += 1,
            FrameVerdict::Drop(DropReason::SpoofSuspected { .. } | DropReason::Quarantined) => {
                c.spoof_dropped += 1
            }
            FrameVerdict::Drop(DropReason::AclDenied) => c.acl_denied += 1,
            FrameVerdict::Drop(_) => {}
        }
        Outcome {
            digest: verdict_digest(obs, &verdict),
            azimuth: obs.global_azimuth,
            verdict: Some(verdict),
        }
    }
}

/// Replay the timed frames. With `cached`, each pool capture is staged
/// once and reused on every pass (the output check); without, every
/// frame is staged afresh (the traced replay). Returns the replay, its
/// wall time and the per-frame digests.
fn replay(
    setup: &Setup,
    frames: usize,
    cached: bool,
    tracer: &mut Tracer,
    mut accuracy: Option<&mut Accuracy>,
) -> Result<(Replay, Duration, Vec<u64>), ObserveError> {
    let mut r = Replay::new(setup)?;
    let mut digests = Vec::with_capacity(frames);
    let start = Instant::now();
    let staged: Vec<Staged> = if cached {
        let mut off = Tracer::off();
        setup
            .pool
            .iter()
            .map(|c| r.stage(&c.buffer, &mut off))
            .collect()
    } else {
        Vec::new()
    };
    for i in 0..frames {
        let p = i % setup.pool.len();
        let capture = &setup.pool[p];
        tracer.set_window(i as u64);
        tracer.open("frame");
        let outcome = r.frame(&capture.buffer, staged.get(p), tracer);
        tracer.close();
        digests.push(outcome.digest);
        let score = i < ACCURACY_PASSES * setup.pool.len();
        if let (true, Some(acc)) = (score, accuracy.as_deref_mut()) {
            acc.score(capture, setup.ap_position, &outcome);
        }
    }
    Ok((r, start.elapsed(), digests))
}

fn check_digests(report: &mut Report, what: &str, timed: &[u64], replayed: &[u64]) {
    let mismatched = timed.iter().zip(replayed).filter(|(a, b)| a != b).count();
    if mismatched > 0 {
        let first = timed
            .iter()
            .zip(replayed)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        report.fail(format!(
            "{what}: {mismatched} of {} verdicts differ from AccessPoint::receive (first: frame {first})",
            timed.len()
        ));
        report.failed += mismatched as u64;
    }
}

/// Run `single_ap_18B`.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut all_times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        match set_up(args.seed) {
            Ok(s) => {
                all_times.push(s.0.times);
                kept = Some(s);
            }
            Err(e) => {
                report.fail(format!("training observation failed: {e}"));
                return report;
            }
        }
    }
    let (setup, mut ap) = kept.expect("at least one set-up");
    report.inputs_digest = crate::digest_captures(
        setup
            .training
            .iter()
            .map(|(_, c)| c)
            .chain(setup.pool.iter().map(|c| &c.buffer)),
    );
    report.end_to_end.insert(
        "setup_s",
        median(
            &all_times
                .iter()
                .map(SetupTimes::total_s)
                .collect::<Vec<_>>(),
        ),
    );

    let timed = run_timed(&mut ap, &setup.pool, args.seconds);
    let rss = peak_rss_mb().unwrap_or(0.0);
    let frames = timed.digests.len();
    report.attempted = frames as u64;
    report.failed = timed.errors;
    if timed.errors > 0 {
        report.fail(format!(
            "AccessPoint::receive returned {} errors",
            timed.errors
        ));
    }

    let mut accuracy = Accuracy::default();
    let (_, _, digests) = match replay(
        &setup,
        frames,
        true,
        &mut Tracer::off(),
        Some(&mut accuracy),
    ) {
        Ok(r) => r,
        Err(e) => {
            report.fail(format!("replay training failed: {e}"));
            return report;
        }
    };
    check_digests(&mut report, "replay", &timed.digests, &digests);

    report.record_timing(
        &vec![1; frames],
        &timed.latencies_ms,
        &timed.done_s,
        "receive calls",
        timed.steal,
    );
    let a = &accuracy;
    let e = &mut report.end_to_end;
    e.insert("peak_rss_mb", rss);
    e.insert(
        "processed_frac",
        ratio(
            frames.saturating_sub(report.failed as usize) as f64,
            frames as f64,
        ),
    );
    e.insert("fix_within_3m_frac", ratio(a.ray_ok as f64, a.legit as f64));
    e.insert(
        "bearing_within_5deg_frac",
        ratio(a.bearing_ok as f64, a.legit as f64),
    );
    e.insert(
        "spoof_caught_frac",
        ratio(a.spoof_caught as f64, a.spoofs as f64),
    );
    e.insert(
        "legit_pass_frac",
        ratio(a.legit_pass as f64, a.legit as f64),
    );
    report.notes.push(format!(
        "accuracy over the first {ACCURACY_PASSES} passes of the pool: {} legitimate and {} spoofed frames; \
         a single AP fixes a client to its bearing ray, so fix_within_3m_frac counts \
         frames whose ray passes within 3 m of the client",
        a.legit, a.spoofs
    ));
    report.note_complements();

    if args.trace {
        // The batched-path replay of a prefix of the timed frames,
        // untraced then traced: both must match `receive`, and their
        // wall times give the tracing cost.
        let prefix = crate::traced_prefix(&timed.done_s, ACCURACY_PASSES * setup.pool.len());
        let mut tracer = Tracer::on();
        let untraced = replay(&setup, prefix, false, &mut Tracer::off(), None);
        match untraced.and_then(|u| Ok((u, replay(&setup, prefix, false, &mut tracer, None)?))) {
            Ok(((_, untraced_wall, untraced_digests), (traced, traced_wall, digests))) => {
                check_digests(
                    &mut report,
                    "untraced replay",
                    &timed.digests,
                    &untraced_digests,
                );
                check_digests(&mut report, "traced replay", &timed.digests, &digests);
                record_layers(
                    &mut report,
                    &setup,
                    &traced,
                    &tracer,
                    traced_wall,
                    untraced_wall,
                );
                SetupTimes::median_of(&all_times).record(&mut report);
                write_spans(&mut report, args, "single_ap_18B", &tracer);
            }
            Err(e) => report.fail(format!("traced replay training failed: {e}")),
        }
    }
    report
}

fn record_layers(
    report: &mut Report,
    setup: &Setup,
    traced: &Replay,
    tracer: &Tracer,
    traced_wall: Duration,
    untraced_wall: Duration,
) {
    // Kernel split and the one-shot paths, on one pass of the pool.
    let ap = &traced.ap;
    let modulation = ap.config().modulation;
    let mut decode_split = DecodeSplit::default();
    let mut dsp_split = DspSplit::default();
    let mut kernels = DspKernels::new(ap);
    let (mut observe_us, mut one_shot_us) = (0.0, 0.0);
    for capture in &setup.pool {
        decode_split.time(&capture.buffer, modulation);
        let t = Instant::now();
        let obs = ap.observe(&capture.buffer);
        observe_us += us(t.elapsed());
        let t = Instant::now();
        let one = decode_reference(&capture.buffer, modulation).map(|d| {
            let mut batch = ap.batch();
            let _ = batch.push_predecoded(&capture.buffer, &d);
            (batch.process(), d)
        });
        one_shot_us += us(t.elapsed());
        if let (Ok(_), Ok((_, d))) = (obs, one) {
            dsp_split.time(ap, &mut kernels, &capture.buffer, &d, 0);
        }
    }

    record_replay_layers(
        report,
        tracer,
        &traced.counts,
        &decode_split,
        &dsp_split,
        traced_wall,
        untraced_wall,
    );
    let l = &mut report.per_layer;
    let n = setup.pool.len() as f64;
    let observe = ratio(observe_us, n);
    l.insert("observe.us_per_frame", observe);
    l.insert("observe.batch_of_one_us_per_frame", ratio(one_shot_us, n));
    // The one-shot path against the amortised one: decode plus a
    // reused-engine DSP pass per frame.
    let amortised = l["decode.us_per_frame"] + l["dsp.us_per_packet"];
    l.insert("observe.setup_overhead_ratio", ratio(observe, amortised));
}
