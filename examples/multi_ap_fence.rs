//! Multi-AP deployment demo: N APs fence the Figure-4 office.
//!
//! A [`sa_deploy::Deployment`] drives N access points concurrently over
//! the office testbed: window 0 trains every client's signature profile
//! and consensus reference, steady-state windows fuse bearings into
//! localization fixes, and the final window injects two intruders —
//! a MAC spoofer sitting on the AP0→victim ray (fooling AP0's own
//! signature check) and a parking-lot transmitter outside the virtual
//! fence. Cross-AP consensus catches the first; the fence catches the
//! second.
//!
//! ```text
//! cargo run --release --example multi_ap_fence [-- --aps 4 --windows 3 --seed 2010 --smoke]
//!     [--loss 0.1] [--retries 3] [--skew 2] [--churn] [--stream]
//!     [--chaos 6] [--metrics-out telemetry.prom]
//! ```
//!
//! Degraded-mode knobs: `--loss R` runs the worker report links at drop
//! probability `R` per attempt with `--retries` retransmits; `--skew W`
//! gives every AP a deterministic clock offset of up to ±`W` windows
//! (tolerance grows to match); `--churn` removes the last AP before the
//! attack window, exercising mid-run membership change. `--stream`
//! runs the steady-state windows through `Deployment::run_stream`
//! (submit-then-collect, one window at a time) instead of submitting
//! them all ahead; the fused output is byte-identical either way.
//! `--smoke` asserts the headline claims (used by CI, with and without
//! the degraded knobs) and exits non-zero on failure.
//!
//! `--chaos SEED` attaches the canonical scripted fault schedule
//! ([`sa_deploy::faults::FaultPlan::scripted`]) — one AP turns
//! byzantine (+15° on every bearing), the rest draw wire corruption,
//! burst report loss, worker stalls, or clock-drift onset — and arms
//! the AP health layer ([`sa_deploy::HealthConfig::enabled`]). The run
//! ends with a per-AP health summary (scores, quarantines, fault
//! counters); under `--smoke` it asserts the byzantine AP was
//! quarantined and the headline claims still hold on the surviving
//! fleet. Use `--windows 10` or more so the scripted onsets (window
//! 4+) and the quarantine response both land before the attack window.
//!
//! `--metrics-out PATH` turns the full telemetry surface on
//! (`TelemetryConfig::full()`): the run writes its Prometheus text
//! exposition to `PATH` and the JSON snapshot to `PATH.json`, prints
//! per-stage latency quantiles and the flight-recorder post-mortem for
//! the spoofed victim, and — under `--smoke` — validates both outputs
//! with the in-repo exposition/JSON parsers. Telemetry is out-of-band:
//! the fused windows are byte-identical with or without this flag.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::geom::pt;
use sa_channel::pattern::TxAntenna;
use sa_deploy::faults::{FaultEvent, FaultPlan};
use sa_deploy::{
    ApSkew, DeployConfig, Deployment, HealthConfig, LinkConfig, TelemetryConfig, Transmission,
};
use sa_testbed::Testbed;
use secureangle::fence::{FenceConfig, VirtualFence};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let n_aps: usize = arg("--aps").and_then(|s| s.parse().ok()).unwrap_or(4);
    let n_windows: u64 = arg("--windows").and_then(|s| s.parse().ok()).unwrap_or(3);
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(2010);
    let loss: f64 = arg("--loss").and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let retries: u32 = arg("--retries").and_then(|s| s.parse().ok()).unwrap_or(3);
    let skew: i64 = arg("--skew").and_then(|s| s.parse().ok()).unwrap_or(0);
    let churn = flag("--churn");
    let stream = flag("--stream");
    let chaos: Option<u64> = arg("--chaos").and_then(|s| s.parse().ok());
    let smoke = flag("--smoke");
    let metrics_out = arg("--metrics-out");
    let victim = 5usize;

    println!(
        "Multi-AP fence: {} APs x 20 clients x {} windows (seed {})",
        n_aps, n_windows, seed
    );
    if loss > 0.0 || skew != 0 || churn {
        println!(
            "degraded mode: loss {:.0}% x{} retries, clock skew ±{} windows, churn {}",
            loss * 100.0,
            retries,
            skew,
            if churn { "on" } else { "off" }
        );
    }
    // --chaos: the canonical scripted fault schedule, plus the health
    // layer that is supposed to absorb it.
    let fault_plan = chaos.map(|s| FaultPlan::scripted(n_aps, s));
    if let Some(plan) = &fault_plan {
        println!("chaos mode: scripted fault plan (seed {})", plan.seed);
        for e in &plan.events {
            println!("  {:?}", e);
        }
    }

    let tb = Testbed::deployment(n_aps, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfe9ce);
    let fence = VirtualFence::new(tb.office.fence_polygon(), FenceConfig::default());
    let clients: Vec<usize> = (1..=20).collect();
    let truth: Vec<_> = clients
        .iter()
        .map(|&id| tb.office.client(id).position)
        .collect();

    // Traffic: training window, steady-state windows, then the attack
    // window (everyone but the victim, plus the two intruders). With
    // --churn the last AP is removed before the attack window, so its
    // captures cover only the surviving membership.
    let last_nodes: Vec<usize> = if churn {
        (0..n_aps - 1).collect()
    } else {
        (0..n_aps).collect()
    };
    let mut windows: Vec<Vec<Transmission>> = Vec::new();
    for w in 0..n_windows.max(2) - 1 {
        windows.push(
            tb.window_traffic(&clients, w as u16, 0.0, &mut rng)
                .into_iter()
                .map(Transmission::new)
                .collect(),
        );
    }
    let others: Vec<usize> = clients.iter().copied().filter(|&c| c != victim).collect();
    // After churn the consensus re-baselines (references trained under
    // the old membership are geometry-stale), so the fleet needs one
    // clean steady window on the new membership before it can catch a
    // displaced spoofer again.
    let rebaseline_window: Option<Vec<Transmission>> = churn.then(|| {
        tb.window_traffic_for(&last_nodes, &clients, (n_windows + 1) as u16, 0.0, &mut rng)
            .into_iter()
            .map(Transmission::new)
            .collect()
    });
    let mut last: Vec<Transmission> = tb
        .window_traffic_for(&last_nodes, &others, n_windows as u16, 0.0, &mut rng)
        .into_iter()
        .map(Transmission::new)
        .collect();
    // Intruder 1: MAC spoofer on the AP0→victim ray, 3.5 m beyond the
    // victim, power-matched at AP0 — close enough in angle that AP0's
    // own signature check passes.
    let vpos = tb.office.client(victim).position;
    let ap0 = tb.nodes[0].ap.config().position;
    let az = ap0.azimuth_to(vpos);
    let apos = pt(vpos.x + 3.5 * az.cos(), vpos.y + 3.5 * az.sin());
    let tx_power = tb.rx_power_from(0, vpos) / tb.rx_power_from(0, apos);
    let spoof_frame = tb.client_frame(victim, 99);
    last.push(Transmission::new(tb.transmission_for(
        &last_nodes,
        apos,
        &TxAntenna::Omni,
        tx_power,
        &spoof_frame,
        0.0,
        &mut rng,
    )));
    // Intruder 2: parking-lot transmitter outside the building, +20 dB,
    // using an unlisted MAC (id 77 is on no ACL).
    let outsider_pos = pt(36.0, 2.0);
    let outsider_frame = sa_mac::Frame::data(
        sa_mac::MacAddr::local_from_index(77),
        sa_mac::MacAddr::BROADCAST,
        sa_mac::MacAddr::local_from_index(0),
        1,
        b"outside",
    );
    last.push(Transmission::new(tb.transmission_for(
        &last_nodes,
        outsider_pos,
        &TxAntenna::Omni,
        100.0,
        &outsider_frame,
        0.0,
        &mut rng,
    )));

    // Run the deployment, with the degraded-mode knobs applied: a lossy
    // report link with bounded retransmit, and per-AP clock skews from
    // the testbed's deterministic profile (aligned away by the
    // coordinator as long as they stay within tolerance).
    let cfg = DeployConfig {
        link: LinkConfig {
            loss_rate: loss,
            retry_limit: retries,
            seed: seed ^ 0x105e,
        },
        max_skew_windows: skew.unsigned_abs().max(2),
        faults: fault_plan.clone(),
        health: if chaos.is_some() {
            HealthConfig::enabled()
        } else {
            HealthConfig::default()
        },
        telemetry: if metrics_out.is_some() {
            TelemetryConfig::full()
        } else {
            TelemetryConfig::disabled()
        },
        ..DeployConfig::default()
    };
    let aps: Vec<_> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let mut deployment = if skew != 0 {
        let skews: Vec<ApSkew> = Testbed::skew_profile(n_aps, skew, seed)
            .into_iter()
            .map(|(window_offset, seq_offset)| ApSkew {
                window_offset,
                seq_offset,
                drift_ppw: 0.0,
            })
            .collect();
        Deployment::with_skews(aps, cfg, skews)
    } else {
        Deployment::new(aps, cfg)
    };
    let mut fused = Vec::new();
    if stream {
        // One window at a time through `run_stream`. Same fused bytes
        // as the submit-all path below.
        fused.extend(
            deployment
                .run_stream(windows)
                .expect("streamed steady-state windows"),
        );
    } else {
        for w in windows {
            deployment.submit_window(w).expect("submit window");
        }
    }
    if churn {
        // Close the steady-state windows, then pull the last AP before
        // the attack window: in-flight windows drain, membership
        // shrinks, consensus re-baselines.
        while let Ok(f) = deployment.collect_window() {
            fused.push(f);
        }
        let removed = deployment.remove_ap(n_aps - 1).expect("mid-run AP removal");
        println!(
            "churn: removed ap{} mid-run ({} trained profiles ride along), {} APs live",
            n_aps - 1,
            removed.spoof.trained_count(),
            deployment.live_aps()
        );
        // One clean window on the new membership retrains the
        // re-baselined consensus references.
        if let Some(w) = rebaseline_window {
            fused.push(deployment.run_window(w).expect("re-baseline window"));
        }
    }
    deployment
        .submit_window(last)
        .expect("submit attack window");
    while let Ok(f) = deployment.collect_window() {
        fused.push(f);
    }

    // Steady-state survey (last all-legitimate window).
    let survey = &fused[fused.len() - 2];
    println!(
        "\nwindow {} (steady state): fused fixes vs truth ({}/{} APs reporting, {} quarantined)",
        survey.window,
        survey.expected_aps - survey.lost_reports - survey.stalled_aps,
        survey.expected_aps,
        survey.quarantined_aps
    );
    let mut within_3m = 0usize;
    let mut fixed = 0usize;
    for c in &survey.clients {
        let id = clients
            .iter()
            .position(|&i| Testbed::client_mac(i) == c.mac)
            .map(|i| clients[i])
            .unwrap_or(0);
        match (c.fix, c.track) {
            (Some(fix), Some(track)) => {
                let err = fix.position.dist(truth[id - 1]);
                fixed += 1;
                if err <= 3.0 {
                    within_3m += 1;
                }
                println!(
                    "  client {:2}: fix ({:5.1},{:5.1})  err {:4.1} m  residual {:4.1} m  {} APs  fence: {}",
                    id,
                    fix.position.x,
                    fix.position.y,
                    err,
                    fix.residual_m,
                    c.n_aps,
                    if fence.contains(track.position) { "inside" } else { "OUTSIDE" },
                );
            }
            _ => println!("  client {:2}: no fix ({} APs)", id, c.n_aps),
        }
    }
    println!(
        "  => {}/{} clients fixed, {} within 3 m",
        fixed,
        survey.clients.len(),
        within_3m
    );

    // Attack window.
    let attack = fused.last().expect("attack window");
    println!("\nwindow {} (attack):", attack.window);
    let victim_mac = Testbed::client_mac(victim);
    let outsider_mac = sa_mac::MacAddr::local_from_index(77);
    let mut spoof_caught = false;
    let mut outsider_outside = false;
    for c in &attack.clients {
        if c.mac == victim_mac {
            println!(
                "  spoofer (as client {}): {} APs admitted, {} flagged, consensus {:?}",
                victim, c.admitted_aps, c.flagged_aps, c.consensus
            );
            spoof_caught = c.consensus.is_spoof();
        } else if c.mac == outsider_mac {
            let inside = c.fix.map(|f| fence.contains(f.position)).unwrap_or(false);
            println!(
                "  outsider: fix {:?}, fence: {}",
                c.fix.map(|f| (f.position.x, f.position.y)),
                if inside {
                    "inside?!"
                } else {
                    "OUTSIDE — rejected"
                }
            );
            outsider_outside = !inside && c.fix.is_some();
        }
    }

    // Flight-recorder post-mortem: render the recorded evidence trail
    // behind the spoof verdict before the deployment is consumed.
    let mut explain_ok = metrics_out.is_none();
    if metrics_out.is_some() {
        match deployment.explain(&victim_mac) {
            Some(post_mortem) => {
                explain_ok = post_mortem.contains("SPOOF");
                println!("\nflight recorder post-mortem:\n{post_mortem}");
            }
            None => println!("\nflight recorder: no events recorded for {victim_mac}"),
        }
    }

    // Post-run health summary: where every AP's score ended up and who
    // sat in quarantine when the run closed.
    let quarantined_now = deployment.quarantined_aps();
    let byz_quarantined = fault_plan.as_ref().is_none_or(|plan| {
        plan.events.iter().all(|e| match *e {
            FaultEvent::ByzantineBias { ap, .. } => quarantined_now.contains(&ap),
            _ => true,
        })
    });
    if chaos.is_some() {
        println!("\nAP health summary:");
        for k in 0..n_aps {
            println!(
                "  ap{}: score {:.2}{}",
                k,
                deployment.health_score(k),
                if quarantined_now.contains(&k) {
                    "  QUARANTINED"
                } else {
                    ""
                }
            );
        }
    }

    // Report.
    let (report, aps) = deployment.finish();
    println!("\ndeployment report:");
    println!(
        "  {} APs, {} windows, {} transmissions, {} packets ({} decode failures)",
        report.n_aps,
        report.metrics.windows,
        report.metrics.transmissions,
        report.metrics.packets_dispatched,
        report.metrics.decode_failures
    );
    println!(
        "  {} bearings fused -> {} fixes ({} degenerate), {} consensus flags",
        report.metrics.fused_bearings,
        report.metrics.fixes,
        report.metrics.localize_failures,
        report.metrics.consensus_flags
    );
    println!(
        "  backpressure: ingest {}, report {}; fusion queue high-water {}",
        report.metrics.ingest_backpressure_events,
        report.metrics.report_backpressure_events,
        report.metrics.max_fusion_queue_depth
    );
    println!(
        "  link health: {} drops / {} retransmits / {} reports lost; {} skew rejections; {} degraded windows",
        report.per_ap.iter().map(|s| s.report_drops).sum::<u64>(),
        report.per_ap.iter().map(|s| s.report_retransmits).sum::<u64>(),
        report.metrics.reports_lost,
        report.metrics.skew_rejections,
        report.metrics.degraded_windows
    );
    if report.metrics.aps_added + report.metrics.aps_removed + report.metrics.worker_losses > 0 {
        println!(
            "  churn: {} added, {} removed, {} worker losses",
            report.metrics.aps_added, report.metrics.aps_removed, report.metrics.worker_losses
        );
    }
    if chaos.is_some() {
        println!(
            "  self-healing: {} quarantines / {} re-admissions / {} watchdog reaps; \
             {} corrupt reports rejected, {} stalled windows",
            report.metrics.aps_quarantined,
            report.metrics.aps_readmitted,
            report.metrics.watchdog_reaps,
            report.metrics.reports_corrupt,
            report.metrics.windows_stalled
        );
    }
    for (k, s) in report.per_ap.iter().enumerate() {
        println!(
            "  ap{}: {} packets, {} observed, {} admitted, {} spoof-dropped, {} trained, {} reports lost",
            k, s.packets, s.observed, s.admitted, s.dropped_spoof, s.trained, s.reports_lost
        );
    }
    for c in report.clients.iter().filter(|c| c.consensus_flags > 0) {
        println!(
            "  consensus-flagged: {} ({} flags, reference {:?})",
            c.mac,
            c.consensus_flags,
            c.reference.map(|p| (p.x, p.y))
        );
    }
    let store = aps[0].spoof.store();
    println!(
        "  ap0 signature store: {} clients over {} shards, occupancy {:?}",
        store.len(),
        store.shard_count(),
        store.shard_occupancy()
    );

    // Telemetry export: Prometheus text exposition + JSON snapshot,
    // validated with the in-repo parsers (the CI smoke relies on this).
    let mut telemetry_ok = true;
    if let Some(path) = &metrics_out {
        let snap = &report.telemetry;
        println!(
            "\ntelemetry snapshot: {} counters, {} gauges, {} histograms",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
        for stage in [
            "stage.decode",
            "stage.worker_dsp",
            "stage.enforce",
            "stage.fusion_drain",
            "stage.consensus",
        ] {
            if let Some(h) = snap.merged_histogram(stage) {
                println!(
                    "  {:<18} p50 {:>8} ns  p99 {:>8} ns  max {:>8} ns  ({} samples)",
                    stage,
                    h.p50().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.max,
                    h.count
                );
            }
        }
        let prom = snap.to_prometheus();
        let json = snap.to_json();
        std::fs::write(path, &prom).expect("write Prometheus exposition");
        let json_path = format!("{path}.json");
        std::fs::write(&json_path, &json).expect("write JSON snapshot");
        println!("  wrote {path} and {json_path}");

        match sa_telemetry::expo::parse_exposition(&prom) {
            Ok(samples) => {
                let has = |name: &str| samples.iter().any(|s| s.name == name);
                for required in ["sa_fleet_windows", "sa_ap_packets", "sa_stage_decode_count"] {
                    if !has(required) {
                        eprintln!("telemetry: exposition is missing {required}");
                        telemetry_ok = false;
                    }
                }
            }
            Err(e) => {
                eprintln!("telemetry: exposition failed to parse: {e}");
                telemetry_ok = false;
            }
        }
        match sa_telemetry::json::parse(&json) {
            Ok(doc) => {
                let rerendered = sa_telemetry::json::render_pretty(&doc);
                if sa_telemetry::json::parse(&rerendered) != Ok(doc) {
                    eprintln!("telemetry: JSON snapshot does not round-trip");
                    telemetry_ok = false;
                }
            }
            Err(e) => {
                eprintln!("telemetry: JSON snapshot failed to parse: {e}");
                telemetry_ok = false;
            }
        }
    }

    if smoke {
        let ok_fixes = 10 * within_3m >= 9 * survey.clients.len();
        let expected_windows = n_windows.max(2) + u64::from(churn);
        let ok_windows = report.metrics.windows == expected_windows;
        // Under --chaos the byzantine AP must have been caught: at
        // least one quarantine event, and every scripted liar still
        // quarantined when the run closed.
        let chaos_ok = chaos.is_none() || (report.metrics.aps_quarantined >= 1 && byz_quarantined);
        if !(ok_fixes
            && spoof_caught
            && outsider_outside
            && ok_windows
            && telemetry_ok
            && explain_ok
            && chaos_ok)
        {
            eprintln!(
                "SMOKE FAILED: fixes_ok={} spoof_caught={} outsider_outside={} windows_ok={} telemetry_ok={} explain_ok={} chaos_ok={}",
                ok_fixes, spoof_caught, outsider_outside, ok_windows, telemetry_ok, explain_ok, chaos_ok
            );
            std::process::exit(1);
        }
        println!("\nsmoke: OK");
    }
}
