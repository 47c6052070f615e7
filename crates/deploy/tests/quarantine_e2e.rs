//! End-to-end byzantine-AP quarantine: one AP starts lying about its
//! bearings (+15° on everything — valid checksums, so only cross-AP
//! evidence can catch it), the health layer quarantines it within a
//! few windows, fused accuracy recovers to the clean 3 m bound, and
//! the cross-AP spoof-consensus catch still fires with the liar
//! excluded. The quarantine is visible end to end: fused windows,
//! report counters, telemetry snapshot, and the flight recorder's
//! `explain(mac)` post-mortem.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::geom::pt;
use sa_channel::pattern::TxAntenna;
use sa_deploy::faults::{FaultEvent, FaultPlan};
use sa_deploy::{DeployConfig, Deployment, HealthConfig, TelemetryConfig, Transmission};
use sa_testbed::Testbed;
use std::collections::BTreeSet;

const N_APS: usize = 4;
const SEED: u64 = 10_2010;
/// The lying AP. Not AP 0: the spoof scenario below aims the attacker
/// along AP 0's line of sight, and the byzantine AP must be a
/// different one so the two failure modes compose.
const BYZ: usize = 3;
/// Bias onset: window 0 trains signatures and consensus references
/// cleanly, the lies start immediately after.
const ONSET: u64 = 1;
const VICTIM: usize = 5;
const ATTACK_RANGE_M: f64 = 3.5;

#[test]
fn byzantine_ap_is_quarantined_and_the_fleet_recovers() {
    let tb = Testbed::deployment(N_APS, SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x5eed);
    let clients: Vec<usize> = vec![2, 5, 7, 12, 11, 14, 17, 20];
    let others: Vec<usize> = clients.iter().copied().filter(|&c| c != VICTIM).collect();

    // Windows 0..7: steady traffic from every client. Window 7: the
    // victim goes quiet and an attacker replays its MAC from beyond it
    // on the AP0 ray, power-matched so AP0's signature check admits it.
    let mut windows: Vec<Vec<Transmission>> = (0..7)
        .map(|w| {
            tb.window_traffic(&clients, w as u16, 0.0, &mut rng)
                .into_iter()
                .map(Transmission::new)
                .collect()
        })
        .collect();
    let vpos = tb.office.client(VICTIM).position;
    let ap0 = tb.nodes[0].ap.config().position;
    let az = ap0.azimuth_to(vpos);
    let apos = pt(
        vpos.x + ATTACK_RANGE_M * az.cos(),
        vpos.y + ATTACK_RANGE_M * az.sin(),
    );
    let tx_power = tb.rx_power_from(0, vpos) / tb.rx_power_from(0, apos);
    let frame = tb.client_frame(VICTIM, 99);
    let mut attack_window: Vec<Transmission> = tb
        .window_traffic(&others, 7, 0.0, &mut rng)
        .into_iter()
        .map(Transmission::new)
        .collect();
    attack_window.push(Transmission::new(tb.transmission(
        apos,
        &TxAntenna::Omni,
        tx_power,
        &frame,
        0.0,
        &mut rng,
    )));
    windows.push(attack_window);

    let aps: Vec<_> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        health: HealthConfig::enabled(),
        faults: Some(FaultPlan {
            seed: SEED,
            events: vec![FaultEvent::ByzantineBias {
                ap: BYZ,
                from_window: ONSET,
                bias_deg: 15.0,
            }],
        }),
        telemetry: TelemetryConfig::full(),
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    let mut fused = Vec::new();
    for w in windows {
        fused.push(deployment.run_window(w).expect("window closes"));
    }

    // ---- The quarantine lands, fast, on the right AP. -----------------
    // Score path: 1.0 − 0.25/bad window crosses the 0.35 threshold on
    // the third biased window, so the exclusion shows up in the fused
    // output no later than window ONSET + 3.
    let first_quarantined = fused
        .iter()
        .position(|f| f.quarantined_aps > 0)
        .expect("byzantine AP never quarantined") as u64;
    assert!(
        first_quarantined <= ONSET + 3,
        "quarantine took until window {first_quarantined}"
    );
    assert_eq!(deployment.quarantined_aps(), vec![BYZ]);
    assert!(deployment.health_score(BYZ) < 0.5);
    // Pre-quarantine, the per-AP bearing residuals already single the
    // liar out — the evidence trail an operator would follow: a
    // *majority* of its bearings miss the fused fix, where honest APs
    // only show the odd multipath outlier.
    let biased = fused[ONSET as usize]
        .ap_bearing_errors
        .iter()
        .find(|e| e.ap_id == BYZ)
        .expect("biased AP contributed bearings");
    assert!(
        biased.over_warn * 2 > biased.bearings,
        "biased AP evidence not a majority: {:?}",
        biased
    );

    // ---- Fused accuracy recovers to the clean 3 m bound. --------------
    let office = Testbed::deployment(N_APS, SEED).office;
    let steady = &fused[6];
    assert_eq!(steady.quarantined_aps, 1);
    let mut within = 0usize;
    for c in &steady.clients {
        let spec = office
            .clients
            .iter()
            .find(|s| Testbed::client_mac(s.id) == c.mac)
            .expect("client for mac");
        let fix = c.fix.expect("steady-state fix");
        if fix.position.dist(office.client(spec.id).position) <= 3.0 {
            within += 1;
        }
        assert!(
            !c.consensus.is_spoof(),
            "false consensus flag post-quarantine on {:?}",
            c.mac
        );
    }
    assert!(
        within * 10 >= steady.clients.len() * 9,
        "only {}/{} clients within 3 m after quarantine",
        within,
        steady.clients.len()
    );

    // ---- The consensus catch still fires on three honest APs. ---------
    let mac = Testbed::client_mac(VICTIM);
    let attack_fix = fused[7]
        .clients
        .iter()
        .find(|c| c.mac == mac)
        .expect("attack window fuses the victim MAC");
    assert!(
        attack_fix.consensus.is_spoof(),
        "consensus missed the attacker with the liar quarantined: {:?}",
        attack_fix
    );

    // ---- The quarantine is observable end to end. ---------------------
    let snapshot = deployment.telemetry_snapshot();
    assert!(snapshot.counter_total("fleet.aps_quarantined").unwrap_or(0) >= 1);
    let score_milli = snapshot
        .gauge_value("ap.health_score", &[("ap", &BYZ.to_string())])
        .expect("health score gauge");
    assert!(
        score_milli < 500,
        "byzantine AP health gauge at {score_milli} milli"
    );
    // Honest APs take some collateral penalties while the liar drags
    // the fix (and again on the attack window), but they stay clear of
    // quarantine and clearly above the liar.
    let honest_milli = snapshot
        .gauge_value("ap.health_score", &[("ap", "0")])
        .expect("honest health score gauge");
    assert!(
        honest_milli > 350 && honest_milli > score_milli,
        "honest AP scored {honest_milli} milli vs liar {score_milli}"
    );
    assert!(snapshot.gauge_value("fusion.rebaselines", &[]).unwrap_or(0) >= 1);
    // Fusion is one stage: one unlabelled drain series, and the tracked
    // client gauge counts every client that ever fused a fix.
    let drains: Vec<_> = snapshot
        .histograms
        .iter()
        .filter(|h| h.name == "stage.fusion_drain")
        .collect();
    assert_eq!(drains.len(), 1, "expected one stage.fusion_drain series");
    assert!(drains[0].labels.is_empty());
    assert_eq!(drains[0].count, fused.len() as u64);
    let fused_clients: BTreeSet<_> = fused
        .iter()
        .flat_map(|f| &f.clients)
        .filter(|c| c.fix.is_some())
        .map(|c| c.mac)
        .collect();
    assert_eq!(
        snapshot.gauge_value("fusion.tracked_clients", &[]),
        Some(fused_clients.len() as i64)
    );
    // The flight recorder's post-mortem shows the withheld evidence.
    let explain = deployment.explain(&mac).expect("recorded client");
    assert!(
        explain.contains("quarantined"),
        "explain() does not surface the quarantine:\n{explain}"
    );

    let (report, _) = deployment.finish();
    assert_eq!(report.metrics.aps_quarantined, 1);
    assert_eq!(report.metrics.aps_readmitted, 0);
    assert_eq!(report.per_ap[BYZ].quarantined, 1);
    assert!(report.metrics.consensus_flags >= 1);
    assert!(
        report
            .telemetry
            .counter_total("ap.quarantined")
            .unwrap_or(0)
            >= 1
    );
}

/// The flip side: a quarantined AP that starts behaving again earns its
/// way back in after the configured clean streak, and the re-admission
/// is counted and visible.
#[test]
fn recovered_ap_is_readmitted_after_a_clean_streak() {
    let tb = Testbed::deployment(N_APS, SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xfeed);
    let clients: Vec<usize> = vec![2, 5, 7, 12, 11, 14, 17, 20];
    // Bias windows 1..=3 push the score to quarantine (0.25 after three
    // penalties); the fault then *ends*, and the withheld-but-scored
    // clean windows rebuild the streak until re-admission.
    let windows: Vec<Vec<Transmission>> = (0..14)
        .map(|w| {
            tb.window_traffic(&clients, w as u16, 0.0, &mut rng)
                .into_iter()
                .map(Transmission::new)
                .collect()
        })
        .collect();
    let aps: Vec<_> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        health: HealthConfig::enabled(),
        faults: Some(FaultPlan {
            seed: SEED,
            events: vec![
                FaultEvent::ByzantineBias {
                    ap: BYZ,
                    from_window: 1,
                    bias_deg: 15.0,
                },
                // A second, opposite bias event cancels the first from
                // window 4 on: the AP goes honest again.
                FaultEvent::ByzantineBias {
                    ap: BYZ,
                    from_window: 4,
                    bias_deg: -15.0,
                },
            ],
        }),
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    let mut fused = Vec::new();
    for w in windows {
        fused.push(deployment.run_window(w).expect("window closes"));
    }
    assert!(
        fused.iter().any(|f| f.quarantined_aps > 0),
        "the byzantine phase never quarantined the AP"
    );
    assert!(
        fused.last().expect("windows").quarantined_aps == 0,
        "the clean streak never readmitted the AP"
    );
    assert!(deployment.quarantined_aps().is_empty());
    let (report, _) = deployment.finish();
    assert_eq!(report.metrics.aps_quarantined, 1);
    assert_eq!(report.metrics.aps_readmitted, 1);
    assert_eq!(report.per_ap[BYZ].readmitted, 1);
}
