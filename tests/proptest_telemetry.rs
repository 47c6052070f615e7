//! Telemetry out-of-band property (root seam test): on randomized
//! campus scenarios, the fused windows and the (masked) deployment
//! report must be byte-identical with telemetry fully enabled vs
//! disabled, at every decode-shard / pipelining configuration. Observability is a read-only tap — timers, counters
//! and the flight recorder never feed back into the pipeline.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_aoa::estimator::ScanBackend;
use sa_deploy::{DeployConfig, Deployment, TelemetryConfig, Transmission};
use sa_testbed::Testbed;

const N_APS: usize = 3;

/// Scheduling-observability counters (queue depths, backpressure) are
/// interleaving-dependent, and `report.telemetry` itself obviously
/// differs (empty when disabled) — everything else must match byte for
/// byte.
fn masked_report(r: &sa_deploy::DeploymentReport) -> String {
    let mut r = r.clone();
    r.metrics.max_fusion_queue_depth = 0;
    r.metrics.report_backpressure_events = 0;
    r.metrics.ingest_backpressure_events = 0;
    for ap in &mut r.per_ap {
        ap.backpressure_events = 0;
    }
    r.telemetry = Default::default();
    format!("{:?}", r)
}

/// One full deployment run over pre-generated traffic. The testbed
/// build is deterministic in `seed`, so every run sees identical APs.
fn run_config(
    n_clients: usize,
    seed: u64,
    windows: &[Vec<Transmission>],
    backend: ScanBackend,
    (decode_shards, depth): (usize, usize),
    telemetry: TelemetryConfig,
) -> (String, String) {
    let tb = Testbed::campus_customized(n_clients, N_APS, seed, |cfg| {
        cfg.aoa.scan_backend = backend;
    });
    let aps: Vec<_> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        decode_shards,
        telemetry,
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(aps, cfg);
    // Pipeline by hand: at most `depth` windows in flight.
    let mut fused = Vec::new();
    for w in windows {
        while deployment.pending_windows() >= depth {
            fused.push(deployment.collect_window().expect("collect"));
        }
        deployment.submit_window(w.clone()).expect("submit");
    }
    while deployment.pending_windows() > 0 {
        fused.push(deployment.collect_window().expect("collect"));
    }
    let (report, _) = deployment.finish();
    (format!("{:?}", fused), masked_report(&report))
}

proptest! {
    // Debug-mode DSP is slow; a few randomized campuses per run is
    // plenty — every case exercises six full deployments.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fused windows and masked reports are byte-identical with
    /// telemetry enabled (`TelemetryConfig::full()`) vs disabled, across
    /// decode shards {1, 4} × pipelining depths {1, 4} on randomized
    /// campus scenarios.
    #[test]
    fn telemetry_never_changes_fused_bytes(
        seed in 0u64..1_000,
        n_clients in 6usize..=10,
    ) {
        let tb = Testbed::campus_with(n_clients, N_APS, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7e1e);
        let clients: Vec<usize> = (1..=n_clients).collect();
        let windows: Vec<Vec<Transmission>> = (0..2)
            .map(|w| {
                tb.window_traffic(&clients, w as u16, 0.0, &mut rng)
                    .into_iter()
                    .map(Transmission::new)
                    .collect()
            })
            .collect();

        for (decode, depth) in [(1usize, 1usize), (4, 4)] {
            let (off_fused, off_report) = run_config(
                n_clients, seed, &windows, ScanBackend::Exhaustive, (decode, depth),
                TelemetryConfig::disabled(),
            );
            let (on_fused, on_report) = run_config(
                n_clients, seed, &windows, ScanBackend::Exhaustive, (decode, depth),
                TelemetryConfig::full(),
            );
            prop_assert_eq!(
                &off_fused, &on_fused,
                "fused windows diverged with telemetry at decode={} depth={}",
                decode, depth
            );
            prop_assert_eq!(
                &off_report, &on_report,
                "masked report diverged with telemetry at decode={} depth={}",
                decode, depth
            );
        }

        // Scan-backend knob: telemetry must stay a read-only tap no
        // matter which spectrum-search backend the APs run.
        for backend in [ScanBackend::coarse_to_fine(), ScanBackend::RootMusic] {
            let (off_fused, off_report) = run_config(
                n_clients, seed, &windows, backend, (4, 4),
                TelemetryConfig::disabled(),
            );
            let (on_fused, on_report) = run_config(
                n_clients, seed, &windows, backend, (4, 4),
                TelemetryConfig::full(),
            );
            prop_assert_eq!(
                &off_fused, &on_fused,
                "fused windows diverged with telemetry for {:?}",
                backend
            );
            prop_assert_eq!(
                &off_report, &on_report,
                "masked report diverged with telemetry for {:?}",
                backend
            );
        }
    }
}
