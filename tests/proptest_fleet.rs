//! Fleet determinism property (root seam test): on randomized campus
//! scenarios, the fused windows and the (masked) deployment report must
//! be byte-identical across every decode-shard and pipelining
//! configuration. Sharding and streaming are performance knobs — they
//! change thread interleavings, never bytes.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_aoa::estimator::ScanBackend;
use sa_deploy::{DeployConfig, Deployment, Transmission};
use sa_testbed::Testbed;

const N_APS: usize = 3;

/// Scheduling-observability counters (queue depths, backpressure) are
/// interleaving-dependent and outside the determinism contract.
fn masked_report(r: &sa_deploy::DeploymentReport) -> String {
    let mut r = r.clone();
    r.metrics.max_fusion_queue_depth = 0;
    r.metrics.report_backpressure_events = 0;
    r.metrics.ingest_backpressure_events = 0;
    for ap in &mut r.per_ap {
        ap.backpressure_events = 0;
    }
    format!("{:?}", r)
}

/// One full deployment run over pre-generated traffic. The testbed is
/// rebuilt per run (`AccessPoint` is not `Clone`), which is exact: the
/// build is deterministic in `seed`, so every run sees identical APs.
fn run_config(
    n_clients: usize,
    seed: u64,
    windows: &[Vec<Transmission>],
    backend: ScanBackend,
    decode_shards: usize,
    depth: usize,
) -> (String, String) {
    let tb = Testbed::campus_customized(n_clients, N_APS, seed, |cfg| {
        cfg.aoa.scan_backend = backend;
    });
    let aps: Vec<_> = tb.nodes.into_iter().map(|n| n.ap).collect();
    let cfg = DeployConfig {
        decode_shards,
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
    // plenty — every case exercises three full deployments.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fused `DeploymentReport`s are byte-identical across decode-shard
    /// counts {1, 2, 4} × pipelining depths {1, 2, 4} (and whatever
    /// worker interleavings those induce) on randomized campus
    /// scenarios.
    #[test]
    fn fused_reports_are_byte_identical_across_shard_and_stream_configs(
        seed in 0u64..1_000,
        n_clients in 6usize..=10,
    ) {
        let tb = Testbed::campus_with(n_clients, N_APS, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf1ee7);
        let clients: Vec<usize> = (1..=n_clients).collect();
        let windows: Vec<Vec<Transmission>> = (0..2)
            .map(|w| {
                tb.window_traffic(&clients, w as u16, 0.0, &mut rng)
                    .into_iter()
                    .map(Transmission::new)
                    .collect()
            })
            .collect();

        let (base_fused, base_report) =
            run_config(n_clients, seed, &windows, ScanBackend::Exhaustive, 1, 1);
        for (decode, depth) in [(2usize, 2usize), (4, 4)] {
            let (fused, report) = run_config(
                n_clients, seed, &windows, ScanBackend::Exhaustive, decode, depth,
            );
            prop_assert_eq!(
                &base_fused, &fused,
                "fused windows diverged at decode={} depth={}",
                decode, depth
            );
            prop_assert_eq!(
                &base_report, &report,
                "report diverged at decode={} depth={}",
                decode, depth
            );
        }

        // The scan-backend knob joins the matrix: each backend must be
        // deterministic under sharding too (the backends may disagree
        // *with each other* on bearings — that equivalence is
        // `proptest_backends`' contract, not this one's — but a given
        // backend must never let thread interleaving reach its bytes).
        for backend in [ScanBackend::coarse_to_fine(), ScanBackend::RootMusic] {
            let (b_fused, b_report) =
                run_config(n_clients, seed, &windows, backend, 1, 1);
            let (fused, report) =
                run_config(n_clients, seed, &windows, backend, 2, 2);
            prop_assert_eq!(
                &b_fused, &fused,
                "fused windows diverged under sharding for {:?}",
                backend
            );
            prop_assert_eq!(
                &b_report, &report,
                "report diverged under sharding for {:?}",
                backend
            );
        }
    }
}
