//! The `deploy_telemetry` group: what observability costs.
//!
//! The same 4-AP window workload as `deploy_throughput` pushed through
//! a deployment with telemetry disabled (the default, and the
//! `deploy_throughput` operating point) vs fully enabled
//! (`TelemetryConfig::full()`: registry + stage timers + flight
//! recorder). The telemetry design keeps the hot path to one branch
//! per tap site when disabled and two `Instant::now()` calls plus an
//! atomic add per stage when enabled — the disabled point must sit
//! within run-to-run noise of `deploy_throughput/aps_4`, and the
//! enabled point prices the full instrumented mode for
//! `docs/OBSERVABILITY.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{DeployConfig, Deployment, TelemetryConfig, Transmission};
use sa_testbed::Testbed;

const CLIENTS: [usize; 8] = [5, 7, 9, 16, 19, 20, 3, 14];
const TX_PER_WINDOW: usize = 16;
const N_APS: usize = 4;

fn window_for(seed: u64) -> (Vec<secureangle::AccessPoint>, Vec<Transmission>) {
    let mut tb = Testbed::deployment(N_APS, seed);
    tb.cfg.payload_len = 1024;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdeb10);
    let ids: Vec<usize> = (0..TX_PER_WINDOW)
        .map(|i| CLIENTS[i % CLIENTS.len()])
        .collect();
    let txs: Vec<Transmission> = tb
        .window_traffic(&ids, 1, 0.0, &mut rng)
        .into_iter()
        .map(Transmission::new)
        .collect();
    (tb.nodes.into_iter().map(|n| n.ap).collect(), txs)
}

fn bench_deploy_telemetry(c: &mut Criterion) {
    let points = [
        ("aps_4_disabled", TelemetryConfig::disabled()),
        ("aps_4_full", TelemetryConfig::full()),
    ];
    let mut group = c.benchmark_group("deploy_telemetry");
    for (label, telemetry) in points {
        let (aps, txs) = window_for(7001);
        // Same operating point as `deploy_throughput/aps_4` (128
        // snapshots, streamed at depth 2) so the disabled point is
        // directly comparable against that baseline entry.
        let depth = 2;
        let cfg = DeployConfig {
            snapshot_cap: 128,
            telemetry,
            ..DeployConfig::default()
        };
        let mut deployment = Deployment::new(aps, cfg);
        for _ in 0..4 {
            deployment.run_window(txs.clone()).expect("warmup window");
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                deployment.submit_window(txs.clone()).expect("bench submit");
                while deployment.pending_windows() >= depth {
                    deployment.collect_window().expect("bench collect");
                }
            })
        });
        while deployment.pending_windows() > 0 {
            deployment.collect_window().expect("drain");
        }
        // Sanity line for the docs: how much data the enabled run
        // actually accumulated (stderr info line, not baseline data).
        let (report, _aps) = deployment.finish();
        let snap = &report.telemetry;
        eprintln!(
            "info: deploy_telemetry/{}: {} counters, {} gauges, {} histograms in snapshot",
            label,
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_deploy_telemetry);
criterion_main!(benches);
