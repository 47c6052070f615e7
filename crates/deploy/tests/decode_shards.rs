//! Deploy-level test for the stage-1 decode fan-out: every decode
//! shard count must produce byte-identical fused windows and reports —
//! sharding changes the parallelism, never the numbers — and the
//! per-window client fix ordering (sorted by MAC) is part of that
//! contract. The inputs cover shard counts beyond the window size, an
//! empty window, and the per-shard decode timing.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{
    DeployConfig, Deployment, DeploymentReport, FusedWindow, TelemetryConfig, Transmission,
};
use sa_testbed::Testbed;
use secureangle::AccessPoint;

fn split(tb: Testbed) -> Vec<AccessPoint> {
    tb.nodes.into_iter().map(|n| n.ap).collect()
}

fn window(tb: &Testbed, clients: &[usize], seq: u16, rng: &mut ChaCha8Rng) -> Vec<Transmission> {
    tb.window_traffic(clients, seq, 0.0, rng)
        .into_iter()
        .map(Transmission::new)
        .collect()
}

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

/// Two 3-client windows through a 3-AP deployment, with an empty
/// window (zero transmissions) between them when `empty_window` is set.
fn run_cfg(cfg: DeployConfig, empty_window: bool) -> (Vec<FusedWindow>, DeploymentReport) {
    let tb = Testbed::deployment(3, 331);
    let mut rng = ChaCha8Rng::seed_from_u64(332);
    let clients = [5usize, 7, 19];
    let mut windows: Vec<Vec<Transmission>> = (0..2)
        .map(|w| window(&tb, &clients, w as u16, &mut rng))
        .collect();
    if empty_window {
        windows.insert(1, Vec::new());
    }
    let mut deployment = Deployment::new(split(tb), cfg);
    let fused: Vec<_> = windows
        .into_iter()
        .map(|w| deployment.run_window(w).expect("window"))
        .collect();
    let (report, _) = deployment.finish();
    (fused, report)
}

fn run(decode_shards: usize, empty_window: bool) -> (Vec<FusedWindow>, String) {
    let cfg = DeployConfig {
        decode_shards,
        ..DeployConfig::default()
    };
    let (fused, report) = run_cfg(cfg, empty_window);
    (fused, masked_report(&report))
}

/// The decode-shard count is a performance knob only. Every fan-out —
/// including one wider than the window, where the surplus shards get no
/// run — fuses the same bytes as serial inline decode, and the fix
/// ordering inside each window stays sorted by client MAC.
#[test]
fn shard_counts_never_change_fused_bytes() {
    let (base_fused, base_report) = run(1, false);
    assert_eq!(base_fused.len(), 2);
    for f in &base_fused {
        assert_eq!(f.clients.len(), 3);
        assert!(
            f.clients.windows(2).all(|w| w[0].mac < w[1].mac),
            "fixes out of MAC order in window {}",
            f.window
        );
    }
    for decode_shards in [2, 4, 16] {
        let (fused, report) = run(decode_shards, false);
        assert_eq!(
            format!("{:?}", base_fused),
            format!("{:?}", fused),
            "decode_shards={} changed fused output",
            decode_shards
        );
        assert_eq!(
            base_report, report,
            "decode_shards={} changed the report",
            decode_shards
        );
    }
}

/// An empty window splits into no decode runs: it fuses to an empty
/// window at every shard count and leaves its neighbours unchanged.
#[test]
fn empty_window_is_identical_at_every_shard_count() {
    let (base_fused, base_report) = run(1, true);
    assert_eq!(base_fused.len(), 3);
    assert!(base_fused[1].clients.is_empty());
    for decode_shards in [2, 4, 16] {
        let (fused, report) = run(decode_shards, true);
        assert_eq!(
            format!("{:?}", base_fused),
            format!("{:?}", fused),
            "decode_shards={} changed fused output",
            decode_shards
        );
        assert_eq!(
            base_report, report,
            "decode_shards={} changed the report",
            decode_shards
        );
    }
}

/// Every stage-1 decode is timed exactly once: the `stage.decode`
/// sample counts, summed over the per-shard histograms, equal the
/// transmissions submitted.
#[test]
fn every_decode_is_timed_exactly_once() {
    let cfg = DeployConfig {
        decode_shards: 4,
        telemetry: TelemetryConfig::full(),
        ..DeployConfig::default()
    };
    let (_, report) = run_cfg(cfg, true);
    let shards = report
        .telemetry
        .histograms
        .iter()
        .filter(|h| h.name == "stage.decode")
        .count();
    assert_eq!(shards, 4);
    let decode = report
        .telemetry
        .merged_histogram("stage.decode")
        .expect("stage.decode recorded");
    assert_eq!(report.metrics.transmissions, 6);
    assert_eq!(decode.count, report.metrics.transmissions);
}
