//! Deploy-level test for the sharded stage-1 decode pool: every decode
//! shard count must produce byte-identical fused windows and reports —
//! sharding changes the parallelism, never the numbers — and the
//! per-window client fix ordering (sorted by MAC) is part of that
//! contract.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_deploy::{DeployConfig, Deployment, FusedWindow, Transmission};
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

fn run(decode_shards: usize) -> (Vec<FusedWindow>, String) {
    let tb = Testbed::deployment(3, 331);
    let mut rng = ChaCha8Rng::seed_from_u64(332);
    let clients = [5usize, 7, 19];
    let windows: Vec<Vec<Transmission>> = (0..2)
        .map(|w| window(&tb, &clients, w as u16, &mut rng))
        .collect();
    let cfg = DeployConfig {
        decode_shards,
        ..DeployConfig::default()
    };
    let mut deployment = Deployment::new(split(tb), cfg);
    let fused: Vec<_> = windows
        .into_iter()
        .map(|w| deployment.run_window(w).expect("window"))
        .collect();
    let (report, _) = deployment.finish();
    (fused, masked_report(&report))
}

/// The decode-shard count is a performance knob only. Every pool size
/// fuses the same bytes as serial inline decode, and the fix ordering
/// inside each window stays sorted by client MAC.
#[test]
fn shard_counts_never_change_fused_bytes() {
    let (base_fused, base_report) = run(1);
    assert_eq!(base_fused.len(), 2);
    for f in &base_fused {
        assert_eq!(f.clients.len(), 3);
        assert!(
            f.clients.windows(2).all(|w| w[0].mac < w[1].mac),
            "fixes out of MAC order in window {}",
            f.window
        );
    }
    for decode_shards in [2, 4] {
        let (fused, report) = run(decode_shards);
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
