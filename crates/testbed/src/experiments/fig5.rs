//! Experiment E1/E2 — Figure 5 and the §2.3.1 accuracy claim.
//!
//! Paper: "We compute 10 pseudospectra for each client, each from a
//! different packet, and plot the mean obtained bearing as well as 99%
//! confidence interval … The mean 99% confidence interval for all the
//! clients is as small as 7°." And §2.3.1: "after overhearing just one
//! packet, it is possible to measure approximately three quarters of our
//! clients' bearings to the access point to within 2.5° and all clients'
//! bearings to within 14° with 95% confidence."

use crate::sim::{ApArray, Testbed};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_linalg::stats::{mean, percentile, t_confidence_interval};
use serde::Serialize;

/// One client's row of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Client id (1–20).
    pub client: usize,
    /// Ground-truth azimuth, degrees.
    pub ground_truth_deg: f64,
    /// Mean estimated azimuth over the packets, degrees (wrapped).
    pub mean_estimate_deg: f64,
    /// Half-width of the 99% Student-t confidence interval, degrees.
    pub ci99_half_width_deg: f64,
    /// Absolute error of the mean estimate, degrees.
    pub mean_error_deg: f64,
    /// Per-packet 95th-percentile absolute error, degrees (the §2.3.1
    /// "with 95% confidence" per-client bound).
    pub p95_error_deg: f64,
    /// Fraction of packets whose frame decoded.
    pub decode_rate: f64,
    /// The paper's note about this client, if any.
    pub note: String,
}

/// The full Figure-5 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    /// Per-client rows, ordered by client id.
    pub rows: Vec<Fig5Row>,
    /// Packets measured per client.
    pub packets_per_client: usize,
    /// Mean of the 99% CI half-widths across clients (paper: ≈ 7°).
    pub mean_ci99_deg: f64,
    /// Fraction of clients whose *measured bearing* (session mean) is
    /// within 2.5° (the §2.3.1 claim reading we report against the
    /// paper's "approximately three quarters").
    pub frac_within_2p5: f64,
    /// Fraction of clients whose measured bearing is within 14°
    /// (paper: all).
    pub frac_within_14: f64,
    /// Stricter per-packet reading: fraction of clients whose
    /// 95th-percentile *single-packet* error is ≤ 2.5°.
    pub frac_within_2p5_single_packet: f64,
    /// The largest per-client 95%-percentile single-packet error, deg.
    pub max_p95_error_deg: f64,
}

/// Run E1/E2: `packets` pseudospectra per client on the circular-array
/// testbed (the paper uses 10 for Fig 5; use ≥ 20 for a stable 95th
/// percentile).
///
/// Clients are measured in parallel (std scoped threads), one worker
/// per client with a per-client RNG seed, so the result is
/// deterministic in `seed` and independent of scheduling order.
pub fn run(seed: u64, packets: usize) -> Fig5Result {
    assert!(packets >= 2, "need at least two packets per client");
    let tb = Testbed::single_ap(ApArray::Circular, seed);

    let clients = tb.office.clients.clone();
    let mut rows: Vec<Fig5Row> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|spec| {
                let tb = &tb;
                scope.spawn(move || measure_client(tb, spec, seed, packets))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig5 worker panicked"))
            .collect()
    });
    rows.sort_by_key(|r| r.client);

    let cis: Vec<f64> = rows.iter().map(|r| r.ci99_half_width_deg).collect();
    let p95s: Vec<f64> = rows.iter().map(|r| r.p95_error_deg).collect();
    let means: Vec<f64> = rows.iter().map(|r| r.mean_error_deg).collect();
    let n = rows.len() as f64;
    Fig5Result {
        packets_per_client: packets,
        mean_ci99_deg: mean(&cis),
        frac_within_2p5: means.iter().filter(|&&e| e <= 2.5).count() as f64 / n,
        frac_within_14: means.iter().filter(|&&e| e <= 14.0).count() as f64 / n,
        frac_within_2p5_single_packet: p95s.iter().filter(|&&e| e <= 2.5).count() as f64 / n,
        max_p95_error_deg: p95s.iter().cloned().fold(0.0, f64::max),
        rows,
    }
}

/// Measure one client's Fig-5 row: `packets` captures over a churned
/// session, one packet per ~15 s of environment time (the error bars
/// come from this churn, as in the paper's live office).
fn measure_client(
    tb: &Testbed,
    spec: &crate::office::ClientSpec,
    seed: u64,
    packets: usize,
) -> Fig5Row {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF165 ^ (spec.id as u64).wrapping_mul(0x9E37));
    let truth = tb.office.ground_truth_azimuth_deg(spec.id);
    let mut errors = Vec::with_capacity(packets);
    let mut decoded = 0usize;
    for p in 0..packets {
        let dt_s = 15.0 * p as f64;
        let buf = tb.client_capture(0, spec.id, p as u16, dt_s, &mut rng);
        let obs = match tb.nodes[0].ap.observe(&buf) {
            Ok(o) => o,
            Err(_) => continue,
        };
        if obs.frame.is_some() {
            decoded += 1;
        }
        // Signed wrapped error.
        let mut e = (obs.bearing_deg - truth).rem_euclid(360.0);
        if e > 180.0 {
            e -= 360.0;
        }
        errors.push(e);
    }
    assert!(
        !errors.is_empty(),
        "client {} produced no observations",
        spec.id
    );
    let mean_err = mean(&errors);
    let ci = t_confidence_interval(&errors, 0.99);
    let abs_errors: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
    Fig5Row {
        client: spec.id,
        ground_truth_deg: truth,
        mean_estimate_deg: (truth + mean_err).rem_euclid(360.0),
        ci99_half_width_deg: ci.half_width,
        mean_error_deg: mean_err.abs(),
        p95_error_deg: percentile(&abs_errors, 0.95),
        decode_rate: decoded as f64 / packets as f64,
        note: spec.note.to_string(),
    }
}

/// Render the result as the Fig-5 table plus the headline aggregates.
pub fn render(r: &Fig5Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 5 — measured vs ground-truth bearing ({} packets/client, circular 8-antenna array)\n",
        r.packets_per_client
    ));
    out.push_str(
        "client | truth(deg) | mean est(deg) | 99% CI(±deg) | |err|(deg) | p95|err| | note\n",
    );
    out.push_str(
        "-------+------------+---------------+--------------+-----------+----------+-----\n",
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{:6} | {:10.1} | {:13.1} | {:12.2} | {:9.2} | {:8.2} | {}\n",
            row.client,
            row.ground_truth_deg,
            row.mean_estimate_deg,
            row.ci99_half_width_deg,
            row.mean_error_deg,
            row.p95_error_deg,
            row.note
        ));
    }
    out.push_str(&format!(
        "\nmean 99% CI across clients: {:.2} deg   (paper: ~7 deg)\n",
        r.mean_ci99_deg
    ));
    out.push_str(&format!(
        "clients measured within 2.5 deg: {:.0}%   (paper: ~75%)\n",
        100.0 * r.frac_within_2p5
    ));
    out.push_str(&format!(
        "clients measured within 14 deg: {:.0}%   (paper: 100%)\n",
        100.0 * r.frac_within_14
    ));
    out.push_str(&format!(
        "stricter per-packet p95 reading: {:.0}% within 2.5 deg; worst p95 {:.1} deg\n",
        100.0 * r.frac_within_2p5_single_packet,
        r.max_p95_error_deg
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_has_sane_shape() {
        let r = run(42, 3);
        assert_eq!(r.rows.len(), 20);
        assert_eq!(r.packets_per_client, 3);
        for row in &r.rows {
            assert!((0.0..360.0).contains(&row.ground_truth_deg));
            assert!((0.0..360.0).contains(&row.mean_estimate_deg));
            assert!(row.p95_error_deg >= 0.0);
            assert!(row.decode_rate >= 0.0 && row.decode_rate <= 1.0);
        }
        assert!(r.frac_within_14 >= r.frac_within_2p5);
        let txt = render(&r);
        assert!(txt.contains("Figure 5"));
        assert!(txt.contains("client"));
    }

    #[test]
    fn most_clients_are_accurate_even_in_a_tiny_run() {
        let r = run(7, 3);
        let good = r
            .rows
            .iter()
            .filter(|row| row.mean_error_deg < 10.0)
            .count();
        assert!(
            good >= 14,
            "only {}/20 clients within 10 deg: {:?}",
            good,
            r.rows
                .iter()
                .map(|x| (x.client, x.mean_error_deg))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_fig5_claims_hold_at_quick_settings() {
        // `experiments --quick fig5` (seed 2010, 5 packets per client):
        // the paper's "approximately three quarters within 2.5°" and
        // "all within 14°", pinned at today's 75% / 100%.
        let r = run(2010, 5);
        assert!(
            r.frac_within_2p5 >= 0.75,
            "within 2.5 deg: {:.2}",
            r.frac_within_2p5
        );
        assert_eq!(r.frac_within_14, 1.0, "within 14 deg");
    }

    #[test]
    fn results_are_deterministic_in_the_seed() {
        let a = run(5, 2);
        let b = run(5, 2);
        for (x, y) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(x.mean_estimate_deg, y.mean_estimate_deg);
        }
    }
}
