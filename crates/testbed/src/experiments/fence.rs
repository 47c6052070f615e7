//! Experiment E6 — virtual fence and multi-AP localization (§2.3.1).
//!
//! Three circular-array APs compute direct-path bearings for each
//! transmitter; the bearing lines are intersected ([`mod@secureangle::localize`])
//! and the fix is tested against the building-outline fence. Inside
//! transmitters are the 20 testbed clients; outside transmitters stand
//! around the building perimeter (with boosted power — an attacker wants
//! to be heard).

use crate::sim::Testbed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_channel::geom::{pt, Point};
use sa_channel::pattern::TxAntenna;
use secureangle::fence::{FenceDecision, VirtualFence};
use secureangle::localize::BearingObservation;
use serde::Serialize;

/// One transmitter's fence trial.
#[derive(Debug, Clone, Serialize)]
pub struct FenceTrial {
    /// Label ("client 7" or "outside NE").
    pub label: String,
    /// True position.
    pub true_x: f64,
    /// True position.
    pub true_y: f64,
    /// Truly inside the fence?
    pub truly_inside: bool,
    /// Number of APs that produced a bearing.
    pub n_bearings: usize,
    /// Localization error, meters (NaN if no fix).
    pub location_error_m: f64,
    /// The decision ("inside"/"outside"/"unreliable"/"no-fix").
    pub decision: String,
    /// Was the frame admitted?
    pub admitted: bool,
    /// Was the decision correct (admit inside, drop outside)?
    pub correct: bool,
}

/// The E6 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct FenceResult {
    /// All trials.
    pub trials: Vec<FenceTrial>,
    /// Median localization error over inside clients with a fix, m.
    pub median_inside_error_m: f64,
    /// Classification accuracy over all trials.
    pub accuracy: f64,
    /// Fraction of outside transmitters admitted (security failures).
    pub outside_admitted: f64,
}

/// Positions just outside the 30×16 building.
pub fn outside_positions() -> Vec<(String, Point)> {
    vec![
        ("outside E".into(), pt(33.0, 8.0)),
        ("outside W".into(), pt(-3.0, 8.0)),
        ("outside N".into(), pt(15.0, 19.0)),
        ("outside S".into(), pt(15.0, -3.0)),
        ("outside NE".into(), pt(32.0, 17.5)),
        ("outside SW".into(), pt(-2.0, -1.5)),
        ("parking lot".into(), pt(36.0, 2.0)),
        ("street".into(), pt(8.0, 20.5)),
    ]
}

/// Run E6 with `packets` captures per transmitter (bearings averaged
/// across packets per AP before intersection).
pub fn run(seed: u64, packets: usize) -> FenceResult {
    let tb = Testbed::multi_ap(seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfe2ce);
    let fence = VirtualFence::new(tb.office.fence_polygon());

    let mut trials = Vec::new();

    // Inside: the 20 clients.
    for spec in tb.office.clients.clone() {
        let frame = tb.client_frame(spec.id, 1);
        let trial = run_one(
            &tb,
            &fence,
            &format!("client {}", spec.id),
            spec.position,
            &frame,
            1.0,
            packets,
            &mut rng,
        );
        trials.push(trial);
    }

    // Outside: perimeter attackers with 20 dB boosted power.
    for (label, pos) in outside_positions() {
        let frame = tb.client_frame(1, 99); // spoofs client 1's MAC
        let trial = run_one(&tb, &fence, &label, pos, &frame, 100.0, packets, &mut rng);
        trials.push(trial);
    }

    let inside_errors: Vec<f64> = trials
        .iter()
        .filter(|t| t.truly_inside && t.location_error_m.is_finite())
        .map(|t| t.location_error_m)
        .collect();
    let n_outside = trials.iter().filter(|t| !t.truly_inside).count();
    let outside_admitted = trials
        .iter()
        .filter(|t| !t.truly_inside && t.admitted)
        .count() as f64
        / n_outside.max(1) as f64;
    let accuracy = trials.iter().filter(|t| t.correct).count() as f64 / trials.len().max(1) as f64;

    FenceResult {
        median_inside_error_m: sa_linalg::stats::median(&inside_errors),
        accuracy,
        outside_admitted,
        trials,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    tb: &Testbed,
    fence: &VirtualFence,
    label: &str,
    pos: Point,
    frame: &sa_mac::Frame,
    tx_power: f64,
    packets: usize,
    rng: &mut ChaCha8Rng,
) -> FenceTrial {
    // Collect per-AP bearing estimates (circular mean over packets).
    let mut bearings = Vec::new();
    for node in 0..tb.nodes.len() {
        let mut sin_sum = 0.0f64;
        let mut cos_sum = 0.0f64;
        let mut got = 0usize;
        for p in 0..packets {
            let buf = tb.capture(
                node,
                pos,
                &TxAntenna::Omni,
                tx_power,
                frame,
                p as f64 * 0.01,
                rng,
            );
            if let Ok(obs) = tb.nodes[node].ap.observe(&buf) {
                if let Some(az) = obs.global_azimuth {
                    sin_sum += az.sin();
                    cos_sum += az.cos();
                    got += 1;
                }
            }
        }
        if got > 0 {
            bearings.push(BearingObservation {
                ap_position: tb.nodes[node].ap.config().position,
                azimuth: sin_sum.atan2(cos_sum),
            });
        }
    }

    let truly_inside = sa_channel::geom::point_in_polygon(pos, fence.polygon());
    let decision = fence.decide(&bearings);
    let (name, err, admitted) = match &decision {
        FenceDecision::Inside(f) => ("inside", f.position.dist(pos), true),
        FenceDecision::Outside(f) => ("outside", f.position.dist(pos), false),
        FenceDecision::Unreliable(f) => ("unreliable", f.position.dist(pos), false),
        FenceDecision::NoFix(_) => ("no-fix", f64::NAN, false),
    };
    FenceTrial {
        label: label.to_string(),
        true_x: pos.x,
        true_y: pos.y,
        truly_inside,
        n_bearings: bearings.len(),
        location_error_m: err,
        decision: name.to_string(),
        admitted,
        correct: admitted == truly_inside,
    }
}

/// Render E6.
pub fn render(r: &FenceResult) -> String {
    let mut out = String::new();
    out.push_str("E6 — virtual fence (3 APs, bearing intersection)\n");
    out.push_str("transmitter     | inside? | #brg | loc err(m) | decision   | ok\n");
    out.push_str("----------------+---------+------+------------+------------+---\n");
    for t in &r.trials {
        out.push_str(&format!(
            "{:<16}| {:^7} | {:4} | {:10.2} | {:<10} | {}\n",
            t.label,
            if t.truly_inside { "yes" } else { "no" },
            t.n_bearings,
            t.location_error_m,
            t.decision,
            if t.correct { "y" } else { "N" }
        ));
    }
    out.push_str(&format!(
        "\nmedian inside localization error: {:.2} m\nclassification accuracy: {:.1}%\noutside transmitters admitted: {:.1}%\n",
        r.median_inside_error_m,
        100.0 * r.accuracy,
        100.0 * r.outside_admitted
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_positions_are_outside() {
        let office = crate::office::Office::paper_figure4();
        for (label, p) in outside_positions() {
            assert!(
                !sa_channel::geom::point_in_polygon(p, &office.outline),
                "{} is inside",
                label
            );
        }
    }

    #[test]
    fn small_fence_run_mostly_correct() {
        let r = run(41, 2);
        assert_eq!(r.trials.len(), 28);
        assert!(
            r.accuracy > 0.7,
            "accuracy {:.2}; trials: {:?}",
            r.accuracy,
            r.trials
                .iter()
                .map(|t| (t.label.clone(), t.decision.clone(), t.correct))
                .collect::<Vec<_>>()
        );
        assert!(
            r.outside_admitted < 0.3,
            "outside admitted {:.2}",
            r.outside_admitted
        );
        assert!(
            r.median_inside_error_m < 3.0,
            "median error {}",
            r.median_inside_error_m
        );
    }
}
