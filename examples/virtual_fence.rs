//! Virtual fence: keep wireless access inside the building (§2.3.1).
//!
//! Three circular-array APs triangulate every transmitter from their
//! direct-path bearings. Clients inside the building are admitted;
//! transmitters in the parking lot and on the street — even at 20 dB
//! higher power — are localized outside the fence polygon and dropped.
//!
//! ```text
//! cargo run --release --example virtual_fence [-- --seed 7]
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sa_testbed::experiments::fence::outside_positions;
use sa_testbed::Testbed;
use secureangle::fence::VirtualFence;
use secureangle::localize::BearingObservation;
use secureangle_suite::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(2010);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let tb = Testbed::multi_ap(seed);
    let fence = VirtualFence::new(tb.office.fence_polygon());
    println!(
        "virtual fence: the building interior (0.75 m wall margin); {} cooperating APs\n",
        tb.nodes.len()
    );

    let mut trials: Vec<(String, sa_channel::geom::Point, f64)> = tb
        .office
        .clients
        .iter()
        .take(8)
        .map(|c| (format!("client {:2}", c.id), c.position, 1.0))
        .collect();
    for (label, pos) in outside_positions().into_iter().take(4) {
        trials.push((label, pos, 100.0)); // attackers shout at +20 dB
    }

    println!("transmitter   |  true pos   | fix          | decision");
    println!("--------------+-------------+--------------+---------");
    for (label, pos, power) in trials {
        // Each AP measures the bearing of one frame.
        let frame = tb.client_frame(1, 7);
        let mut bearings = Vec::new();
        for node in 0..tb.nodes.len() {
            let buf = tb.capture(node, pos, &TxAntenna::Omni, power, &frame, 0.0, &mut rng);
            if let Ok(obs) = tb.nodes[node].ap.observe(&buf) {
                if let Some(az) = obs.global_azimuth {
                    bearings.push(BearingObservation {
                        ap_position: tb.nodes[node].ap.config().position,
                        azimuth: az,
                    });
                }
            }
        }
        let decision = fence.decide(&bearings);
        let (fix_str, verdict) = match &decision {
            secureangle::fence::FenceDecision::Inside(f) => (
                format!("({:5.1},{:5.1})", f.position.x, f.position.y),
                "ADMIT (inside)",
            ),
            secureangle::fence::FenceDecision::Outside(f) => (
                format!("({:5.1},{:5.1})", f.position.x, f.position.y),
                "DROP (outside)",
            ),
            secureangle::fence::FenceDecision::Unreliable(_) => {
                ("inconsistent".into(), "DROP (unreliable fix)")
            }
            secureangle::fence::FenceDecision::NoFix(_) => ("none".into(), "DROP (no fix)"),
        };
        println!(
            "{:<14}| ({:5.1},{:4.1}) | {:<13}| {}",
            label, pos.x, pos.y, fix_str, verdict
        );
    }
    println!("\n(An outside transmitter cannot talk its way in with power: its bearings\n intersect outside the polygon no matter how loud it is.)");
}
