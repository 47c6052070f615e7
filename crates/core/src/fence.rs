//! Virtual fences (paper §2.3.1).
//!
//! "We investigate restriction of use to the building or room containing
//! the access point … it is desired that only clients within the
//! building be allowed wireless access. With direct path AoA information
//! obtained from multiple SecureAngle APs, high-precision indoor location
//! can be determined to enable this service."
//!
//! A fence is a polygon in the floor-plan frame. Frames are admitted
//! when the localized transmitter lies inside, with consistency checks
//! on the fix quality so a false-positive AoA does not open the fence.

use crate::localize::{localize, BearingObservation, Fix, LocalizeError};
use sa_channel::geom::{point_in_polygon, Point};

/// Fence decision for one localized transmitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FenceDecision {
    /// Transmitter localized inside the fence: admit.
    Inside(Fix),
    /// Transmitter localized outside: drop.
    Outside(Fix),
    /// The fix is too inconsistent to trust (high residual or bearings
    /// pointing away); policy decides, default is to drop.
    Unreliable(Fix),
    /// Localization failed outright.
    NoFix(LocalizeError),
}

impl FenceDecision {
    /// Should the frame be admitted under the default (fail-closed)
    /// policy?
    pub fn admit(&self) -> bool {
        matches!(self, FenceDecision::Inside(_))
    }
}

/// Maximum acceptable RMS bearing-line residual, meters; above this the
/// fix is `Unreliable`.
pub const MAX_RESIDUAL_M: f64 = 3.0;

/// A polygonal virtual fence over a set of cooperating APs.
#[derive(Debug, Clone)]
pub struct VirtualFence {
    polygon: Vec<Point>,
}

impl VirtualFence {
    /// Build a fence from a polygon (≥3 vertices).
    pub fn new(polygon: Vec<Point>) -> Self {
        assert!(polygon.len() >= 3, "fence polygon needs >= 3 vertices");
        Self { polygon }
    }

    /// The fence polygon.
    pub fn polygon(&self) -> &[Point] {
        &self.polygon
    }

    /// True if a point is inside the fence polygon.
    pub fn contains(&self, p: Point) -> bool {
        point_in_polygon(p, &self.polygon)
    }

    /// Localize from per-AP bearings and decide.
    ///
    /// A fix is reliable when its residual is at most [`MAX_RESIDUAL_M`]
    /// and no bearing points away from it (the multi-AP false-positive
    /// filter of §3.1). When the all-bearings fix is unreliable and ≥3
    /// bearings exist, each bearing is left out in turn and the best
    /// reliable subset fix is kept — the paper's §3.1 remedy: "multiple
    /// APs can be applied to remove the false positive direct path AoA
    /// as those false positive AoAs obtained from different APs may not
    /// intersect with each other".
    pub fn decide(&self, bearings: &[BearingObservation]) -> FenceDecision {
        let fix = match localize(bearings) {
            Ok(f) => f,
            Err(e) => return FenceDecision::NoFix(e),
        };
        if self.is_reliable(&fix) {
            return self.classify(fix);
        }
        // Unreliable: hunt for a single false-positive AoA by leaving
        // each bearing out and keeping the most consistent subset fix.
        if bearings.len() >= 3 {
            let mut best: Option<Fix> = None;
            for skip in 0..bearings.len() {
                let subset: Vec<BearingObservation> = bearings
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, b)| *b)
                    .collect();
                if let Ok(f) = localize(&subset) {
                    if self.is_reliable(&f) && best.is_none_or(|b| f.residual_m < b.residual_m) {
                        best = Some(f);
                    }
                }
            }
            if let Some(f) = best {
                return self.classify(f);
            }
        }
        FenceDecision::Unreliable(fix)
    }

    fn is_reliable(&self, fix: &Fix) -> bool {
        fix.residual_m <= MAX_RESIDUAL_M && fix.behind_count == 0
    }

    fn classify(&self, fix: Fix) -> FenceDecision {
        if self.contains(fix.position) {
            FenceDecision::Inside(fix)
        } else {
            FenceDecision::Outside(fix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_channel::geom::pt;

    fn square_fence() -> VirtualFence {
        VirtualFence::new(vec![
            pt(0.0, 0.0),
            pt(10.0, 0.0),
            pt(10.0, 8.0),
            pt(0.0, 8.0),
        ])
    }

    fn bearings_to(target: Point, aps: &[Point]) -> Vec<BearingObservation> {
        aps.iter()
            .map(|&p| BearingObservation {
                ap_position: p,
                azimuth: p.azimuth_to(target),
            })
            .collect()
    }

    #[test]
    fn inside_client_admitted() {
        let fence = square_fence();
        let aps = [pt(1.0, 1.0), pt(9.0, 1.0), pt(5.0, 7.0)];
        let d = fence.decide(&bearings_to(pt(5.0, 4.0), &aps));
        assert!(d.admit(), "decision {:?}", d);
        match d {
            FenceDecision::Inside(fix) => assert!(fix.position.dist(pt(5.0, 4.0)) < 1e-6),
            _ => unreachable!(),
        }
    }

    #[test]
    fn outside_client_dropped() {
        let fence = square_fence();
        let aps = [pt(1.0, 1.0), pt(9.0, 1.0)];
        let d = fence.decide(&bearings_to(pt(15.0, 4.0), &aps));
        assert!(!d.admit());
        assert!(matches!(d, FenceDecision::Outside(_)));
    }

    #[test]
    fn client_on_far_side_of_wall_outside_polygon() {
        // "physically located outside a building or office" — just
        // outside the boundary also counts as outside.
        let fence = square_fence();
        let aps = [pt(1.0, 1.0), pt(9.0, 1.0)];
        let d = fence.decide(&bearings_to(pt(5.0, 8.5), &aps));
        assert!(!d.admit());
    }

    #[test]
    fn inconsistent_bearings_fail_closed() {
        let fence = square_fence();
        // Second bearing rotated 180°: points away.
        let mut b = bearings_to(pt(5.0, 4.0), &[pt(1.0, 1.0), pt(9.0, 1.0)]);
        b[1].azimuth += std::f64::consts::PI;
        let d = fence.decide(&b);
        assert!(!d.admit());
        assert!(
            matches!(d, FenceDecision::Unreliable(_)),
            "decision {:?}",
            d
        );
    }

    #[test]
    fn high_residual_fails_closed() {
        let fence = square_fence();
        // A pinwheel of four bearings, each pointing past the fence
        // centre along a different side of a 20 m × 18 m box: the
        // all-bearings fix lands inside the fence with every bearing
        // pointing towards it, but the lines miss it by meters, and no
        // leave-one-out triple intersects any better.
        let b = vec![
            BearingObservation {
                ap_position: pt(-5.0, -5.0),
                azimuth: 0.0,
            },
            BearingObservation {
                ap_position: pt(15.0, -5.0),
                azimuth: std::f64::consts::FRAC_PI_2,
            },
            BearingObservation {
                ap_position: pt(15.0, 13.0),
                azimuth: std::f64::consts::PI,
            },
            BearingObservation {
                ap_position: pt(-5.0, 13.0),
                azimuth: -std::f64::consts::FRAC_PI_2,
            },
        ];
        for skip in 0..b.len() {
            let mut subset = b.clone();
            subset.remove(skip);
            let fix = localize(&subset).unwrap();
            assert!(fix.residual_m > MAX_RESIDUAL_M, "subset fix {:?}", fix);
        }
        let d = fence.decide(&b);
        assert!(!d.admit());
        match d {
            FenceDecision::Unreliable(fix) => {
                // Only the residual gate can have rejected it.
                assert!(fence.contains(fix.position), "fix {:?}", fix);
                assert_eq!(fix.behind_count, 0);
                assert!(fix.residual_m > MAX_RESIDUAL_M, "fix {:?}", fix);
            }
            other => panic!("expected Unreliable, got {:?}", other),
        }
    }

    #[test]
    fn single_ap_cannot_open_the_fence() {
        let fence = square_fence();
        let b = bearings_to(pt(5.0, 4.0), &[pt(1.0, 1.0)]);
        let d = fence.decide(&b);
        assert!(!d.admit());
        assert!(matches!(
            d,
            FenceDecision::NoFix(LocalizeError::NotEnoughBearings)
        ));
    }

    #[test]
    #[should_panic(expected = "3 vertices")]
    fn degenerate_polygon_rejected() {
        let _ = VirtualFence::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)]);
    }

    #[test]
    fn outlier_bearing_is_dropped_and_fix_recovered() {
        // Three APs; two point at the true client, the third at a
        // false-positive reflection direction. Leave-one-out must
        // recover a consistent inside fix from the good pair (§3.1's
        // "false positive AoAs … may not intersect with each other").
        let fence = square_fence();
        let target = pt(5.0, 4.0);
        let mut b = bearings_to(target, &[pt(1.0, 1.0), pt(9.0, 1.0), pt(5.0, 7.0)]);
        b[2].azimuth += 2.5; // wildly wrong third bearing
        let d = fence.decide(&b);
        assert!(d.admit(), "outlier rejection failed: {:?}", d);
        if let FenceDecision::Inside(fix) = d {
            assert!(fix.position.dist(target) < 0.5, "fix {:?}", fix.position);
        }
    }
}
