//! Property-based tests for the AP's radio boundary: whatever capture
//! arrives — empty, the wrong shape, or laced with NaN/∞ samples —
//! `decode_reference` and `AccessPoint::observe` return a typed error or
//! a value, never a panic. A NaN/∞ sample inside a decoded packet's
//! window is always the typed `NonFinite` error.

use proptest::prelude::*;
use sa_channel::geom::pt;
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::CMat;
use sa_mac::{AccessControlList, AclPolicy, Frame, MacAddr};
use sa_phy::{Modulation, Transmitter};
use secureangle::pipeline::{decode_reference, AccessPoint, ApConfig, ObserveError};

fn prototype_ap() -> AccessPoint {
    AccessPoint::new(
        ApConfig::paper_prototype(pt(0.0, 0.0)),
        AccessControlList::new(AclPolicy::DenyListed),
    )
}

/// A clean `rows`-antenna capture of one QPSK data frame: the waveform
/// on every row with a per-row phase ramp (a plane wave), `offset`
/// silent samples ahead of it and 100 after.
fn clean_capture(rows: usize, offset: usize, phase_step: f64, body: &[u8]) -> CMat {
    let frame = Frame::data(
        MacAddr::local_from_index(1),
        MacAddr::BROADCAST,
        MacAddr::local_from_index(0),
        7,
        body,
    );
    let wave = Transmitter::new(Modulation::Qpsk).encode(&frame.encode());
    CMat::from_fn(rows, offset + wave.len() + 100, |m, t| {
        t.checked_sub(offset)
            .and_then(|t| wave.get(t))
            .map_or(ZERO, |&z| z * C64::cis(phase_step * m as f64))
    })
}

/// A sample that is not a finite number.
fn non_finite() -> impl Strategy<Value = C64> {
    prop_oneof![
        Just(C64::new(f64::NAN, 0.0)),
        Just(C64::new(0.0, f64::NAN)),
        Just(C64::new(f64::INFINITY, 0.0)),
        Just(C64::new(0.0, f64::NEG_INFINITY)),
        Just(C64::new(f64::INFINITY, f64::NAN)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn empty_captures_are_bad_buffers(rows in 0usize..10, cols in 0usize..600, empty_rows in any::<bool>()) {
        let (rows, cols) = if empty_rows { (0, cols) } else { (rows, 0) };
        let buf = CMat::zeros(rows, cols);
        prop_assert_eq!(decode_reference(&buf, Modulation::Qpsk).unwrap_err(), ObserveError::BadBuffer);
        prop_assert_eq!(prototype_ap().observe(&buf).unwrap_err(), ObserveError::BadBuffer);
    }

    #[test]
    fn wrong_row_count_is_a_bad_buffer(
        rows in 1usize..13,
        offset in 0usize..100,
        phase_step in -3.0f64..3.0,
        body in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let ap = prototype_ap();
        prop_assume!(rows != ap.config().array.len());
        let buf = clean_capture(rows, offset, phase_step, &body);
        // Stage 1 reads only the reference chain, so any row count decodes…
        let decoded = decode_reference(&buf, Modulation::Qpsk).expect("clean reference chain");
        prop_assert!(decoded.start + decoded.pkt_len <= buf.cols());
        // …but the AP refuses a capture its array could not have taken.
        prop_assert_eq!(ap.observe(&buf).unwrap_err(), ObserveError::BadBuffer);
    }

    #[test]
    fn non_finite_captures_never_panic(
        offset in 0usize..100,
        phase_step in -3.0f64..3.0,
        body in proptest::collection::vec(any::<u8>(), 0..24),
        lace in proptest::collection::vec((0usize..8, 0usize..1200, non_finite()), 0..24),
        all in any::<bool>(),
    ) {
        let ap = prototype_ap();
        let rows = ap.config().array.len();
        let mut buf = clean_capture(rows, offset, phase_step, &body);
        if all {
            let fill = lace.first().map_or(C64::new(f64::NAN, f64::NAN), |&(_, _, z)| z);
            buf = CMat::from_fn(rows, buf.cols(), |_, _| fill);
        }
        for &(m, t, z) in &lace {
            let cols = buf.cols();
            buf[(m, t % cols)] = z;
        }
        // Any typed outcome is fine; a decoded extent stays inside the
        // capture.
        if let Ok(decoded) = decode_reference(&buf, Modulation::Qpsk) {
            prop_assert!(decoded.start < buf.cols());
        }
        let _ = ap.observe(&buf);
    }

    #[test]
    fn non_finite_sample_inside_the_packet_window_is_refused(
        offset in 0usize..100,
        phase_step in -3.0f64..3.0,
        body in proptest::collection::vec(any::<u8>(), 0..24),
        row in 1usize..8,
        at in 0usize..10_000,
        z in non_finite(),
    ) {
        let ap = prototype_ap();
        let mut buf = clean_capture(ap.config().array.len(), offset, phase_step, &body);
        let decoded = decode_reference(&buf, Modulation::Qpsk).expect("clean reference chain");
        prop_assert!(decoded.pkt_len > 0);
        // One bad sample on a non-reference row inside [start, start +
        // pkt_len): stage 1 reads row 0 only and still decodes, so only
        // the staged window can catch it.
        buf[(row, decoded.start + at % decoded.pkt_len)] = z;
        prop_assert_eq!(ap.observe(&buf).unwrap_err(), ObserveError::NonFinite);
    }
}
