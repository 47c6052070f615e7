//! Property-based tests for the signal-processing layer.

use proptest::prelude::*;
use sa_linalg::complex::{c64, C64, ZERO};
use sa_linalg::CMat;
use sa_sigproc::covariance::{
    forward_backward, numerical_rank, sample_covariance, sample_covariance_strided_into,
    spatial_smooth,
};
use sa_sigproc::iq;
use sa_sigproc::schmidl_cox::SchmidlCox;

fn finite_c64() -> impl Strategy<Value = C64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| c64(re, im))
}

fn snapshots(m: usize, n: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(finite_c64(), m * n).prop_map(move |v| CMat::from_rows(m, n, &v))
}

/// The rank-1-update covariance kernel the pair-wise kernel replaced,
/// kept verbatim as the bit-identity oracle: for each snapshot, update
/// all M² entries.
fn reference_covariance(x: &CMat, stride: usize, out: &mut CMat) {
    let m = x.rows();
    assert!(stride > 0, "sample_covariance: zero stride");
    let n = x.cols().div_ceil(stride);
    assert!(n > 0, "sample_covariance: no snapshots");
    out.reset_zero(m, m);
    for t in (0..x.cols()).step_by(stride) {
        // rank-1 update r += x_t x_t^H (unrolled to avoid building columns)
        for i in 0..m {
            let xi = x[(i, t)];
            for j in 0..m {
                out[(i, j)] += xi * x[(j, t)].conj();
            }
        }
    }
    out.scale_mut(1.0 / n as f64);
}

/// Compare the library kernel with [`reference_covariance`] entry by
/// entry on the IEEE bit patterns (`==` would take `−0` for `+0`).
fn covariance_bits_match(x: &CMat, stride: usize) -> Result<(), String> {
    let mut got = CMat::default();
    let mut want = CMat::default();
    sample_covariance_strided_into(x, stride, &mut got);
    reference_covariance(x, stride, &mut want);
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(format!(
            "shape {}x{} != {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    let m = want.cols();
    for (k, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        if g.re.to_bits() != w.re.to_bits() || g.im.to_bits() != w.im.to_bits() {
            return Err(format!(
                "entry ({}, {}) of {}x{} stride {}: got {:?}, reference {:?}",
                k / m,
                k % m,
                x.rows(),
                x.cols(),
                stride,
                g,
                w
            ));
        }
    }
    Ok(())
}

/// One snapshot row: complex, real-only or all zero. Real-only and zero
/// rows give exact `+0` imaginary sums, the entries a `conj` mirror
/// would flip to `−0`.
fn snapshot_row(n: usize) -> impl Strategy<Value = Vec<C64>> {
    (0u8..3, proptest::collection::vec(finite_c64(), n)).prop_map(|(kind, row)| match kind {
        0 => row,
        1 => row.into_iter().map(|z| c64(z.re, 0.0)).collect(),
        _ => vec![ZERO; row.len()],
    })
}

/// A snapshot matrix (M ∈ 1..=16 rows, N ∈ 1..=600 columns) and a
/// stride ∈ 1..=7.
fn covariance_case() -> impl Strategy<Value = (CMat, usize)> {
    (1usize..=16, 1usize..=600, 1usize..=7).prop_flat_map(|(m, n, stride)| {
        proptest::collection::vec(snapshot_row(n), m)
            .prop_map(move |rows| (CMat::from_rows(m, n, &rows.concat()), stride))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ---------------- covariance oracle ----------------

    #[test]
    fn covariance_is_bit_identical_to_rank1_reference(case in covariance_case()) {
        let (x, stride) = case;
        prop_assert_eq!(covariance_bits_match(&x, stride), Ok(()));
    }
}

#[test]
fn covariance_forced_shapes_are_bit_identical_to_rank1_reference() {
    let wave = |i: usize, t: usize| {
        c64(
            ((3 * i + t) as f64 * 0.37).sin(),
            ((i * t) as f64 * 0.11).cos(),
        )
    };
    for m in 1..=16 {
        for (n, stride) in [(1, 1), (2, 1), (5, 2), (37, 3), (480, 1), (600, 7)] {
            // Real-valued input: every off-diagonal imaginary sum is +0.
            let real = CMat::from_fn(m, n, |i, t| c64(wave(i, t).re, 0.0));
            // All-zero rows next to live ones (every third row zero).
            let holes = CMat::from_fn(m, n, |i, t| if i % 3 == 1 { ZERO } else { wave(i, t) });
            for (what, x) in [
                ("real-only", real),
                ("zero rows", holes),
                ("all zero", CMat::zeros(m, n)),
                ("complex", CMat::from_fn(m, n, wave)),
            ] {
                assert_eq!(covariance_bits_match(&x, stride), Ok(()), "{what}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---------------- covariance ----------------

    #[test]
    fn sample_covariance_is_hermitian_psd(x in snapshots(5, 40)) {
        let r = sample_covariance(&x);
        prop_assert!(r.is_hermitian(1e-8));
        let eigs = sa_linalg::eigen::eigh(&r).values;
        let scale = r.fro_norm().max(1.0);
        for &l in &eigs {
            prop_assert!(l >= -1e-8 * scale, "negative eigenvalue {}", l);
        }
    }

    #[test]
    fn covariance_rank_at_most_snapshot_count(x in snapshots(6, 3)) {
        // 3 snapshots can span at most rank 3.
        let r = sample_covariance(&x);
        prop_assert!(numerical_rank(&r, 1e-9) <= 3);
    }

    #[test]
    fn forward_backward_preserves_trace_and_hermitian(x in snapshots(5, 30)) {
        let r = sample_covariance(&x);
        let fb = forward_backward(&r);
        prop_assert!(fb.is_hermitian(1e-8));
        prop_assert!((fb.trace().re - r.trace().re).abs() < 1e-8 * r.trace().re.abs().max(1.0));
    }

    #[test]
    fn spatial_smoothing_output_psd(x in snapshots(6, 30), sub in 2usize..6) {
        let r = sample_covariance(&x);
        let s = spatial_smooth(&r, sub);
        prop_assert_eq!(s.rows(), sub);
        prop_assert!(s.is_hermitian(1e-8));
        let eigs = sa_linalg::eigen::eigh(&s).values;
        let scale = s.fro_norm().max(1.0);
        for &l in &eigs {
            prop_assert!(l >= -1e-8 * scale);
        }
    }

    // ---------------- IQ utilities ----------------

    #[test]
    fn phase_rotation_preserves_power(v in proptest::collection::vec(finite_c64(), 1..64), ph in -7.0f64..7.0) {
        let p0 = iq::mean_power(&v);
        let mut w = v.clone();
        iq::apply_phase(&mut w, ph);
        prop_assert!((iq::mean_power(&w) - p0).abs() < 1e-9 * p0.max(1.0));
    }

    #[test]
    fn cfo_preserves_power(v in proptest::collection::vec(finite_c64(), 1..64), w_ in -0.5f64..0.5) {
        let p0 = iq::mean_power(&v);
        let mut w = v.clone();
        iq::apply_cfo(&mut w, w_);
        prop_assert!((iq::mean_power(&w) - p0).abs() < 1e-9 * p0.max(1.0));
    }

    #[test]
    fn delay_never_increases_energy(v in proptest::collection::vec(finite_c64(), 4..64), d in 0.0f64..8.0) {
        let e0 = iq::energy(&v);
        let delayed = iq::delay_signal(&v, d);
        prop_assert_eq!(delayed.len(), v.len());
        // Linear interpolation + head zero-padding cannot create energy.
        prop_assert!(iq::energy(&delayed) <= e0 * (1.0 + 1e-9) + 1e-12);
    }

    #[test]
    fn normalize_power_hits_target(v in proptest::collection::vec(finite_c64(), 2..64), t in 0.01f64..100.0) {
        prop_assume!(iq::mean_power(&v) > 1e-12);
        let mut w = v.clone();
        iq::normalize_power(&mut w, t);
        prop_assert!((iq::mean_power(&w) - t).abs() < 1e-6 * t);
    }

    #[test]
    fn db_roundtrip(p in 1e-9f64..1e9) {
        prop_assert!((iq::from_db(iq::to_db(p)) - p).abs() < 1e-6 * p);
    }

    // ---------------- Schmidl–Cox ----------------

    #[test]
    fn metric_is_bounded_for_any_signal(v in proptest::collection::vec(finite_c64(), 128..300)) {
        let sc = SchmidlCox::new(32);
        for m in sc.metric_trace(&v) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m), "metric {}", m);
        }
    }

    #[test]
    fn repeated_halves_are_always_detected(seed_vals in proptest::collection::vec(finite_c64(), 32)) {
        // Build a buffer whose middle contains [half|half] of any
        // non-degenerate content.
        prop_assume!(iq::mean_power(&seed_vals) > 0.05);
        // Exclude near-periodic halves (e.g. near-constant content),
        // which would widen the plateau beyond the timing tolerance.
        let mut half = seed_vals.clone();
        iq::normalize_power(&mut half, 1.0);
        let max_amp = half.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        prop_assume!(max_amp > 1.3); // some structure, not a flat tone

        let mut buf = vec![sa_linalg::complex::ZERO; 300];
        for (i, &z) in half.iter().enumerate() {
            buf[100 + i] = z;
            buf[132 + i] = z;
        }
        // Trailing noise-like content to suppress boundary plateaus.
        for i in 0..64 {
            let v = c64(((i * 37 % 11) as f64 - 5.0) / 5.0, ((i * 53 % 7) as f64 - 3.0) / 3.0);
            buf[164 + i] = v.scale(0.8);
        }
        let det = SchmidlCox::new(32).detect(&buf);
        prop_assert!(!det.is_empty(), "no detection");
        prop_assert!(
            (det[0].start as i64 - 100).unsigned_abs() <= 16,
            "start {}",
            det[0].start
        );
    }

    #[test]
    fn noise_cn_power_scales(sigma2 in 0.01f64..100.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let v = sa_sigproc::noise::cn_vector(&mut rng, 4096, sigma2);
        let p = iq::mean_power(&v);
        prop_assert!((p / sigma2 - 1.0).abs() < 0.2, "power ratio {}", p / sigma2);
    }
}
