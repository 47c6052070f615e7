//! Property-based tests for the OFDM physical layer.

use proptest::prelude::*;
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::fft::plan_for;
use sa_phy::modulation::{bits_to_bytes, bytes_to_bits, Modulation};
use sa_phy::params::{carrier_to_bin, data_carriers, N_CP, N_FFT, SYMBOL_LEN};
use sa_phy::ppdu::{PhyError, Receiver, Transmitter, MAX_PAYLOAD};
use sa_phy::preamble::{time_scale, PREAMBLE_LEN};

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
    ]
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

/// Rewrite the 16-bit length header carried by the first data symbol of
/// a clean, unit-channel waveform whose preamble starts at `start`. The
/// pilots are left alone, so the receiver equalises and phase-tracks the
/// symbol exactly as before and reads the forged length.
fn forge_length_header(wave: &mut [C64], start: usize, m: Modulation, len: u16) {
    let plan = plan_for(N_FFT);
    let body = start + PREAMBLE_LEN + N_CP;
    let mut sym = plan.fft_owned(&wave[body..body + N_FFT]);
    let scale = time_scale();
    let bps = m.bits_per_symbol();
    let header = bytes_to_bits(&len.to_be_bytes());
    for (c, &k) in data_carriers()
        .iter()
        .enumerate()
        .take(16usize.div_ceil(bps))
    {
        let bin = carrier_to_bin(k);
        let mut bits = m.demap(sym[bin].scale(1.0 / scale));
        for (b, bit) in bits.iter_mut().enumerate() {
            if let Some(&h) = header.get(c * bps + b) {
                *bit = h;
            }
        }
        sym[bin] = m.map(&bits).scale(scale);
    }
    plan.ifft(&mut sym);
    wave[body..body + N_FFT].copy_from_slice(&sym);
    wave[body - N_CP..body].copy_from_slice(&sym[N_FFT - N_CP..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bits_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let bits = bytes_to_bits(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        prop_assert_eq!(bits_to_bytes(&bits), bytes);
    }

    #[test]
    fn constellation_roundtrip_any_bits(m in any_modulation(), raw in proptest::collection::vec(0u8..2, 1..200)) {
        let syms = m.map_stream(&raw);
        let back = m.demap_stream(&syms);
        // Compare up to the original length (map_stream zero-pads).
        prop_assert_eq!(&back[..raw.len()], &raw[..]);
        // Padding, if any, is zeros.
        prop_assert!(back[raw.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn map_points_have_unit_average_energy_over_stream(m in any_modulation(), raw in proptest::collection::vec(0u8..2, 64..512)) {
        let syms = m.map_stream(&raw);
        let e: f64 = syms.iter().map(|z| z.norm_sqr()).sum::<f64>() / syms.len() as f64;
        // Random-ish bit streams stay near unit average energy.
        prop_assert!((0.3..3.0).contains(&e), "energy {}", e);
    }

    #[test]
    fn packet_length_formula_matches_waveform(m in any_modulation(), len in 0usize..400) {
        let tx = Transmitter::new(m);
        let payload = vec![0x5Au8; len];
        prop_assert_eq!(tx.encode(&payload).len(), tx.packet_len(len));
    }

    #[test]
    fn loopback_with_arbitrary_payload_and_offset(
        m in any_modulation(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        offset in 0usize..150,
    ) {
        let tx = Transmitter::new(m);
        let rx = Receiver::new(m);
        let wave = tx.encode(&payload);
        let mut buf = vec![ZERO; offset + wave.len() + 100];
        buf[offset..offset + wave.len()].copy_from_slice(&wave);
        let pkt = rx.decode(&buf).expect("clean decode");
        prop_assert_eq!(pkt.payload, payload);
        prop_assert!(pkt.evm_db < -20.0, "EVM {}", pkt.evm_db);
    }

    #[test]
    fn decode_never_panics_on_noise(seed in 0u64..500, n in 300usize..2000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let buf = sa_sigproc::noise::cn_vector(&mut rng, n, 1.0);
        // Any outcome is fine; it must just not panic.
        let _ = Receiver::new(Modulation::Qpsk).decode(&buf);
    }

    #[test]
    fn preamble_is_waveform_prefix(m in any_modulation(), len in 0usize..64) {
        let tx = Transmitter::new(m);
        let wave = tx.encode(&vec![1u8; len]);
        let pre = sa_phy::preamble::preamble_time();
        for (a, b) in pre.iter().zip(wave.iter()) {
            prop_assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn decode_rejects_all_zero_captures(n in 0usize..3000) {
        prop_assert_eq!(
            Receiver::new(Modulation::Qpsk).decode(&vec![ZERO; n]).unwrap_err(),
            PhyError::NoPacket
        );
    }

    #[test]
    fn decode_never_panics_on_non_finite_samples(
        m in any_modulation(),
        len in 0usize..64,
        offset in 0usize..100,
        lace in proptest::collection::vec((0usize..4000, non_finite()), 0..40),
        all in any::<bool>(),
    ) {
        let tx = Transmitter::new(m);
        let wave = tx.encode(&vec![0xA5u8; len]);
        let mut buf = vec![ZERO; offset + wave.len() + 100];
        buf[offset..offset + wave.len()].copy_from_slice(&wave);
        if all {
            let fill = lace.first().map_or(C64::new(f64::NAN, f64::NAN), |&(_, z)| z);
            buf.fill(fill);
        }
        for &(i, z) in &lace {
            let n = buf.len();
            buf[i % n] = z;
        }
        // Any typed outcome is fine; a decoded payload can only come
        // from symbols inside the capture.
        if let Ok(pkt) = Receiver::new(m).decode(&buf) {
            prop_assert!(pkt.payload.len() * 8 <= buf.len() * m.bits_per_symbol());
        }
    }

    #[test]
    fn decode_rejects_captures_shorter_than_the_preamble(
        m in any_modulation(),
        len in 0usize..64,
        cut in 0usize..PREAMBLE_LEN,
    ) {
        let wave = Transmitter::new(m).encode(&vec![0x3Cu8; len]);
        prop_assert!(Receiver::new(m).decode(&wave[..cut]).is_err());
    }

    #[test]
    fn forged_length_header_never_reads_past_the_capture(
        m in any_modulation(),
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        offset in 0usize..100,
        forged in any::<u16>(),
    ) {
        let tx = Transmitter::new(m);
        let wave = tx.encode(&payload);
        let mut buf = vec![ZERO; offset + wave.len() + SYMBOL_LEN / 2];
        buf[offset..offset + wave.len()].copy_from_slice(&wave);
        forge_length_header(&mut buf, offset, m, forged);
        let forged = usize::from(forged);
        let got = Receiver::new(m).decode(&buf);
        if forged > MAX_PAYLOAD {
            prop_assert_eq!(got.unwrap_err(), PhyError::BadLength);
        } else if tx.n_symbols(forged) > tx.n_symbols(payload.len()) {
            prop_assert_eq!(got.unwrap_err(), PhyError::TooShort);
        } else {
            // A shorter claim fits in the symbols present: the receiver
            // returns exactly that many bytes.
            let pkt = got.expect("forged length fits the capture");
            prop_assert_eq!(pkt.payload.len(), forged);
            prop_assert_eq!(&pkt.payload[..], &payload[..forged.min(payload.len())][..]);
        }
    }
}
