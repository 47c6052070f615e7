//! PPDU framing: payload bytes ↔ a complete baseband packet waveform.
//!
//! Transmit chain: length header + payload → bits → constellation
//! symbols → 48-carrier OFDM symbols with BPSK pilots → IFFT + cyclic
//! prefix → preamble prepended. Receive chain: Schmidl–Cox coarse
//! detection + CFO correction → matched-filter fine timing on the known
//! preamble → LTF least-squares channel estimate → per-symbol
//! equalisation with pilot common-phase tracking → hard demap. This is
//! the same structure the paper's Matlab/WARPLab receiver implements
//! before handing samples to the AoA machinery.

use crate::modulation::{bits_to_bytes, bytes_to_bits, Modulation};
use crate::params::{carrier_to_bin, data_carriers, N_CP, N_FFT, PILOT_CARRIERS, SYMBOL_LEN};
use crate::preamble::{
    ltf_symbol_freq, preamble_time, preamble_time_ref, PREAMBLE_LEN, SC_HALF_LEN,
};
use sa_linalg::complex::{C64, ZERO};
use sa_linalg::fft::plan_for;
use sa_sigproc::schmidl_cox::SchmidlCox;

/// Errors the receiver can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyError {
    /// No Schmidl–Cox detection in the buffer.
    NoPacket,
    /// A packet started but the buffer ends before its payload does.
    TooShort,
    /// The decoded length field is implausible (corrupt header).
    BadLength,
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::NoPacket => write!(f, "no packet detected"),
            PhyError::TooShort => write!(f, "buffer truncates the packet"),
            PhyError::BadLength => write!(f, "implausible length header"),
        }
    }
}

impl std::error::Error for PhyError {}

/// Maximum payload the 16-bit length header may carry (bytes); generous
/// for an 0.4 ms capture.
pub const MAX_PAYLOAD: usize = 4095;

/// Pilot BPSK value for pilot index `p` in symbol `s` (sign-alternating
/// PN so pilots don't form a CW tone).
fn pilot_value(p: usize, s: usize) -> C64 {
    let v = (s.wrapping_mul(31) ^ p.wrapping_mul(17)) & 1;
    if v == 0 {
        C64::new(1.0, 0.0)
    } else {
        C64::new(-1.0, 0.0)
    }
}

/// OFDM transmitter for a fixed modulation.
#[derive(Debug, Clone, Copy)]
pub struct Transmitter {
    /// Constellation used on the data carriers.
    pub modulation: Modulation,
}

impl Transmitter {
    /// New transmitter.
    pub fn new(modulation: Modulation) -> Self {
        Self { modulation }
    }

    /// Number of OFDM data symbols a payload needs.
    pub fn n_symbols(&self, payload_len: usize) -> usize {
        let total_bits = (2 + payload_len) * 8;
        let bits_per_ofdm = 48 * self.modulation.bits_per_symbol();
        total_bits.div_ceil(bits_per_ofdm)
    }

    /// Total packet length in samples.
    pub fn packet_len(&self, payload_len: usize) -> usize {
        PREAMBLE_LEN + self.n_symbols(payload_len) * SYMBOL_LEN
    }

    /// Encode a payload into a baseband waveform (preamble + data
    /// symbols). Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn encode(&self, payload: &[u8]) -> Vec<C64> {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload {} exceeds {}",
            payload.len(),
            MAX_PAYLOAD
        );
        // Header: 16-bit big-endian length, then payload.
        let mut bytes = Vec::with_capacity(2 + payload.len());
        bytes.push((payload.len() >> 8) as u8);
        bytes.push((payload.len() & 0xff) as u8);
        bytes.extend_from_slice(payload);
        let bits = bytes_to_bits(&bytes);
        let symbols = self.modulation.map_stream(&bits);

        let carriers = data_carriers();
        let n_sym = self.n_symbols(payload.len());
        let mut out = preamble_time();
        out.reserve(n_sym * SYMBOL_LEN);
        let mut it = symbols.into_iter();
        // Unused tail slots carry a valid constellation point (all-zero
        // bits), not spectral nulls: zeros are not constellation points
        // and would read as errors in the receiver's EVM accounting.
        let pad = self
            .modulation
            .map(&vec![0u8; self.modulation.bits_per_symbol()]);
        let scale = crate::preamble::time_scale();
        // One cached FFT plan and one symbol buffer for the whole
        // packet: the per-symbol loop is IFFT + copies, no allocation.
        let plan = plan_for(N_FFT);
        let mut sym = vec![ZERO; N_FFT];
        for s in 0..n_sym {
            sym.fill(ZERO);
            for (p, &k) in PILOT_CARRIERS.iter().enumerate() {
                sym[carrier_to_bin(k)] = pilot_value(p, s);
            }
            for &k in &carriers {
                sym[carrier_to_bin(k)] = it.next().unwrap_or(pad);
            }
            plan.ifft(&mut sym);
            for z in sym.iter_mut() {
                *z = z.scale(scale);
            }
            out.extend_from_slice(&sym[N_FFT - N_CP..]); // CP
            out.extend_from_slice(&sym);
        }
        out
    }
}

/// A successfully decoded packet.
#[derive(Debug, Clone)]
pub struct DecodedPacket {
    /// Recovered payload bytes.
    pub payload: Vec<u8>,
    /// Sample index where the preamble was found.
    pub start: usize,
    /// Estimated CFO, radians/sample.
    pub cfo: f64,
    /// Error-vector magnitude over all data symbols, dB (lower = better;
    /// −20 dB ≈ comfortable hard-decision margin for 16-QAM).
    pub evm_db: f64,
}

/// OFDM receiver for a fixed modulation.
#[derive(Debug, Clone, Copy)]
pub struct Receiver {
    /// Constellation expected on the data carriers.
    pub modulation: Modulation,
    /// Schmidl–Cox threshold (0.5 default).
    pub detect_threshold: f64,
}

impl Receiver {
    /// New receiver with default detection threshold.
    pub fn new(modulation: Modulation) -> Self {
        Self {
            modulation,
            detect_threshold: 0.5,
        }
    }

    /// Decode the first packet in `buffer`.
    pub fn decode(&self, buffer: &[C64]) -> Result<DecodedPacket, PhyError> {
        let mut sc = SchmidlCox::new(SC_HALF_LEN);
        sc.threshold = self.detect_threshold;
        let det = sc
            .detect(buffer)
            .into_iter()
            .next()
            .ok_or(PhyError::NoPacket)?;

        // CFO-correct a working copy from the coarse start onward.
        let mut rx = buffer.to_vec();
        sa_sigproc::iq::apply_cfo(&mut rx, -det.cfo);

        // Fine timing: matched filter against the known preamble around
        // the coarse estimate (S&C points at the start of the two
        // identical halves, i.e. one CP after the true preamble start).
        let pre = preamble_time_ref();
        let Some(last_start) = rx.len().checked_sub(pre.len()) else {
            return Err(PhyError::TooShort);
        };
        let coarse = det.start.saturating_sub(N_CP);
        let lo = coarse.saturating_sub(N_CP);
        let hi = (coarse + N_CP).min(last_start);
        if lo > hi {
            return Err(PhyError::TooShort);
        }
        let mut best = (lo, f64::NEG_INFINITY);
        for p in lo..=hi {
            let mut acc = ZERO;
            let mut energy = 1e-30;
            for (i, &pi) in pre.iter().enumerate() {
                acc += pi.conj() * rx[p + i];
                energy += rx[p + i].norm_sqr();
            }
            let score = acc.norm_sqr() / energy;
            if score > best.1 {
                best = (p, score);
            }
        }
        let start = best.0;

        // Channel estimate from the LTF symbol. One cached FFT plan
        // serves the LTF and every data symbol of this packet.
        let plan = plan_for(N_FFT);
        let ltf_start = start + crate::preamble::LTF_SYMBOL_OFFSET;
        if ltf_start + N_FFT > rx.len() {
            return Err(PhyError::TooShort);
        }
        let y = plan.fft_owned(&rx[ltf_start..ltf_start + N_FFT]);
        let x = ltf_symbol_freq();
        let mut h = vec![ZERO; N_FFT];
        for bin in 0..N_FFT {
            if x[bin].norm_sqr() > 0.0 {
                h[bin] = y[bin] / x[bin];
            }
        }

        // Decode data symbols until the length header tells us to stop.
        let carriers = data_carriers();
        let bps = self.modulation.bits_per_symbol();
        let mut bits: Vec<u8> = Vec::new();
        let mut needed_bytes: Option<usize> = None;
        let mut evm_num = 0.0f64;
        let mut evm_den = 0.0f64;
        let mut s = 0usize;
        let mut yf = vec![ZERO; N_FFT];
        loop {
            if let Some(nb) = needed_bytes {
                if bits.len() >= nb * 8 {
                    break;
                }
            }
            let sym_start = start + PREAMBLE_LEN + s * SYMBOL_LEN + N_CP;
            if sym_start + N_FFT > rx.len() {
                return Err(PhyError::TooShort);
            }
            yf.copy_from_slice(&rx[sym_start..sym_start + N_FFT]);
            plan.fft(&mut yf);
            // Equalise, then pilot common-phase correction (residual CFO
            // accumulates a per-symbol rotation).
            let mut rot_acc = ZERO;
            for (p, &k) in PILOT_CARRIERS.iter().enumerate() {
                let bin = carrier_to_bin(k);
                if h[bin].norm_sqr() > 1e-12 {
                    let z = yf[bin] / h[bin];
                    rot_acc += z * pilot_value(p, s).conj();
                }
            }
            let rot = if rot_acc.abs() > 1e-12 {
                C64::cis(-rot_acc.arg())
            } else {
                C64::new(1.0, 0.0)
            };
            for &k in &carriers {
                let bin = carrier_to_bin(k);
                if h[bin].norm_sqr() <= 1e-12 {
                    bits.extend(std::iter::repeat_n(0, bps));
                    continue;
                }
                let z = (yf[bin] / h[bin]) * rot;
                let b = self.modulation.demap(z);
                let ideal = self.modulation.map(&b);
                evm_num += (z - ideal).norm_sqr();
                evm_den += 1.0;
                bits.extend(b);
            }
            if needed_bytes.is_none() && bits.len() >= 16 {
                let hdr = bits_to_bytes(&bits[..16]);
                let len = ((hdr[0] as usize) << 8) | hdr[1] as usize;
                if len > MAX_PAYLOAD {
                    return Err(PhyError::BadLength);
                }
                needed_bytes = Some(2 + len);
            }
            s += 1;
            if s > 4096 {
                return Err(PhyError::BadLength);
            }
        }

        let nb = needed_bytes.expect("loop exits only with a length");
        let bytes = bits_to_bytes(&bits[..nb * 8]);
        let payload = bytes[2..].to_vec();
        let evm_db = if evm_den > 0.0 {
            10.0 * (evm_num / evm_den).log10()
        } else {
            f64::NEG_INFINITY
        };
        Ok(DecodedPacket {
            payload,
            start,
            cfo: det.cfo,
            evm_db,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sa_sigproc::iq::apply_cfo;
    use sa_sigproc::noise::{add_noise, cn_vector};

    fn tx_rx(m: Modulation) -> (Transmitter, Receiver) {
        (Transmitter::new(m), Receiver::new(m))
    }

    fn in_buffer(wave: &[C64], offset: usize, total: usize) -> Vec<C64> {
        let mut buf = vec![ZERO; total];
        buf[offset..offset + wave.len()].copy_from_slice(wave);
        buf
    }

    #[test]
    fn clean_loopback_all_modulations() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let (tx, rx) = tx_rx(m);
            let payload: Vec<u8> = (0..100u8).collect();
            let wave = tx.encode(&payload);
            let buf = in_buffer(&wave, 50, wave.len() + 200);
            let pkt = rx.decode(&buf).expect("decode");
            assert_eq!(pkt.payload, payload, "{:?}", m);
            assert!(
                (pkt.start as i64 - 50).unsigned_abs() <= 2,
                "start {}",
                pkt.start
            );
            assert!(pkt.evm_db < -30.0, "{:?} EVM {}", m, pkt.evm_db);
        }
    }

    #[test]
    fn loopback_with_cfo() {
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let payload = b"carrier offset resilience".to_vec();
        let wave = tx.encode(&payload);
        let mut buf = in_buffer(&wave, 80, wave.len() + 200);
        apply_cfo(&mut buf, 0.02);
        let pkt = rx.decode(&buf).expect("decode under CFO");
        assert_eq!(pkt.payload, payload);
        assert!((pkt.cfo - 0.02).abs() < 2e-3, "cfo {}", pkt.cfo);
    }

    #[test]
    fn loopback_with_noise_20db() {
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let payload: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        let wave = tx.encode(&payload);
        let sig_pow = sa_sigproc::iq::mean_power(&wave);
        let mut buf = in_buffer(&wave, 64, wave.len() + 256);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        add_noise(&mut rng, &mut buf, sig_pow / 100.0); // 20 dB
        let pkt = rx.decode(&buf).expect("decode at 20 dB");
        assert_eq!(pkt.payload, payload);
        assert!(pkt.evm_db < -10.0);
    }

    #[test]
    fn noise_only_reports_no_packet() {
        let rx = Receiver::new(Modulation::Qpsk);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let buf = cn_vector(&mut rng, 4000, 1.0);
        assert_eq!(rx.decode(&buf).unwrap_err(), PhyError::NoPacket);
    }

    #[test]
    fn truncated_packet_reports_too_short() {
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let wave = tx.encode(&[0xAB; 300]);
        // Cut the buffer in the middle of the data symbols.
        let cut = PREAMBLE_LEN + SYMBOL_LEN; // keep preamble + 1 symbol
        let buf = in_buffer(&wave[..cut + PREAMBLE_LEN], 0, cut + PREAMBLE_LEN);
        assert_eq!(rx.decode(&buf).unwrap_err(), PhyError::TooShort);
    }

    #[test]
    fn capture_cut_inside_the_preamble_reports_too_short() {
        // Detection fires on the S&C half-symbols, but the matched filter
        // has no room for the full preamble.
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let wave = tx.encode(&[0x3C; 8]);
        assert_eq!(rx.decode(&wave[..118]).unwrap_err(), PhyError::TooShort);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let (tx, rx) = tx_rx(Modulation::Bpsk);
        let wave = tx.encode(&[]);
        let buf = in_buffer(&wave, 10, wave.len() + 100);
        let pkt = rx.decode(&buf).expect("decode empty");
        assert!(pkt.payload.is_empty());
    }

    #[test]
    fn packet_length_accounting() {
        let tx = Transmitter::new(Modulation::Qpsk);
        // 2 + 10 bytes = 96 bits; QPSK carries 96/symbol ⇒ 1 symbol.
        assert_eq!(tx.n_symbols(10), 1);
        assert_eq!(tx.packet_len(10), PREAMBLE_LEN + SYMBOL_LEN);
        assert_eq!(tx.encode(&[0u8; 10]).len(), tx.packet_len(10));
        // 16-QAM: 192 bits/symbol.
        let tx16 = Transmitter::new(Modulation::Qam16);
        assert_eq!(tx16.n_symbols(22), 1); // 192 bits exactly
        assert_eq!(tx16.n_symbols(23), 2);
    }

    #[test]
    fn multipath_two_tap_channel_still_decodes() {
        // A second tap inside the CP: the equaliser must absorb it.
        let (tx, rx) = tx_rx(Modulation::Qpsk);
        let payload = b"cyclic prefix does its job".to_vec();
        let wave = tx.encode(&payload);
        let mut buf = in_buffer(&wave, 40, wave.len() + 200);
        let echo: Vec<C64> = {
            let delayed = sa_sigproc::iq::delay_signal(&buf, 5.0);
            delayed
                .iter()
                .map(|z| *z * C64::from_polar(0.4, 1.0))
                .collect()
        };
        for (b, e) in buf.iter_mut().zip(echo.iter()) {
            *b += *e;
        }
        let pkt = rx.decode(&buf).expect("decode through 2-tap channel");
        assert_eq!(pkt.payload, payload);
    }

    #[test]
    fn max_payload_enforced() {
        let tx = Transmitter::new(Modulation::Qam16);
        let wave = tx.encode(&vec![0u8; MAX_PAYLOAD]);
        assert!(!wave.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversize_payload_panics() {
        let tx = Transmitter::new(Modulation::Qam16);
        let _ = tx.encode(&vec![0u8; MAX_PAYLOAD + 1]);
    }
}
