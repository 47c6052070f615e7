//! Kernel-level timing on the replay's own inputs.
//!
//! `decode_reference` and `PacketBatch::process` are single public
//! calls, so spans around them cannot say where inside them the time
//! goes. This module re-runs their public building blocks on the same
//! captures and decoded extents — Schmidl–Cox detection, the OFDM
//! receiver and MAC frame parsing for decode; calibration, covariance,
//! AoA estimation and signature extraction for the DSP pass — and times
//! each one.

use sa_aoa::estimator::AoaEngine;
use sa_linalg::CMat;
use sa_mac::Frame;
use sa_phy::ppdu::Receiver;
use sa_phy::Modulation;
use sa_sigproc::covariance::sample_covariance_strided_into;
use sa_sigproc::schmidl_cox::SchmidlCox;
use secureangle::pipeline::{AccessPoint, DecodedPacket};
use secureangle::signature::AoaSignature;
use std::hint::black_box;
use std::time::Instant;

/// Summed kernel times of stage-1 decode.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecodeSplit {
    /// Captures timed.
    pub frames: u64,
    /// `SchmidlCox::detect` on the reference chain.
    pub detect_ns: u64,
    /// `Receiver::decode` (which runs its own detection first).
    pub receiver_ns: u64,
    /// `Frame::decode` of the received payload.
    pub mac_ns: u64,
}

impl DecodeSplit {
    /// Time the decode kernels on one capture's reference chain.
    pub fn time(&mut self, capture: &CMat, modulation: Modulation) {
        let chain = capture.row(0);
        let rx = Receiver::new(modulation);
        let mut sc = SchmidlCox::new(sa_phy::preamble::SC_HALF_LEN);
        sc.threshold = rx.detect_threshold;

        let t = Instant::now();
        black_box(sc.detect(black_box(&chain)));
        self.detect_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let received = rx.decode(black_box(&chain));
        self.receiver_ns += t.elapsed().as_nanos() as u64;

        if let Ok(pkt) = received {
            let t = Instant::now();
            black_box(Frame::decode(black_box(&pkt.payload)).ok());
            self.mac_ns += t.elapsed().as_nanos() as u64;
        }
        self.frames += 1;
    }
}

/// Summed kernel times of the per-AP DSP pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct DspSplit {
    /// Packets timed.
    pub packets: u64,
    /// `Calibration::apply` on the staged window.
    pub calibrate_ns: u64,
    /// `sample_covariance_strided_into`.
    pub covariance_ns: u64,
    /// `AoaEngine::estimate_cov`.
    pub aoa_ns: u64,
    /// `AoaSignature::from_spectrum`.
    pub signature_ns: u64,
}

/// Per-AP state for [`DspSplit::time`]: an engine built for the AP's
/// array and estimator configuration, and a recycled covariance buffer.
pub struct DspKernels {
    engine: AoaEngine,
    cov: CMat,
}

impl DspKernels {
    /// Kernels for one AP.
    pub fn new(ap: &AccessPoint) -> Self {
        Self {
            engine: AoaEngine::new(&ap.config().array, &ap.config().aoa),
            cov: CMat::default(),
        }
    }
}

impl DspSplit {
    /// Time the DSP kernels for one capture at one AP. The staged
    /// window is built as `PacketBatch::push_predecoded` documents it:
    /// the decoded extent, clamped to the capture and decimated by a
    /// uniform stride to at most `snapshot_cap` snapshots.
    pub fn time(
        &mut self,
        ap: &AccessPoint,
        kernels: &mut DspKernels,
        capture: &CMat,
        decoded: &DecodedPacket,
        snapshot_cap: usize,
    ) {
        if decoded.start >= capture.cols() {
            return;
        }
        let start = decoded.start;
        let len = (start + decoded.pkt_len).min(capture.cols()) - start;
        let stride = if snapshot_cap > 0 && len > snapshot_cap {
            len.div_ceil(snapshot_cap)
        } else {
            1
        };
        let mut window = CMat::from_fn(capture.rows(), len.div_ceil(stride), |m, t| {
            capture[(m, start + t * stride)]
        });
        let n_snapshots = window.cols();

        let t = Instant::now();
        ap.calibration().apply(black_box(&mut window));
        self.calibrate_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        sample_covariance_strided_into(black_box(&window), 1, &mut kernels.cov);
        self.covariance_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let estimate = kernels
            .engine
            .estimate_cov(black_box(&kernels.cov), n_snapshots);
        self.aoa_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        black_box(AoaSignature::from_spectrum(black_box(&estimate.spectrum)));
        self.signature_ns += t.elapsed().as_nanos() as u64;

        self.packets += 1;
    }
}
