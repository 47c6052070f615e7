//! # sa-sigproc — baseband signal processing for SecureAngle
//!
//! The receive-side DSP between raw IQ samples and the AoA estimators:
//!
//! * [`iq`] — power/dB conversions, phase and CFO application, fractional
//!   delay;
//! * [`noise`] — circularly-symmetric complex AWGN with caller-supplied
//!   RNGs (reproducible experiments);
//! * [`covariance`] — per-packet sample covariance plus the
//!   forward–backward and spatial-smoothing decorrelation transforms that
//!   make subspace AoA work on coherent multipath;
//! * [`schmidl_cox`] — OFDM packet detection and CFO estimation exactly as
//!   the paper's prototype runs it over buffered WARP samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod covariance;
pub mod iq;
pub mod noise;
pub mod schmidl_cox;

pub use covariance::{forward_backward, sample_covariance, smooth_fb, spatial_smooth};
pub use schmidl_cox::{Detection, SchmidlCox};
