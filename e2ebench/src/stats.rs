//! Small measurement helpers: order statistics, output digests and the
//! process's peak resident set.

use std::fmt;
use std::time::Duration;

/// Median of a sample (mean of the two middle values for even sizes);
/// `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentile reported as `latency_tail_ms`.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Fewest latency samples a run takes, so that the tail percentile has
/// at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Value at percentile `p` (nearest rank); `0.0` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Throughput of consecutive, equal-count batches of completions:
/// `frames[i]` finished at `done_s[i]` seconds from the start. Each
/// batch's rate is its frames over the time since the previous batch
/// ended, so a stall inflates one batch, not the median of them.
pub fn batch_rates(frames: &[u64], done_s: &[f64], batches: usize) -> Vec<f64> {
    let n = frames.len().min(done_s.len());
    let batches = batches.clamp(1, n.max(1));
    let mut out = Vec::with_capacity(batches);
    let mut begin = 0;
    let mut since = 0.0;
    for b in 1..=batches {
        let end = n * b / batches;
        if end == begin {
            continue;
        }
        let done: u64 = frames[begin..end].iter().sum();
        let until = done_s[end - 1];
        out.push(ratio(done as f64, until - since));
        begin = end;
        since = until;
    }
    out
}

/// The extreme tail of a latency sample: the highest percentile that
/// still has at least ten samples beyond it, i.e. the eleventh-largest
/// value. Printed for reference next to the steadier
/// [`TAIL_PERCENTILE`].
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// Which percentile it is, in `[0, 100)`.
    pub percentile: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// [`Tail`] of a sample; `None` when it has 10 samples or fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    })
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over whatever is formatted into it. Digesting a value's
/// `Debug` rendering pins every field, floats to the last bit (Rust
/// prints the shortest round-tripping decimal), without allocating the
/// rendered string.
pub struct Digest(u64);

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Digest of one value's `Debug` rendering.
    pub fn of_debug(value: &impl fmt::Debug) -> u64 {
        let mut d = Digest::new();
        fmt::write(&mut d, format_args!("{value:?}")).expect("digest writes never fail");
        d.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The machine's CPU time stolen by the hypervisor for other guests,
/// measured between [`Steal::start`] and [`Steal::fraction`]. It is a
/// note for readers, to tell a noisy host from a slow build; it never
/// adjusts a measured value.
pub struct Steal(Option<(u64, u64)>);

impl Steal {
    /// Start measuring.
    pub fn start() -> Self {
        Steal(Self::ticks())
    }

    /// Stolen share of all CPU time since [`Steal::start`], where
    /// `/proc/stat` reports it.
    pub fn fraction(&self) -> Option<f64> {
        let ((steal0, total0), (steal1, total1)) = (self.0?, Self::ticks()?);
        Some(ratio((steal1 - steal0) as f64, (total1 - total0) as f64))
    }

    /// `(steal, total)` clock ticks from the aggregate `cpu` line.
    fn ticks() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some((*fields.get(7)?, fields.iter().sum()))
    }
}

/// Peak resident set size of this process so far, MiB (Linux
/// `VmHWM`); `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v[..1], 90.0), 1.0);
    }

    #[test]
    fn batch_rates_isolate_a_stall() {
        // Ten frames a second, except that the last frame stalls.
        let frames = vec![1u64; 40];
        let mut done: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.1).collect();
        done[39] += 10.0;
        let rates = batch_rates(&frames, &done, 4);
        assert_eq!(rates.len(), 4);
        assert!(
            rates[..3].iter().all(|r| (r - 10.0).abs() < 1e-9),
            "{rates:?}"
        );
        assert!(rates[3] < 1.0);
        assert!((median(&rates) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_tells_values_apart() {
        assert_eq!(
            Digest::of_debug(&(1.0f64, 2u8)),
            Digest::of_debug(&(1.0f64, 2u8))
        );
        assert_ne!(
            Digest::of_debug(&1.0f64),
            Digest::of_debug(&1.000_000_000_000_000_2f64)
        );
    }
}
