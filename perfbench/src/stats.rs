//! Small numeric helpers: quantiles, log-log fits, digests, seeds.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the "R-7" definition); 0 when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The exponent `k` in `time ~ n^k`: the least-squares slope of
/// `ln(time)` against `ln(n)`. Returns 0 when the sizes do not vary.
pub fn scale_exponent(samples: &[(usize, f64)]) -> f64 {
    let points: Vec<(f64, f64)> = samples
        .iter()
        .filter(|&&(n, t)| n > 0 && t > 0.0)
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    let count = points.len().max(1) as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / count;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / count;
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    if sxx > 1e-12 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Indices of the requests in the largest (or smallest) tenth by buffer
/// count: every request at or beyond the 90th (10th) percentile of `n`.
pub fn size_decile(sizes: &[usize], largest: bool) -> Vec<usize> {
    let as_f: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let cut = quantile(&as_f, if largest { 0.9 } else { 0.1 });
    (0..sizes.len())
        .filter(|&i| {
            let n = sizes[i] as f64;
            if largest {
                n >= cut
            } else {
                n <= cut
            }
        })
        .collect()
}

/// FNV-1a over a stream of `u64` words: the outcome digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one request's `(index, status, steps)` into the digest.
    pub fn record(&mut self, index: usize, status: &str, steps: u64) {
        let mut word = |w: u64| {
            for byte in w.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        };
        word(index as u64);
        for byte in status.bytes() {
            word(u64::from(byte));
        }
        word(steps);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A sub-seed for `(seed, stream, index)`. Distinct streams (timed,
/// warm-up, per client) never share a sub-seed sequence.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)) ^ index)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns freed heap memory to the operating system (glibc's
/// `malloc_trim`; a no-op elsewhere). Called before every set-up, so
/// the peak resident set follows one pass's live data, not the freed
/// but still resident memory of earlier passes and their servers.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases
        // free pages of the allocator's own heaps.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn quadratic_times_fit_exponent_two() {
        let samples: Vec<(usize, f64)> = [1000usize, 2000, 4000, 8000]
            .iter()
            .map(|&n| (n, (n as f64).powi(2) * 1e-9))
            .collect();
        assert!((scale_exponent(&samples) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn digest_depends_on_every_field() {
        let mut a = Digest::default();
        a.record(0, "solved", 10);
        let mut b = Digest::default();
        b.record(0, "solved", 11);
        assert_ne!(a.hex(), b.hex());
    }
}
