//! Small deterministic helpers shared by the workloads: a seeded PRNG, a
//! zipf sampler, an input digest, quantiles and the process's peak RSS.

/// splitmix64: a tiny seeded PRNG, so every input is a pure function of
/// the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

/// Zipf(s) over ranks `0..n`, sampled by binary search over the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|p| *p <= u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over everything fed to it: the digest of a generated input
/// stream.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Microseconds in `d`.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(64, 1.1);
        let mut rng = Rng::new(7, 0);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 4 * counts[31], "rank 0 must be hot: {:?}", &counts[..4]);
    }

    #[test]
    fn rng_streams_differ() {
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(2, 0).next_u64());
        assert_eq!(Rng::new(3, 5).next_u64(), Rng::new(3, 5).next_u64());
    }
}
