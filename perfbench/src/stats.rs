//! Order statistics, the tail-percentile rule and output digests.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank percentile `q` (0 < q <= 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match rank(sorted.len(), q) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q / 100.0 * n as f64).ceil() as usize;
    r.clamp(usize::from(n > 0), n)
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`] samples
/// beyond its nearest rank among `n` samples; the median when even that
/// has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A tail latency as the rule reports it: which percentile, its value, and
/// over how many samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

impl Tail {
    /// Applies the rule to `values` (any order).
    pub fn of(values: &[f64]) -> Tail {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let percentile = tail_percentile(sorted.len());
        Tail {
            percentile,
            value: self::percentile(&sorted, percentile),
            samples: sorted.len(),
        }
    }

    /// `p99 of 20000` style label.
    pub fn label(&self) -> String {
        format!("p{} of {}", self.percentile, self.samples)
    }
}

/// Nearest-rank percentile `q` of `values` in any order.
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Incremental 64-bit FNV-1a digest of output bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn add_f64(&mut self, x: f64) {
        self.add(&x.to_bits().to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(20_000), 99.0);
        // 999 samples leave only 9 beyond p99's rank 990.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        // Too few for any candidate: the median is reported.
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn tail_reports_value_and_sample_count() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let tail = Tail::of(&values);
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.samples, 1000);
        assert_eq!(tail.label(), "p99 of 1000");
        let few = Tail::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.percentile, few.value, few.samples), (50.0, 2.0, 3));
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(percentile_of(&[9.0, 1.0, 5.0], 50.0), 5.0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.add(b"ab");
        c.add(b"c");
        assert_eq!(a, c);
    }
}
