//! Order statistics for the harness: medians, quartiles the way the
//! driver computes them, the "ten samples beyond" percentile rule, and a
//! fixed-size latency histogram with interpolated quantiles.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let [q1, median, q3] = quartiles(values);
        Some(Summary {
            median,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// Inter-quartile distance as a share of the median: the spread the
    /// driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    v
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `[q1, q2, q3]` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them, so a spread computed here
/// is the spread the driver will compute. One sample yields itself thrice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    assert!(m > 0, "quartiles of no samples");
    if m == 1 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it among `n` samples, or `None` below twenty samples
/// (where not even the median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

/// Whether `p` (0..1) has at least ten samples beyond it among `n`.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// One-nanosecond bins below this bound, 32 sub-buckets per octave above.
const LINEAR_NS: u64 = 2048;
const SUB_BITS: u32 = 5;
const MAX_EXP: u32 = 40;
/// Bucket count of a [`LatHist`]; `kv.c` lays its histogram out the same.
pub const LAT_BUCKETS: usize = LINEAR_NS as usize + ((MAX_EXP - 11 + 1) as usize) * 32;

/// Latency histogram of sampled single calls: exact to the nanosecond up
/// to 2 µs, 3 % wide buckets beyond. Quantiles interpolate by rank inside
/// the bucket that holds them, so they are not pinned to bucket edges.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist {
            counts: vec![0; LAT_BUCKETS],
            total: 0,
        }
    }
}

impl std::fmt::Debug for LatHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatHist(n={})", self.total)
    }
}

/// Bucket index of a duration of `ns` nanoseconds.
#[inline]
pub fn lat_bucket(ns: u64) -> usize {
    if ns < LINEAR_NS {
        return ns as usize;
    }
    let p = (63 - ns.leading_zeros()).min(MAX_EXP);
    let sub = ((ns >> (p - SUB_BITS)) & 31) as usize;
    let sub = if ns >> p > 1 { 31 } else { sub };
    LINEAR_NS as usize + (p as usize - 11) * 32 + sub
}

/// `[lo, hi)` nanosecond range of bucket `idx`.
pub fn lat_bucket_range(idx: usize) -> (f64, f64) {
    if idx < LINEAR_NS as usize {
        return (idx as f64, idx as f64 + 1.0);
    }
    let k = idx - LINEAR_NS as usize;
    let p = 11 + (k / 32) as u32;
    let sub = (k % 32) as u64;
    let width = 1u64 << (p - SUB_BITS);
    let lo = (32 + sub) * width;
    (lo as f64, (lo + width) as f64)
}

impl LatHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[lat_bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0..1) in nanoseconds; 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let (lo, hi) = lat_bucket_range(idx);
                let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        lat_bucket_range(LAT_BUCKETS - 1).1
    }

    /// Non-empty buckets as `idx:count` words (the child report format).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&format!("{idx}:{c}"));
            }
        }
        out
    }

    /// Adds `idx:count` words as written by [`LatHist::encode`] or `kv.c`.
    pub fn decode_into(&mut self, words: &str) -> Result<(), String> {
        for w in words.split_whitespace() {
            let (i, c) = w
                .split_once(':')
                .ok_or_else(|| format!("bad hist word {w:?}"))?;
            let i: usize = i.parse().map_err(|_| format!("bad hist index {w:?}"))?;
            let c: u64 = c.parse().map_err(|_| format!("bad hist count {w:?}"))?;
            if i >= LAT_BUCKETS {
                return Err(format!("hist index {i} out of range"));
            }
            self.counts[i] += c;
            self.total += c;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        let mut last = 0;
        for ns in (0..5000u64).chain((13..45).map(|p| 1u64 << p)) {
            let b = lat_bucket(ns);
            assert!(b >= last, "bucket order at {ns}");
            assert!(b < LAT_BUCKETS);
            last = b;
            if ns < (1 << 41) {
                let (lo, hi) = lat_bucket_range(b);
                assert!(lo <= ns as f64 && (ns as f64) < hi, "{ns} in [{lo},{hi})");
            }
        }
        for idx in 0..LAT_BUCKETS - 1 {
            assert_eq!(lat_bucket_range(idx).1, lat_bucket_range(idx + 1).0);
        }
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        let mut h = LatHist::default();
        for _ in 0..100 {
            h.record(40);
        }
        // All mass in [40, 41): quantiles move through the bin by rank.
        assert!((h.quantile(0.5) - 40.5).abs() < 1e-9);
        assert!((h.quantile(0.99) - 40.99).abs() < 1e-9);
        for _ in 0..100 {
            h.record(5000);
        }
        assert!(h.quantile(0.25) < 41.0);
        let p99 = h.quantile(0.99);
        let (lo, hi) = lat_bucket_range(lat_bucket(5000));
        assert!(p99 >= lo && p99 <= hi);
    }

    #[test]
    fn encode_decode_round_trips_and_merges() {
        let mut h = LatHist::default();
        for ns in [3, 3, 77, 2047, 2048, 900_000, 1 << 39] {
            h.record(ns);
        }
        let mut g = LatHist::default();
        g.decode_into(&h.encode()).unwrap();
        assert_eq!(g.count(), 7);
        assert_eq!(g.encode(), h.encode());
        g.merge(&h);
        assert_eq!(g.count(), 14);
        assert!(g.decode_into("99999999:1").is_err());
        assert!(g.decode_into("7").is_err());
    }
}
