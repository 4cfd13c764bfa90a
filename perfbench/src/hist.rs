//! A log-linear histogram of `u64` samples with interpolated quantiles.
//!
//! Values below 128 get their own bucket; above that each power-of-two
//! range is split into 128 equal buckets (under 0.8% relative width).
//! Quantiles interpolate linearly inside the bucket that holds the target
//! rank, so a percentile moves continuously with the data instead of
//! snapping to bucket edges; the maximum is exact.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Fixed-size histogram; recording never allocates.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let sub = (i & (SUB - 1)) as u64;
    (((SUB as u64 + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, width) = bounds(i);
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return (lo + width * frac).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// Samples strictly above the `q`-quantile's rank (how many samples a
    /// tail percentile rests on).
    pub fn beyond(&self, q: f64) -> u64 {
        self.n - (q * self.n as f64).ceil().min(self.n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 129, 255, 256, 257, 1 << 20, 1 << 40] {
            let i = index(v);
            assert!(i >= last, "index not monotone at {v}");
            let (lo, width) = bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width + 1.0,
                "{v} outside bucket {i}"
            );
            last = i;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::default();
        for v in 0..100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.9999] {
            let want = q * 99_999.0;
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.quantile(1.0), 99_999.0);
        assert_eq!(h.beyond(0.9999), 10);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(10);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 5000);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
