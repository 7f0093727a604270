//! The bucketed [`Histogram`] behind every distributional counter: the
//! per-run rollback-latency, lock-wait and undo-depth fields of
//! [`crate::RunStats`], the cross-trial folds of [`crate::TrialSummary`],
//! and the exploration undo-depth histogram [`crate::ExploreObserver`]
//! renders in Prometheus text format.

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `b` holds values whose bit length is `b` (bucket 0 holds only the
/// value 0), so recording is O(1) and the memory footprint is fixed at 65
/// counters regardless of sample count. Percentiles are therefore
/// approximate: [`Histogram::percentile`] returns the *upper bound* of the
/// bucket containing the requested quantile, an over-estimate by at most 2×.
/// The bucket vector is allocated lazily on the first sample, so an empty
/// histogram is pointer-sized and cloning one (as every machine snapshot
/// does for the run's cold [`crate::RunStats`] counters) allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of power-of-two buckets (bit lengths 0..=64).
const BUCKETS: usize = 65;

/// Bucket index of a value: its bit length.
fn bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram. Allocation-free: buckets materialize on the
    /// first [`Histogram::record`].
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the quantile sample, clamped to the observed
    /// maximum. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based (nearest-rank definition).
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_hi(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                (lo, bucket_hi(b), c)
            })
    }

    /// A compact `p50/p90/max` rendering for reports.
    pub fn summary(&self) -> String {
        match (self.percentile(0.5), self.percentile(0.9), self.max()) {
            (Some(p50), Some(p90), Some(max)) => {
                format!("p50≤{p50} p90≤{p90} max={max} (n={})", self.total)
            }
            _ => "no samples".to_string(),
        }
    }

    /// Approximate heap bytes held (the lazily-allocated bucket vector).
    pub fn approx_bytes(&self) -> u64 {
        self.counts.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.summary(), "no samples");
    }

    #[test]
    fn empty_histogram_clones_without_buckets() {
        // Snapshot capture clones the run's cold counters; when nothing
        // rolled back the histograms are empty and the clone must not
        // allocate buckets.
        let h = Histogram::new();
        assert_eq!(h.approx_bytes(), 0);
        assert_eq!(h.clone().approx_bytes(), 0);

        // Merging an empty histogram into a lazy one stays lazy.
        let mut lazy = Histogram::new();
        lazy.merge(&h);
        assert_eq!(lazy.approx_bytes(), 0);
        assert_eq!(lazy, h);

        // And recording still works after a lazy merge.
        let mut recorded = Histogram::new();
        recorded.record(7);
        let mut merged = Histogram::new();
        merged.merge(&recorded);
        assert_eq!(merged, recorded);
        assert_ne!(merged, h);
    }

    #[test]
    fn records_and_bounds() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 1106);
        // p100 is clamped to the observed max, not the bucket bound.
        assert_eq!(h.percentile(1.0), Some(1000));
        // p50 lands in the bucket of 2..=3.
        assert_eq!(h.percentile(0.5), Some(3));
    }

    #[test]
    fn percentile_is_upper_bound_of_quantile_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(5); // bucket 3: 4..=7
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(0.5), Some(7));
        assert_eq!(h.percentile(0.99), Some(7));
        assert_eq!(h.percentile(1.0), Some(1_000_000));
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        a.record(4);
        let mut b = Histogram::new();
        b.record(1024);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(1024));
        assert_eq!(a.buckets().count(), 3);
    }
}
