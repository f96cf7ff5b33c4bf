//! Value-distribution histograms for selectivity estimation.
//!
//! Two classic variants over numeric columns:
//!
//! * **Equi-width** — fixed-width buckets over `[min, max]`. Cheap, but
//!   skewed data piles into few buckets and estimates degrade.
//! * **Equi-depth** — bucket boundaries at quantiles, so each bucket holds
//!   (approximately) the same row count. Robust under skew; the variant
//!   every production optimizer converged on.
//!
//! Both support equality and range selectivity with intra-bucket uniformity
//! (continuous-value assumption) — the estimation error *within* a bucket is
//! exactly what `tests/estimates.rs` bounds.

use evopt_common::Value;

/// A histogram over one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub enum Histogram {
    EquiWidth(EquiWidth),
    EquiDepth(EquiDepth),
}

impl Histogram {
    /// Build an equi-width histogram with `buckets` buckets.
    pub fn equi_width(values: &[f64], buckets: usize) -> Option<Histogram> {
        EquiWidth::build(values, buckets).map(Histogram::EquiWidth)
    }

    /// Build an equi-depth histogram with `buckets` buckets.
    pub fn equi_depth(values: &[f64], buckets: usize) -> Option<Histogram> {
        EquiDepth::build(values, buckets).map(Histogram::EquiDepth)
    }

    /// Estimated fraction of rows with `column = v` (of non-null rows).
    /// `ndv_hint` is the column's overall distinct count, used to spread a
    /// bucket's mass over the distinct values assumed inside it.
    pub fn selectivity_eq(&self, v: &Value, ndv_hint: u64) -> Option<f64> {
        let x = v.as_f64()?;
        Some(match self {
            Histogram::EquiWidth(h) => h.selectivity_eq(x, ndv_hint),
            Histogram::EquiDepth(h) => h.selectivity_eq(x, ndv_hint),
        })
    }

    /// Estimated fraction of rows with `lo <= column <= hi` (either bound
    /// optional; `None` = unbounded on that side). Bounds are inclusive —
    /// callers adjust for strict bounds via the equality selectivity.
    pub fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        match self {
            Histogram::EquiWidth(h) => h.selectivity_range(lo, hi),
            Histogram::EquiDepth(h) => h.selectivity_range(lo, hi),
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        match self {
            Histogram::EquiWidth(h) => h.counts.len(),
            Histogram::EquiDepth(h) => h.counts.len(),
        }
    }

    /// Total rows summarised.
    pub fn total(&self) -> u64 {
        match self {
            Histogram::EquiWidth(h) => h.total,
            Histogram::EquiDepth(h) => h.total,
        }
    }
}

/// Fixed-width buckets over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidth {
    pub min: f64,
    pub max: f64,
    pub counts: Vec<u64>,
    pub total: u64,
}

impl EquiWidth {
    pub fn build(values: &[f64], buckets: usize) -> Option<EquiWidth> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !min.is_finite() || !max.is_finite() {
            return None;
        }
        let mut counts = vec![0u64; buckets];
        let width = (max - min) / buckets as f64;
        for &v in values {
            let idx = if width == 0.0 {
                0
            } else {
                (((v - min) / width) as usize).min(buckets - 1)
            };
            counts[idx] += 1;
        }
        Some(EquiWidth {
            min,
            max,
            counts,
            total: values.len() as u64,
        })
    }

    fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.max - self.min) / self.counts.len() as f64;
        (
            self.min + width * i as f64,
            self.min + width * (i + 1) as f64,
        )
    }

    fn selectivity_eq(&self, x: f64, ndv_hint: u64) -> f64 {
        if x < self.min || x > self.max || self.total == 0 {
            return 0.0;
        }
        let buckets = self.counts.len();
        let width = (self.max - self.min) / buckets as f64;
        let idx = if width == 0.0 {
            0
        } else {
            (((x - self.min) / width) as usize).min(buckets - 1)
        };
        let bucket_frac = self.counts[idx] as f64 / self.total as f64;
        // Assume distinct values spread evenly across buckets.
        let ndv_per_bucket = (ndv_hint as f64 / buckets as f64).max(1.0);
        (bucket_frac / ndv_per_bucket).min(1.0)
    }

    fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let lo = lo.unwrap_or(f64::NEG_INFINITY);
        let hi = hi.unwrap_or(f64::INFINITY);
        if lo > hi {
            return 0.0;
        }
        let mut rows = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let (blo, bhi) = self.bucket_bounds(i);
            rows += c as f64 * overlap_fraction(blo, bhi, lo, hi);
        }
        (rows / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Quantile-boundary buckets: each holds ~`total/buckets` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepth {
    /// `boundaries.len() == counts.len() + 1`; bucket `i` covers
    /// `[boundaries[i], boundaries[i+1]]` (last bucket inclusive on both
    /// ends).
    pub boundaries: Vec<f64>,
    pub counts: Vec<u64>,
    /// Distinct values observed in each bucket (for equality estimates).
    pub distincts: Vec<u64>,
    pub total: u64,
}

impl EquiDepth {
    pub fn build(values: &[f64], buckets: usize) -> Option<EquiDepth> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let buckets = buckets.min(n);
        // Boundary indices at quantiles; merge duplicate boundaries so a
        // heavy value doesn't create empty buckets.
        let mut boundaries = Vec::with_capacity(buckets + 1);
        let mut highest = sorted[0];
        boundaries.push(highest);
        for b in 1..buckets {
            let idx = (b * n / buckets).min(n - 1);
            let v = sorted[idx];
            if v > highest {
                boundaries.push(v);
                highest = v;
            }
        }
        let last = sorted[n - 1];
        if last > highest {
            boundaries.push(last);
        } else if boundaries.len() == 1 {
            // All values identical: one degenerate bucket.
            boundaries.push(last);
        }
        let nb = boundaries.len() - 1;
        let mut counts = vec![0u64; nb];
        let mut distinct_sets: Vec<Option<f64>> = vec![None; nb];
        let mut distincts = vec![0u64; nb];
        for &v in &sorted {
            let i = Self::bucket_of(&boundaries, v);
            counts[i] += 1;
            if distinct_sets[i] != Some(v) {
                distinct_sets[i] = Some(v);
                distincts[i] += 1;
            }
        }
        Some(EquiDepth {
            boundaries,
            counts,
            distincts,
            total: n as u64,
        })
    }

    fn bucket_of(boundaries: &[f64], v: f64) -> usize {
        // partition_point over bucket upper bounds; last bucket catches max.
        let nb = boundaries.len() - 1;
        for i in 0..nb {
            if v < boundaries[i + 1] {
                return i;
            }
        }
        nb - 1
    }

    fn selectivity_eq(&self, x: f64, _ndv_hint: u64) -> f64 {
        let (first, last) = match (self.boundaries.first(), self.boundaries.last()) {
            (Some(&first), Some(&last)) => (first, last),
            _ => return 0.0,
        };
        if x < first || x > last || self.total == 0 {
            return 0.0;
        }
        let i = Self::bucket_of(&self.boundaries, x);
        let bucket_frac = self.counts[i] as f64 / self.total as f64;
        (bucket_frac / self.distincts[i].max(1) as f64).min(1.0)
    }

    fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let lo = lo.unwrap_or(f64::NEG_INFINITY);
        let hi = hi.unwrap_or(f64::INFINITY);
        if lo > hi {
            return 0.0;
        }
        let mut rows = 0.0;
        for i in 0..self.counts.len() {
            let (blo, bhi) = (self.boundaries[i], self.boundaries[i + 1]);
            rows += self.counts[i] as f64 * overlap_fraction(blo, bhi, lo, hi);
        }
        (rows / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Fraction of bucket `[blo, bhi]` covered by query range `[lo, hi]`,
/// assuming uniform distribution inside the bucket. Degenerate buckets
/// (single point) count fully iff the point is inside the range.
fn overlap_fraction(blo: f64, bhi: f64, lo: f64, hi: f64) -> f64 {
    if bhi <= blo {
        return if blo >= lo && blo <= hi { 1.0 } else { 0.0 };
    }
    let s = lo.max(blo);
    let e = hi.min(bhi);
    if e <= s {
        // Allow a closed-interval touch at the bucket edge to count as a
        // sliver rather than zero (keeps point-ranges inside a bucket > 0).
        if e == s && s >= blo && s <= bhi {
            return 0.0;
        }
        return 0.0;
    }
    (e - s) / (bhi - blo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn equi_width_uniform_range_estimates() {
        let h = Histogram::equi_width(&uniform(1000), 10).unwrap();
        // Half the domain → about half the rows.
        let s = h.selectivity_range(Some(0.0), Some(499.0));
        assert!((s - 0.5).abs() < 0.05, "got {s}");
        // Out-of-domain range → zero.
        assert_eq!(h.selectivity_range(Some(2000.0), Some(3000.0)), 0.0);
        // Full range → 1.
        assert!((h.selectivity_range(None, None) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equi_depth_uniform_range_estimates() {
        let h = Histogram::equi_depth(&uniform(1000), 10).unwrap();
        let s = h.selectivity_range(Some(250.0), Some(749.0));
        assert!((s - 0.5).abs() < 0.05, "got {s}");
        assert_eq!(h.bucket_count(), 10);
        assert_eq!(h.total(), 1000);
    }

    #[test]
    fn equality_estimates_near_true_frequency() {
        let vals = uniform(1000);
        for h in [
            Histogram::equi_width(&vals, 10).unwrap(),
            Histogram::equi_depth(&vals, 10).unwrap(),
        ] {
            let s = h.selectivity_eq(&Value::Int(500), 1000).unwrap();
            let truth = 1.0 / 1000.0;
            assert!(
                s > truth / 5.0 && s < truth * 5.0,
                "estimate {s} vs truth {truth}"
            );
            assert_eq!(h.selectivity_eq(&Value::Int(5000), 1000).unwrap(), 0.0);
        }
    }

    #[test]
    fn equi_depth_handles_heavy_skew_better_than_equi_width() {
        // 90% of rows are the value 0; the rest uniform on [1, 1000].
        let mut vals: Vec<f64> = vec![0.0; 9000];
        vals.extend((0..1000).map(|i| 1.0 + i as f64));
        let ndv = 1001u64;
        let truth_eq0 = 0.9;
        let ew = Histogram::equi_width(&vals, 10).unwrap();
        let ed = Histogram::equi_depth(&vals, 10).unwrap();
        let e_ew = ew.selectivity_eq(&Value::Int(0), ndv).unwrap();
        let e_ed = ed.selectivity_eq(&Value::Int(0), ndv).unwrap();
        let err = |e: f64| (e / truth_eq0).max(truth_eq0 / e.max(1e-12));
        assert!(
            err(e_ed) < err(e_ew),
            "equi-depth q-err {} should beat equi-width {}",
            err(e_ed),
            err(e_ew)
        );
        // Equi-depth puts the heavy hitter in its own narrow bucket(s).
        assert!(err(e_ed) < 2.0, "equi-depth q-error {}", err(e_ed));
    }

    #[test]
    fn all_identical_values() {
        let vals = vec![7.0; 100];
        for h in [
            Histogram::equi_width(&vals, 8).unwrap(),
            Histogram::equi_depth(&vals, 8).unwrap(),
        ] {
            let s = h.selectivity_eq(&Value::Int(7), 1).unwrap();
            assert!(s > 0.5, "heavy single value should estimate high, got {s}");
            assert_eq!(h.selectivity_eq(&Value::Int(8), 1).unwrap(), 0.0);
        }
    }

    #[test]
    fn empty_or_zero_buckets_return_none() {
        assert!(Histogram::equi_width(&[], 10).is_none());
        assert!(Histogram::equi_depth(&[], 10).is_none());
        assert!(Histogram::equi_width(&[1.0], 0).is_none());
        assert!(Histogram::equi_depth(&[1.0], 0).is_none());
    }

    #[test]
    fn non_numeric_eq_returns_none() {
        let h = Histogram::equi_width(&uniform(10), 2).unwrap();
        assert!(h.selectivity_eq(&Value::Str("x".into()), 10).is_none());
    }

    #[test]
    fn inverted_range_is_zero() {
        let h = Histogram::equi_depth(&uniform(100), 4).unwrap();
        assert_eq!(h.selectivity_range(Some(80.0), Some(20.0)), 0.0);
    }

    proptest! {
        /// Selectivities are always within [0, 1], and a superset range never
        /// has smaller selectivity (monotonicity).
        #[test]
        fn prop_range_monotone(
            values in prop::collection::vec(-1e6f64..1e6, 1..500),
            a in -1e6f64..1e6, b in -1e6f64..1e6,
            widen in 0.0f64..1e5,
            buckets in 1usize..64,
            depth in any::<bool>()) {
            let h = if depth {
                Histogram::equi_depth(&values, buckets).unwrap()
            } else {
                Histogram::equi_width(&values, buckets).unwrap()
            };
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let narrow = h.selectivity_range(Some(lo), Some(hi));
            let wide = h.selectivity_range(Some(lo - widen), Some(hi + widen));
            prop_assert!((0.0..=1.0).contains(&narrow));
            prop_assert!((0.0..=1.0).contains(&wide));
            prop_assert!(wide >= narrow - 1e-9, "wide {wide} < narrow {narrow}");
        }

        /// The full-range estimate over an equi-depth histogram recovers
        /// (close to) all rows.
        #[test]
        fn prop_full_range_is_total(
            values in prop::collection::vec(-1e3f64..1e3, 1..300),
            buckets in 1usize..32) {
            let h = Histogram::equi_depth(&values, buckets).unwrap();
            let s = h.selectivity_range(None, None);
            prop_assert!(s > 0.9, "full range estimated {s}");
        }
    }
}
