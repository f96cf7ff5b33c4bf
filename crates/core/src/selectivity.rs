//! Selectivity estimation.
//!
//! Given a predicate and per-column statistics, estimate the fraction of
//! rows it keeps. The estimation ladder, best information first:
//!
//! 1. **MCV list** — exact frequency for tracked heavy hitters.
//! 2. **Histogram** — bucket mass (equi-width or equi-depth).
//! 3. **Uniformity** — `1/NDV` for equality, min–max interpolation for
//!    ranges.
//! 4. **Magic constants** — the 1977 defaults (`1/10` equality, `1/3`
//!    range) when no statistics exist.
//!
//! Conjuncts combine under the independence assumption (`s₁·s₂`), the known
//! weakness whose cost `tests/estimates.rs` checks: errors compound
//! multiplicatively up a join tree.

use evopt_catalog::ColumnStats;
use evopt_common::{BinOp, Expr, UnOp, Value};

/// Default equality selectivity with no statistics (System R's 1/10).
pub const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default range selectivity with no statistics (System R's 1/3).
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default LIKE-prefix selectivity.
pub const DEFAULT_PREFIX_SEL: f64 = 0.05;
/// Default LIKE-substring selectivity.
pub const DEFAULT_CONTAINS_SEL: f64 = 0.25;

/// What the estimator knows about one column of the (global) ordinal space.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnInfo<'a> {
    /// ANALYZE output for this column, when available, borrowed from the
    /// catalog version the statement pinned.
    pub stats: Option<&'a ColumnStats>,
    /// Row count of the relation this column belongs to.
    pub table_rows: u64,
}

/// Column-ordinal-indexed statistics for selectivity estimation.
#[derive(Debug, Clone, Default)]
pub struct EstimationContext<'a> {
    pub columns: Vec<ColumnInfo<'a>>,
}

impl<'a> EstimationContext<'a> {
    pub fn new(columns: Vec<ColumnInfo<'a>>) -> Self {
        EstimationContext { columns }
    }

    /// A context with no information at all (`n` columns): every estimate
    /// falls back to the magic constants.
    pub fn unknown(n: usize) -> Self {
        EstimationContext {
            columns: vec![ColumnInfo::default(); n],
        }
    }

    fn info(&self, col: usize) -> Option<&ColumnInfo<'a>> {
        self.columns.get(col)
    }

    fn stats(&self, col: usize) -> Option<&'a ColumnStats> {
        self.info(col).and_then(|i| i.stats)
    }

    /// Estimate the fraction of rows satisfying `predicate`. Always in
    /// `[0, 1]`.
    pub fn selectivity(&self, predicate: &Expr) -> f64 {
        self.sel(predicate).clamp(0.0, 1.0)
    }

    fn sel(&self, e: &Expr) -> f64 {
        // A predicate reading no columns is a constant: evaluate it rather
        // than guessing (keeps unfolded tautologies like `1+1=2` from
        // distorting cardinalities).
        if !matches!(e, Expr::Literal(_)) && e.is_constant() {
            if let Ok(v) = e.eval(&evopt_common::Tuple::new(vec![])) {
                return match v {
                    Value::Bool(true) => 1.0,
                    Value::Bool(false) | Value::Null => 0.0,
                    _ => 1.0,
                };
            }
        }
        self.sel_inner(e)
    }

    fn sel_inner(&self, e: &Expr) -> f64 {
        match e {
            Expr::Literal(Value::Bool(true)) => 1.0,
            Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => 0.0,
            Expr::Literal(_) => 1.0,
            // A bare boolean column: assume half.
            Expr::Column(_) => 0.5,
            Expr::Binary { op, left, right } => match op {
                BinOp::And => self.sel(left) * self.sel(right),
                BinOp::Or => {
                    let (a, b) = (self.sel(left), self.sel(right));
                    a + b - a * b
                }
                op if op.is_comparison() => self.sel_comparison(*op, left, right),
                // Arithmetic at predicate position shouldn't happen.
                _ => DEFAULT_RANGE_SEL,
            },
            Expr::Unary { op, input } => match op {
                UnOp::Not => 1.0 - self.sel(input),
                UnOp::IsNull => match self.column_of(input) {
                    Some(c) => self.null_fraction(c),
                    None => DEFAULT_EQ_SEL,
                },
                UnOp::IsNotNull => match self.column_of(input) {
                    Some(c) => 1.0 - self.null_fraction(c),
                    None => 1.0 - DEFAULT_EQ_SEL,
                },
                UnOp::Neg => DEFAULT_RANGE_SEL,
            },
            Expr::Like {
                input: _,
                pattern,
                negated,
            } => {
                let s = if pattern.starts_with('%') || pattern.starts_with('_') {
                    DEFAULT_CONTAINS_SEL
                } else if pattern.contains('%') || pattern.contains('_') {
                    DEFAULT_PREFIX_SEL
                } else {
                    // No wildcards: effectively equality.
                    DEFAULT_EQ_SEL
                };
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::InList {
                input,
                list,
                negated,
            } => {
                let s: f64 = match self.column_of(input) {
                    Some(c) => list.iter().map(|v| self.eq_selectivity(c, v)).sum(),
                    None => DEFAULT_EQ_SEL * list.len() as f64,
                };
                let s = s.min(1.0);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::Between {
                input,
                low,
                high,
                negated,
            } => {
                let s = match (self.column_of(input), constant_of(low), constant_of(high)) {
                    (Some(c), Some(lo), Some(hi)) => {
                        self.range_selectivity(c, lo.as_f64(), hi.as_f64())
                    }
                    _ => DEFAULT_RANGE_SEL,
                };
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
        }
    }

    fn sel_comparison(&self, op: BinOp, left: &Expr, right: &Expr) -> f64 {
        // Normalise to `col OP rhs`.
        let (col, op, rhs) = match (self.column_of(left), self.column_of(right)) {
            (Some(c), _) => (Some(c), op, right),
            (None, Some(c)) => (Some(c), op.flip(), left),
            (None, None) => (None, op, right),
        };
        let Some(col) = col else {
            return if op == BinOp::Eq {
                DEFAULT_EQ_SEL
            } else {
                DEFAULT_RANGE_SEL
            };
        };
        // Column-column: join selectivity.
        if let Some(col2) = self.column_of(rhs) {
            return match op {
                BinOp::Eq => self.join_eq_selectivity(col, col2),
                BinOp::NotEq => 1.0 - self.join_eq_selectivity(col, col2),
                _ => DEFAULT_RANGE_SEL,
            };
        }
        let Some(v) = constant_of(rhs) else {
            return if op == BinOp::Eq {
                DEFAULT_EQ_SEL
            } else {
                DEFAULT_RANGE_SEL
            };
        };
        match op {
            BinOp::Eq => self.eq_selectivity(col, v),
            BinOp::NotEq => 1.0 - self.eq_selectivity(col, v),
            BinOp::Lt | BinOp::LtEq => self.range_selectivity(col, None, v.as_f64()),
            BinOp::Gt | BinOp::GtEq => self.range_selectivity(col, v.as_f64(), None),
            _ => DEFAULT_RANGE_SEL,
        }
    }

    /// `col = v` selectivity via the estimation ladder.
    pub fn eq_selectivity(&self, col: usize, v: &Value) -> f64 {
        let Some(stats) = self.stats(col) else {
            return DEFAULT_EQ_SEL;
        };
        if v.is_null() {
            return 0.0; // = NULL never matches
        }
        if let Some(frac) = stats.mcv_fraction(v) {
            return frac;
        }
        if let Some(h) = &stats.histogram {
            if let Some(s) = h.selectivity_eq(v, stats.ndv.max(1)) {
                // The MCV list already covers its mass; spread the histogram
                // estimate over the remainder (cheap correction: cap).
                return s.min(1.0 - stats.mcv_total_fraction()).max(0.0);
            }
        }
        // Out-of-bounds constants match nothing.
        if let (Some(min), Some(max)) = (&stats.min, &stats.max) {
            if v < min || v > max {
                return 0.0;
            }
        }
        if stats.ndv > 0 {
            let rows = self.info(col).map_or(0, |i| i.table_rows);
            let non_null = 1.0 - stats.null_fraction(rows);
            (non_null / stats.ndv as f64).min(1.0)
        } else {
            DEFAULT_EQ_SEL
        }
    }

    /// `lo <= col <= hi` selectivity (either bound optional).
    pub fn range_selectivity(&self, col: usize, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let Some(stats) = self.stats(col) else {
            return DEFAULT_RANGE_SEL;
        };
        if let Some(h) = &stats.histogram {
            return h.selectivity_range(lo, hi);
        }
        // Min–max interpolation (uniformity over the domain).
        let (min, max) = match (
            stats.min.as_ref().and_then(|v| v.as_f64()),
            stats.max.as_ref().and_then(|v| v.as_f64()),
        ) {
            (Some(a), Some(b)) if b > a => (a, b),
            (Some(a), Some(b)) if a == b => {
                let inside = lo.is_none_or(|l| l <= a) && hi.is_none_or(|h| h >= b);
                return if inside { 1.0 } else { 0.0 };
            }
            _ => return DEFAULT_RANGE_SEL,
        };
        let lo = lo.unwrap_or(min).max(min);
        let hi = hi.unwrap_or(max).min(max);
        if hi < lo {
            return 0.0;
        }
        ((hi - lo) / (max - min)).clamp(0.0, 1.0)
    }

    /// `a = b` across relations: `1 / max(NDV(a), NDV(b))` (the Selinger
    /// containment assumption).
    pub fn join_eq_selectivity(&self, a: usize, b: usize) -> f64 {
        let ndv_a = self.stats(a).map(|s| s.ndv).unwrap_or(0);
        let ndv_b = self.stats(b).map(|s| s.ndv).unwrap_or(0);
        match ndv_a.max(ndv_b) {
            0 => DEFAULT_EQ_SEL,
            m => 1.0 / m as f64,
        }
    }

    fn null_fraction(&self, col: usize) -> f64 {
        match (self.stats(col), self.info(col)) {
            (Some(s), Some(i)) => s.null_fraction(i.table_rows),
            _ => DEFAULT_EQ_SEL,
        }
    }

    fn column_of(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Column(i) => Some(*i),
            _ => None,
        }
    }
}

fn constant_of(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_catalog::Histogram;
    use evopt_common::expr::{col, lit};
    use std::sync::OnceLock;

    /// 1000-row table, col0 = uniform ints 0..100 (ndv 100), col1 = strings.
    fn ctx() -> EstimationContext<'static> {
        static STATS: OnceLock<[ColumnStats; 2]> = OnceLock::new();
        let stats = STATS.get_or_init(|| {
            let vals: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
            [
                ColumnStats {
                    null_count: 0,
                    ndv: 100,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(99)),
                    mcvs: vec![],
                    histogram: Histogram::equi_depth(&vals, 16),
                },
                ColumnStats {
                    null_count: 100,
                    ndv: 50,
                    min: Some(Value::Str("a".into())),
                    max: Some(Value::Str("z".into())),
                    mcvs: vec![(Value::Str("hot".into()), 0.3)],
                    histogram: None,
                },
            ]
        });
        let column = |stats| ColumnInfo {
            stats: Some(stats),
            table_rows: 1000,
        };
        EstimationContext::new(stats.iter().map(column).collect())
    }

    #[test]
    fn equality_via_histogram_near_truth() {
        let s = ctx().selectivity(&Expr::eq(col(0), lit(42i64)));
        assert!((s - 0.01).abs() < 0.01, "got {s}, want ~0.01");
    }

    #[test]
    fn equality_via_mcv_exact() {
        let s = ctx().selectivity(&Expr::eq(col(1), lit("hot")));
        assert!((s - 0.3).abs() < 1e-9);
    }

    #[test]
    fn equality_fallback_ndv() {
        // String column, not an MCV: (1 - nullfrac)/ndv = 0.9/50.
        let s = ctx().selectivity(&Expr::eq(col(1), lit("cold")));
        assert!((s - 0.018).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn out_of_domain_equality_is_zero() {
        let s = ctx().selectivity(&Expr::eq(col(0), lit(500i64)));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn range_via_histogram() {
        let e = Expr::binary(BinOp::Lt, col(0), lit(50i64));
        let s = ctx().selectivity(&e);
        assert!((s - 0.5).abs() < 0.08, "got {s}");
        // Flipped spelling gives the same estimate.
        let e2 = Expr::binary(BinOp::Gt, lit(50i64), col(0));
        assert!((ctx().selectivity(&e2) - s).abs() < 1e-9);
    }

    #[test]
    fn between_and_negation() {
        let e = Expr::Between {
            input: Box::new(col(0)),
            low: Box::new(lit(25i64)),
            high: Box::new(lit(74i64)),
            negated: false,
        };
        let s = ctx().selectivity(&e);
        assert!((s - 0.5).abs() < 0.08, "got {s}");
        let neg = Expr::Between {
            input: Box::new(col(0)),
            low: Box::new(lit(25i64)),
            high: Box::new(lit(74i64)),
            negated: true,
        };
        assert!((ctx().selectivity(&neg) - (1.0 - s)).abs() < 1e-9);
    }

    #[test]
    fn and_or_independence() {
        let c = ctx();
        let a = Expr::eq(col(0), lit(1i64));
        let b = Expr::eq(col(0), lit(2i64));
        let sa = c.selectivity(&a);
        let sand = c.selectivity(&Expr::and(a.clone(), b.clone()));
        let sor = c.selectivity(&Expr::or(a, b));
        assert!((sand - sa * sa).abs() < 1e-9);
        assert!((sor - (2.0 * sa - sa * sa)).abs() < 1e-9);
    }

    #[test]
    fn not_complements() {
        let c = ctx();
        let e = Expr::eq(col(0), lit(1i64));
        let s = c.selectivity(&e);
        assert!((c.selectivity(&Expr::not(e)) - (1.0 - s)).abs() < 1e-9);
    }

    #[test]
    fn null_predicates_use_null_fraction() {
        let c = ctx();
        let isnull = Expr::Unary {
            op: UnOp::IsNull,
            input: Box::new(col(1)),
        };
        assert!((c.selectivity(&isnull) - 0.1).abs() < 1e-9);
        let notnull = Expr::Unary {
            op: UnOp::IsNotNull,
            input: Box::new(col(1)),
        };
        assert!((c.selectivity(&notnull) - 0.9).abs() < 1e-9);
        // Equality with NULL matches nothing.
        assert_eq!(c.selectivity(&Expr::eq(col(0), lit(Value::Null))), 0.0);
    }

    #[test]
    fn in_list_sums() {
        let c = ctx();
        let e = Expr::InList {
            input: Box::new(col(0)),
            list: vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            negated: false,
        };
        let s = c.selectivity(&e);
        assert!((s - 0.03).abs() < 0.02, "got {s}");
    }

    #[test]
    fn like_constants() {
        let c = ctx();
        let mk = |pattern: &str, negated| Expr::Like {
            input: Box::new(col(1)),
            pattern: pattern.into(),
            negated,
        };
        assert_eq!(c.selectivity(&mk("abc%", false)), DEFAULT_PREFIX_SEL);
        assert_eq!(c.selectivity(&mk("%abc", false)), DEFAULT_CONTAINS_SEL);
        assert_eq!(c.selectivity(&mk("abc", false)), DEFAULT_EQ_SEL);
        assert_eq!(c.selectivity(&mk("abc%", true)), 1.0 - DEFAULT_PREFIX_SEL);
    }

    #[test]
    fn join_selectivity_uses_larger_ndv() {
        let c = ctx();
        // col0 ndv=100, col1 ndv=50 → 1/100.
        let s = c.selectivity(&Expr::eq(col(0), col(1)));
        assert!((s - 0.01).abs() < 1e-9);
    }

    #[test]
    fn unknown_context_uses_magic_constants() {
        let c = EstimationContext::unknown(3);
        assert_eq!(c.selectivity(&Expr::eq(col(0), lit(1i64))), DEFAULT_EQ_SEL);
        assert_eq!(
            c.selectivity(&Expr::binary(BinOp::Lt, col(0), lit(1i64))),
            DEFAULT_RANGE_SEL
        );
        assert_eq!(c.selectivity(&Expr::eq(col(0), col(2))), DEFAULT_EQ_SEL);
    }

    #[test]
    fn boolean_literals() {
        let c = EstimationContext::unknown(1);
        assert_eq!(c.selectivity(&lit(true)), 1.0);
        assert_eq!(c.selectivity(&lit(false)), 0.0);
    }

    use evopt_common::BinOp;
}
