//! Access-path selection for a single base relation.
//!
//! Given a table, its pushed-down predicates (table-local ordinals) and
//! statistics, enumerate the ways to produce its filtered rows:
//!
//! * the **sequential scan** (always available), and
//! * an **index scan** per B+-tree whose column appears in a *sargable*
//!   conjunct (`col = c`, `col < c`, `col BETWEEN a AND b`, ...), with the
//!   matching range extracted into a [`KeyRange`] and everything else left
//!   as a residual filter.
//!
//! Candidates are pruned by dominance: the cheapest path survives, plus the
//! cheapest path *per produced sort order* — an ordered-but-costlier path
//! can still win later if it saves a sort (interesting orders, the `ordered`
//! class of `tests/plan_regret.rs`).

use std::ops::Bound;

use evopt_common::{BinOp, Expr, Value};

use crate::cost::{Cost, CostModel};
use crate::physical::KeyRange;
use crate::selectivity::EstimationContext;

/// Everything the path generator needs to know about one candidate index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub name: String,
    /// Table-local ordinal of the indexed column.
    pub column: usize,
    pub height: f64,
    pub pages: f64,
    pub clustered: bool,
    pub unique: bool,
}

/// Physical facts about the relation.
#[derive(Debug, Clone)]
pub struct RelMeta {
    pub table: String,
    pub rows: f64,
    pub pages: f64,
    pub indexes: Vec<IndexMeta>,
}

/// One way to produce the relation's filtered rows.
#[derive(Debug, Clone)]
pub struct PathChoice {
    /// How to scan.
    pub kind: PathKind,
    /// Cost of the scan itself.
    pub cost: Cost,
    /// Output rows (after all local predicates).
    pub rows: f64,
    /// Table-local ordinal whose ascending order the output satisfies.
    pub order: Option<usize>,
}

/// The scan flavour.
#[derive(Debug, Clone)]
pub enum PathKind {
    SeqScan {
        filter: Option<Expr>,
    },
    IndexScan {
        index: String,
        range: KeyRange,
        residual: Option<Expr>,
        clustered: bool,
    },
}

/// Extracted bounds on one column.
#[derive(Debug, Clone, Default)]
struct Sarg {
    low: Option<(Value, bool)>,  // (bound, inclusive)
    high: Option<(Value, bool)>, // (bound, inclusive)
}

impl Sarg {
    fn is_empty(&self) -> bool {
        self.low.is_none() && self.high.is_none()
    }

    fn tighten_low(&mut self, v: Value, inclusive: bool) {
        let better = match &self.low {
            None => true,
            Some((cur, cur_inc)) => v > *cur || (v == *cur && *cur_inc && !inclusive),
        };
        if better {
            self.low = Some((v, inclusive));
        }
    }

    fn tighten_high(&mut self, v: Value, inclusive: bool) {
        let better = match &self.high {
            None => true,
            Some((cur, cur_inc)) => v < *cur || (v == *cur && *cur_inc && !inclusive),
        };
        if better {
            self.high = Some((v, inclusive));
        }
    }

    fn to_range(&self) -> KeyRange {
        let low = match &self.low {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(v.clone()),
            Some((v, false)) => Bound::Excluded(v.clone()),
        };
        let high = match &self.high {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(v.clone()),
            Some((v, false)) => Bound::Excluded(v.clone()),
        };
        KeyRange { low, high }
    }

    /// Selectivity of the extracted bounds alone.
    fn selectivity(&self, col: usize, est: &EstimationContext) -> f64 {
        match (&self.low, &self.high) {
            (Some((lo, _)), Some((hi, _))) if lo == hi => est.eq_selectivity(col, lo),
            _ => {
                let lo = self.low.as_ref().and_then(|(v, _)| v.as_f64());
                let hi = self.high.as_ref().and_then(|(v, _)| v.as_f64());
                if lo.is_none() && hi.is_none() && !self.is_empty() {
                    // Non-numeric bounds (strings): fall back.
                    crate::selectivity::DEFAULT_RANGE_SEL
                } else {
                    est.range_selectivity(col, lo, hi)
                }
            }
        }
    }
}

/// Try to fold `conjunct` into the sarg for `column`. Returns true when the
/// conjunct is fully absorbed (no residual needed).
fn absorb(conjunct: &Expr, column: usize, sarg: &mut Sarg) -> bool {
    match conjunct {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            // Normalise to col OP lit.
            let (col, op, lit) = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => (*c, *op, v),
                (Expr::Literal(v), Expr::Column(c)) => (*c, op.flip(), v),
                _ => return false,
            };
            if col != column || lit.is_null() {
                return false;
            }
            match op {
                BinOp::Eq => {
                    sarg.tighten_low(lit.clone(), true);
                    sarg.tighten_high(lit.clone(), true);
                    true
                }
                BinOp::Lt => {
                    sarg.tighten_high(lit.clone(), false);
                    true
                }
                BinOp::LtEq => {
                    sarg.tighten_high(lit.clone(), true);
                    true
                }
                BinOp::Gt => {
                    sarg.tighten_low(lit.clone(), false);
                    true
                }
                BinOp::GtEq => {
                    sarg.tighten_low(lit.clone(), true);
                    true
                }
                _ => false,
            }
        }
        Expr::Between {
            input,
            low,
            high,
            negated: false,
        } => match (&**input, &**low, &**high) {
            (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi))
                if *c == column && !lo.is_null() && !hi.is_null() =>
            {
                sarg.tighten_low(lo.clone(), true);
                sarg.tighten_high(hi.clone(), true);
                true
            }
            _ => false,
        },
        _ => false,
    }
}

/// Enumerate and prune the access paths for one relation.
///
/// `local_preds` use table-local ordinals; `est` is indexed the same way.
pub fn access_paths(
    rel: &RelMeta,
    local_preds: &[Expr],
    est: &EstimationContext,
    model: &CostModel,
) -> Vec<PathChoice> {
    let sel_all: f64 = local_preds.iter().map(|p| est.selectivity(p)).product();
    let out_rows = rel.rows * sel_all;
    let mut paths = Vec::new();

    // Sequential scan. If the heap is clustered on some index's column, the
    // scan inherits that order.
    let heap_order = rel.indexes.iter().find(|i| i.clustered).map(|i| i.column);
    paths.push(PathChoice {
        kind: PathKind::SeqScan {
            filter: nonempty_conjunction(local_preds.to_vec()),
        },
        cost: model.seq_scan(rel.pages, rel.rows),
        rows: out_rows,
        order: heap_order,
    });

    // Index scans.
    for idx in &rel.indexes {
        let mut sarg = Sarg::default();
        let mut residual = Vec::new();
        for p in local_preds {
            if !absorb(p, idx.column, &mut sarg) {
                residual.push(p.clone());
            }
        }
        let key_sel = if sarg.is_empty() {
            1.0 // full-index scan: only useful as an order provider
        } else {
            sarg.selectivity(idx.column, est)
        };
        let match_rows = rel.rows * key_sel;
        let cost = model.index_scan(
            idx.clustered,
            key_sel,
            rel.pages,
            idx.pages,
            idx.height,
            match_rows,
        );
        paths.push(PathChoice {
            kind: PathKind::IndexScan {
                index: idx.name.clone(),
                range: sarg.to_range(),
                residual: nonempty_conjunction(residual),
                clustered: idx.clustered,
            },
            cost,
            rows: out_rows,
            order: Some(idx.column),
        });
    }

    let mut kept = prune_paths(paths, model);
    // The sequential scan can be dominated (e.g. by a cheaper clustered
    // index scan that also provides an order), but it must always remain a
    // candidate: the syntactic baseline is defined in terms of it, and
    // keeping it costs nothing.
    if !kept
        .iter()
        .any(|p| matches!(p.kind, PathKind::SeqScan { .. }))
    {
        kept.push(PathChoice {
            kind: PathKind::SeqScan {
                filter: nonempty_conjunction(local_preds.to_vec()),
            },
            cost: model.seq_scan(rel.pages, rel.rows),
            rows: out_rows,
            order: heap_order,
        });
    }
    kept
}

/// Keep the cheapest path overall plus the cheapest per distinct order.
pub fn prune_paths(paths: Vec<PathChoice>, model: &CostModel) -> Vec<PathChoice> {
    let mut kept: Vec<PathChoice> = Vec::new();
    for p in paths {
        let mut dominated = false;
        kept.retain(|k| {
            let k_cheaper = model.total(k.cost) <= model.total(p.cost);
            let p_cheaper = model.total(p.cost) <= model.total(k.cost);
            // k dominates p: at least as cheap and provides p's order (or p
            // has none).
            if k_cheaper && (p.order.is_none() || k.order == p.order) {
                dominated = true;
            }
            // Drop k if p dominates it.
            !(p_cheaper && (k.order.is_none() || p.order == k.order))
        });
        if !dominated {
            kept.push(p);
        }
    }
    kept
}

fn nonempty_conjunction(preds: Vec<Expr>) -> Option<Expr> {
    if preds.is_empty() {
        None
    } else {
        Some(Expr::conjunction(preds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectivity::ColumnInfo;
    use evopt_catalog::{ColumnStats, Histogram};
    use evopt_common::expr::{col, lit};
    use std::sync::OnceLock;

    /// 100k rows over 1000 pages; col 0 uniform 0..100_000 with an index.
    fn fixture(clustered: bool) -> (RelMeta, EstimationContext<'static>) {
        let rel = RelMeta {
            table: "t".into(),
            rows: 100_000.0,
            pages: 1000.0,
            indexes: vec![IndexMeta {
                name: "t_idx".into(),
                column: 0,
                height: 3.0,
                pages: 300.0,
                clustered,
                unique: false,
            }],
        };
        static STATS: OnceLock<ColumnStats> = OnceLock::new();
        let stats = STATS.get_or_init(|| {
            let vals: Vec<f64> = (0..10_000).map(|i| (i * 10) as f64).collect();
            ColumnStats {
                null_count: 0,
                ndv: 100_000,
                min: Some(Value::Int(0)),
                max: Some(Value::Int(99_999)),
                mcvs: vec![],
                histogram: Histogram::equi_depth(&vals, 32),
            }
        });
        let est = EstimationContext::new(vec![
            ColumnInfo {
                stats: Some(stats),
                table_rows: 100_000,
            },
            ColumnInfo {
                stats: None,
                table_rows: 100_000,
            },
        ]);
        (rel, est)
    }

    fn cheapest<'a>(paths: &'a [PathChoice], model: &CostModel) -> &'a PathChoice {
        paths
            .iter()
            .min_by(|a, b| model.total(a.cost).total_cmp(&model.total(b.cost)))
            .unwrap()
    }

    #[test]
    fn point_lookup_picks_index() {
        let (rel, est) = fixture(false);
        let model = CostModel::default();
        let preds = vec![Expr::eq(col(0), lit(42i64))];
        let paths = access_paths(&rel, &preds, &est, &model);
        let best = cheapest(&paths, &model);
        match &best.kind {
            PathKind::IndexScan {
                range, residual, ..
            } => {
                assert_eq!(range, &KeyRange::eq(Value::Int(42)) as &KeyRange);
                assert!(residual.is_none());
            }
            other => panic!("expected index scan, got {other:?}"),
        }
        assert!(best.rows <= 20.0, "rows = {}", best.rows);
    }

    #[test]
    fn wide_range_picks_seq_scan() {
        let (rel, est) = fixture(false);
        let model = CostModel::default();
        // 90% of the table: unclustered index would do ~90k random I/Os.
        let preds = vec![Expr::binary(BinOp::Gt, col(0), lit(10_000i64))];
        let paths = access_paths(&rel, &preds, &est, &model);
        let best = cheapest(&paths, &model);
        assert!(
            matches!(best.kind, PathKind::SeqScan { .. }),
            "expected seq scan for 90% selectivity"
        );
    }

    #[test]
    fn clustered_index_survives_wider_ranges() {
        let model = CostModel::default();
        let preds = vec![Expr::binary(BinOp::Lt, col(0), lit(30_000i64))]; // 30%
        let (rel_u, est) = fixture(false);
        let (rel_c, _) = fixture(true);
        let best_u = {
            let paths = access_paths(&rel_u, &preds, &est, &model);
            cheapest(&paths, &model).kind.clone()
        };
        let best_c = {
            let paths = access_paths(&rel_c, &preds, &est, &model);
            cheapest(&paths, &model).kind.clone()
        };
        assert!(matches!(best_u, PathKind::SeqScan { .. }));
        assert!(
            matches!(best_c, PathKind::IndexScan { .. }),
            "clustered index should win at 30%"
        );
    }

    #[test]
    fn range_bounds_intersect() {
        let (rel, est) = fixture(false);
        let model = CostModel::default();
        let preds = vec![
            Expr::binary(BinOp::GtEq, col(0), lit(10i64)),
            Expr::binary(BinOp::Lt, col(0), lit(100i64)),
            Expr::binary(BinOp::Gt, lit(50_000i64), col(0)), // flipped: col < 50000
        ];
        let paths = access_paths(&rel, &preds, &est, &model);
        let idx = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::IndexScan { .. }))
            .unwrap();
        match &idx.kind {
            PathKind::IndexScan {
                range, residual, ..
            } => {
                assert_eq!(range.low, Bound::Included(Value::Int(10)));
                assert_eq!(range.high, Bound::Excluded(Value::Int(100)));
                assert!(residual.is_none(), "all three absorbed");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_sargable_becomes_residual() {
        let (rel, est) = fixture(false);
        let model = CostModel::default();
        let preds = vec![
            Expr::eq(col(0), lit(5i64)),
            Expr::eq(col(1), lit("x")), // other column: residual
        ];
        let paths = access_paths(&rel, &preds, &est, &model);
        let idx = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::IndexScan { .. }))
            .unwrap();
        match &idx.kind {
            PathKind::IndexScan { residual, .. } => {
                assert_eq!(residual, &Some(Expr::eq(col(1), lit("x"))));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn between_absorbed() {
        let (rel, est) = fixture(false);
        let model = CostModel::default();
        let preds = vec![Expr::Between {
            input: Box::new(col(0)),
            low: Box::new(lit(5i64)),
            high: Box::new(lit(15i64)),
            negated: false,
        }];
        let paths = access_paths(&rel, &preds, &est, &model);
        let idx = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::IndexScan { .. }))
            .unwrap();
        match &idx.kind {
            PathKind::IndexScan { range, .. } => {
                assert_eq!(range.low, Bound::Included(Value::Int(5)));
                assert_eq!(range.high, Bound::Included(Value::Int(15)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unfiltered_table_keeps_ordered_path_for_interesting_orders() {
        let (rel, est) = fixture(false);
        let model = CostModel::default();
        let paths = access_paths(&rel, &[], &est, &model);
        // Seq scan is cheapest; the full index scan survives only because it
        // provides an order.
        assert_eq!(paths.len(), 2);
        assert!(paths
            .iter()
            .any(|p| matches!(p.kind, PathKind::SeqScan { .. })));
        assert!(paths
            .iter()
            .any(|p| p.order == Some(0) && matches!(p.kind, PathKind::IndexScan { .. })));
    }

    #[test]
    fn pruning_drops_dominated_ordered_paths() {
        let model = CostModel::default();
        let mk = |io: f64, order| PathChoice {
            kind: PathKind::SeqScan { filter: None },
            cost: Cost::new(io, 0.0),
            rows: 10.0,
            order,
        };
        // Ordered path cheaper than unordered: unordered is dominated.
        let kept = prune_paths(vec![mk(10.0, Some(0)), mk(20.0, None)], &model);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].order, Some(0));
        // Two orders both kept; plus cheapest overall.
        let kept = prune_paths(
            vec![
                mk(10.0, None),
                mk(15.0, Some(0)),
                mk(18.0, Some(1)),
                mk(30.0, Some(1)),
            ],
            &model,
        );
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn clustered_heap_gives_seq_scan_an_order() {
        let (rel, est) = fixture(true);
        let model = CostModel::default();
        let paths = access_paths(&rel, &[], &est, &model);
        let seq = paths
            .iter()
            .find(|p| matches!(p.kind, PathKind::SeqScan { .. }))
            .unwrap();
        assert_eq!(seq.order, Some(0));
    }
}
