//! Algebraic rewrite rules.
//!
//! Two rules every cost-based optimizer runs *before* join enumeration,
//! because they are always-wins (no costing needed):
//!
//! 1. [`fold_constants`] — evaluate constant sub-expressions; drop
//!    `WHERE TRUE` filters.
//! 2. [`push_down_filters`] — move each predicate conjunct as close to the
//!    data as possible: through projections (by substitution), sorts, and
//!    into the correct side of joins. Mixed-relation conjuncts become join
//!    predicates.
//!
//! [`rewrite_all`] runs them in that order: it is the pre-pass
//! `Optimizer::optimize` applies to every statement.

use evopt_common::expr::lit;
use evopt_common::{EvoptError, Expr, Result};

use crate::logical::LogicalPlan;

/// The optimizer's pre-pass: fold, then push down.
pub fn rewrite_all(plan: LogicalPlan) -> Result<LogicalPlan> {
    push_down_filters(fold_constants(plan)?)
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant sub-expressions in every node; remove filters that fold to
/// `TRUE`.
pub fn fold_constants(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Filter { input, predicate } => {
            let input = fold_constants(*input)?;
            let predicate = predicate.fold_constants();
            if predicate == lit(true) {
                input
            } else {
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                }
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(fold_constants(*input)?),
            exprs: exprs.into_iter().map(|e| e.fold_constants()).collect(),
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            let predicate = match predicate.map(|p| p.fold_constants()) {
                Some(p) if p == lit(true) => None,
                other => other,
            };
            LogicalPlan::Join {
                left: Box::new(fold_constants(*left)?),
                right: Box::new(fold_constants(*right)?),
                predicate,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(fold_constants(*input)?),
            group_by,
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(|e| e.fold_constants());
                    a
                })
                .collect(),
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_constants(*input)?),
            keys,
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(fold_constants(*input)?),
            limit,
        },
    })
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Push filter conjuncts down towards the scans.
pub fn push_down_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    push(plan, Vec::new())
}

/// Replace every `Column(i)` in `e` with `exprs[i]` (pushing a predicate
/// through the projection that computes those exprs).
fn substitute(e: &Expr, exprs: &[Expr]) -> Result<Expr> {
    Ok(match e {
        Expr::Column(i) => exprs
            .get(*i)
            .cloned()
            .ok_or_else(|| EvoptError::Plan(format!("substitute: ordinal {i} out of range")))?,
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute(left, exprs)?),
            right: Box::new(substitute(right, exprs)?),
        },
        Expr::Unary { op, input } => Expr::Unary {
            op: *op,
            input: Box::new(substitute(input, exprs)?),
        },
        Expr::Like {
            input,
            pattern,
            negated,
        } => Expr::Like {
            input: Box::new(substitute(input, exprs)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::InList {
            input,
            list,
            negated,
        } => Expr::InList {
            input: Box::new(substitute(input, exprs)?),
            list: list.clone(),
            negated: *negated,
        },
        Expr::Between {
            input,
            low,
            high,
            negated,
        } => Expr::Between {
            input: Box::new(substitute(input, exprs)?),
            low: Box::new(substitute(low, exprs)?),
            high: Box::new(substitute(high, exprs)?),
            negated: *negated,
        },
    })
}

fn maybe_filter(conjuncts: Vec<Expr>, plan: LogicalPlan) -> LogicalPlan {
    let conjuncts: Vec<Expr> = conjuncts.into_iter().filter(|c| *c != lit(true)).collect();
    if conjuncts.is_empty() {
        plan
    } else {
        LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: Expr::conjunction(conjuncts),
        }
    }
}

/// Core recursion: `pending` are conjuncts over `plan`'s output schema that
/// must hold; the function buries them as deep as legally possible.
fn push(plan: LogicalPlan, mut pending: Vec<Expr>) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(maybe_filter(pending, plan)),
        LogicalPlan::Filter { input, predicate } => {
            pending.extend(predicate.split_conjuncts());
            push(*input, pending)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            // Rewrite each conjunct in terms of the projection's inputs.
            let mut below = Vec::with_capacity(pending.len());
            for c in pending {
                below.push(substitute(&c, &exprs)?);
            }
            Ok(LogicalPlan::Project {
                input: Box::new(push(*input, below)?),
                exprs,
                schema,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            if let Some(p) = predicate {
                pending.extend(p.split_conjuncts());
            }
            let left_width = left.schema().len();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stay = Vec::new();
            for c in pending {
                let cols = c.referenced_columns();
                let on_left = cols.iter().all(|&i| i < left_width);
                let on_right = cols.iter().all(|&i| i >= left_width);
                if on_left && on_right {
                    // References no columns at all: keep at the join (it is
                    // a constant; folding should have removed TRUE already).
                    stay.push(c);
                } else if on_left {
                    to_left.push(c);
                } else if on_right {
                    to_right.push(c.remap_columns(&|i| i - left_width));
                } else {
                    stay.push(c);
                }
            }
            Ok(LogicalPlan::Join {
                left: Box::new(push(*left, to_left)?),
                right: Box::new(push(*right, to_right)?),
                predicate: if stay.is_empty() {
                    None
                } else {
                    Some(Expr::conjunction(stay))
                },
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => {
            // Conjuncts that only touch group columns commute with the
            // aggregation (classic HAVING-to-WHERE move).
            let ngroups = group_by.len();
            let mut below = Vec::new();
            let mut above = Vec::new();
            for c in pending {
                if c.referenced_columns().iter().all(|&i| i < ngroups) {
                    below.push(c.remap_columns(&|i| group_by[i]));
                } else {
                    above.push(c);
                }
            }
            let agg = LogicalPlan::Aggregate {
                input: Box::new(push(*input, below)?),
                group_by,
                aggs,
                schema,
            };
            Ok(maybe_filter(above, agg))
        }
        LogicalPlan::Sort { input, keys } => Ok(LogicalPlan::Sort {
            input: Box::new(push(*input, pending)?),
            keys,
        }),
        LogicalPlan::Limit { input, limit } => {
            // Filters do NOT commute with LIMIT: keep pending above.
            let inner = LogicalPlan::Limit {
                input: Box::new(push(*input, Vec::new())?),
                limit,
            };
            Ok(maybe_filter(pending, inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::test_helpers::scan;
    use crate::logical::{AggExpr, SortKey};
    use evopt_common::expr::{col, lit};
    use evopt_common::{AggFunc, BinOp};

    fn join(l: LogicalPlan, r: LogicalPlan, p: Option<Expr>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(l),
            right: Box::new(r),
            predicate: p,
        }
    }

    fn filter(input: LogicalPlan, p: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(input),
            predicate: p,
        }
    }

    #[test]
    fn fold_removes_true_filters() {
        let p = filter(scan("t"), Expr::binary(BinOp::Lt, lit(1i64), lit(2i64)));
        let folded = fold_constants(p).unwrap();
        assert_eq!(folded, scan("t"));
    }

    #[test]
    fn fold_inside_projection() {
        let p = LogicalPlan::project(
            scan("t"),
            vec![Expr::binary(BinOp::Add, lit(1i64), lit(2i64))],
            vec![Some("three".into())],
        )
        .unwrap();
        let folded = fold_constants(p).unwrap();
        match folded {
            LogicalPlan::Project { exprs, .. } => assert_eq!(exprs[0], lit(3i64)),
            other => panic!("expected project, got {other}"),
        }
    }

    #[test]
    fn pushdown_splits_filter_over_join() {
        // WHERE t.a = 1 AND u.b = 2 AND t.b = u.a over t JOIN u (cross).
        let pred = Expr::conjunction(vec![
            Expr::eq(col(0), lit(1i64)), // t.a (left)
            Expr::eq(col(4), lit(2i64)), // u.b (right)
            Expr::eq(col(1), col(3)),    // t.b = u.a (join)
        ]);
        let p = filter(join(scan("t"), scan("u"), None), pred);
        let out = push_down_filters(p).unwrap();
        match &out {
            LogicalPlan::Join {
                left,
                right,
                predicate,
            } => {
                assert_eq!(predicate, &Some(Expr::eq(col(1), col(3))));
                match (&**left, &**right) {
                    (
                        LogicalPlan::Filter { predicate: lp, .. },
                        LogicalPlan::Filter { predicate: rp, .. },
                    ) => {
                        assert_eq!(lp, &Expr::eq(col(0), lit(1i64)));
                        // u.b was global #4 → local #1 on the right side.
                        assert_eq!(rp, &Expr::eq(col(1), lit(2i64)));
                    }
                    other => panic!("expected filters on both sides, got {other:?}"),
                }
            }
            other => panic!("expected join at root, got {other}"),
        }
    }

    #[test]
    fn pushdown_through_projection_substitutes() {
        // SELECT a+b AS x FROM t  ... WHERE x = 5  → filter (a+b)=5 under π.
        let proj = LogicalPlan::project(
            scan("t"),
            vec![Expr::binary(BinOp::Add, col(0), col(1))],
            vec![Some("x".into())],
        )
        .unwrap();
        let p = filter(proj, Expr::eq(col(0), lit(5i64)));
        let out = push_down_filters(p).unwrap();
        match &out {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Filter { predicate, .. } => {
                    assert_eq!(
                        predicate,
                        &Expr::eq(Expr::binary(BinOp::Add, col(0), col(1)), lit(5i64))
                    );
                }
                other => panic!("expected filter under project, got {other}"),
            },
            other => panic!("expected project at root, got {other}"),
        }
    }

    #[test]
    fn pushdown_stops_at_limit() {
        let p = filter(
            LogicalPlan::Limit {
                input: Box::new(scan("t")),
                limit: 10,
            },
            Expr::eq(col(0), lit(1i64)),
        );
        let out = push_down_filters(p.clone()).unwrap();
        // Filter must remain above the limit.
        match &out {
            LogicalPlan::Filter { input, .. } => {
                assert!(matches!(&**input, LogicalPlan::Limit { .. }));
            }
            other => panic!("expected filter above limit, got {other}"),
        }
    }

    #[test]
    fn pushdown_through_sort() {
        let p = filter(
            LogicalPlan::Sort {
                input: Box::new(scan("t")),
                keys: vec![SortKey {
                    column: 0,
                    ascending: true,
                }],
            },
            Expr::eq(col(0), lit(1i64)),
        );
        let out = push_down_filters(p).unwrap();
        match &out {
            LogicalPlan::Sort { input, .. } => {
                assert!(matches!(&**input, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected sort above filter, got {other}"),
        }
    }

    #[test]
    fn pushdown_having_on_group_cols() {
        // GROUP BY s with filter on group col s pushes below aggregate;
        // filter on the aggregate value stays above.
        let agg = LogicalPlan::aggregate(
            scan("t"),
            vec![2],
            vec![AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            }],
        )
        .unwrap();
        let p = filter(
            agg,
            Expr::conjunction(vec![
                Expr::eq(col(0), lit("x")),                 // group col
                Expr::binary(BinOp::Gt, col(1), lit(5i64)), // agg result
            ]),
        );
        let out = push_down_filters(p).unwrap();
        match &out {
            LogicalPlan::Filter { input, predicate } => {
                assert_eq!(predicate, &Expr::binary(BinOp::Gt, col(1), lit(5i64)));
                match &**input {
                    LogicalPlan::Aggregate { input, .. } => match &**input {
                        LogicalPlan::Filter { predicate, .. } => {
                            // group ordinal 0 → input ordinal 2 (column s)
                            assert_eq!(predicate, &Expr::eq(col(2), lit("x")));
                        }
                        other => panic!("expected filter under agg, got {other}"),
                    },
                    other => panic!("expected aggregate, got {other}"),
                }
            }
            other => panic!("expected having-filter at root, got {other}"),
        }
    }

    #[test]
    fn merge_adjacent_filters() {
        let p = filter(
            filter(scan("t"), Expr::eq(col(0), lit(1i64))),
            Expr::eq(col(1), lit(2i64)),
        );
        let out = push_down_filters(p).unwrap();
        match &out {
            LogicalPlan::Filter { predicate, input } => {
                assert!(matches!(&**input, LogicalPlan::Scan { .. }));
                assert_eq!(predicate.split_conjuncts().len(), 2);
            }
            other => panic!("expected single merged filter, got {other}"),
        }
    }

    #[test]
    fn rewrite_all_composes() {
        // WHERE TRUE AND t.a = u.a over cross join, project one column.
        let j = join(scan("t"), scan("u"), None);
        let f = filter(j, Expr::and(lit(true), Expr::eq(col(0), col(3))));
        let p = LogicalPlan::project(f, vec![col(1)], vec![None]).unwrap();
        let out = rewrite_all(p.clone()).unwrap();
        assert_eq!(out.schema(), p.schema());
        // Equi-join predicate landed on the join node.
        fn join_pred(p: &LogicalPlan) -> Option<&Expr> {
            match p {
                LogicalPlan::Join { predicate, .. } => predicate.as_ref(),
                _ => p.children().first().and_then(|c| join_pred(c)),
            }
        }
        assert!(join_pred(&out).is_some(), "plan:\n{out}");
    }
}
