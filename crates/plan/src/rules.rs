//! The binder's rewrite pass, run once per statement on the plan the binder
//! owns: fold constants, dropping a filter that folds to `TRUE` (so
//! `unique1 < 10 + 5` reaches the index as a range), then move each HAVING
//! conjunct on group columns below its aggregate, into the WHERE filter
//! there, where it can become an access path.
//!
//! There is no predicate pushdown: the binder puts WHERE directly over the
//! FROM clause, and [`crate::JoinGraph::extract`] gathers every WHERE and ON
//! conjunct of a join tree itself.

use std::mem;

use evopt_common::expr::lit;
use evopt_common::{Expr, Result, Schema};

use crate::logical::LogicalPlan;

/// Fold constants, then move HAVING conjuncts on group columns below their
/// aggregate. Idempotent.
pub fn rewrite_all(mut plan: LogicalPlan) -> Result<LogicalPlan> {
    rewrite(&mut plan);
    Ok(plan)
}

fn rewrite(plan: &mut LogicalPlan) {
    let fold = |e: &mut Expr| *e = e.fold_constants();
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Filter { input, predicate } => {
            rewrite(input);
            fold(predicate);
            if let LogicalPlan::Aggregate {
                input, group_by, ..
            } = &mut **input
            {
                move_having(predicate, group_by, input);
            }
            if *predicate == lit(true) {
                *plan = take(input);
            }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            rewrite(input);
            exprs.iter_mut().for_each(fold);
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            rewrite(left);
            rewrite(right);
            predicate.iter_mut().for_each(fold);
            if *predicate == Some(lit(true)) {
                *predicate = None;
            }
        }
        LogicalPlan::Aggregate { input, aggs, .. } => {
            rewrite(input);
            let args = aggs.iter_mut().filter_map(|a| a.arg.as_mut());
            args.for_each(fold);
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => rewrite(input),
    }
}

/// Move `plan` out, leaving an empty scan behind.
fn take(plan: &mut LogicalPlan) -> LogicalPlan {
    let (table, schema) = (String::new(), Schema::empty());
    mem::replace(plan, LogicalPlan::Scan { table, schema })
}

/// Move the conjuncts of the HAVING `predicate` that commute with its
/// aggregate (grouped by `group_by`, over `input`) into the filter on
/// `input`, ahead of the WHERE conjuncts there; the rest stay in
/// `predicate` (`TRUE` if none). A conjunct commutes when it names only
/// group columns. Over groups that includes one naming no column, as there
/// are groups exactly when there are rows; a scalar aggregate has its one
/// row either way, so nothing moves below it (`HAVING 1 = 0` removes it).
fn move_having(predicate: &mut Expr, group_by: &[usize], input: &mut LogicalPlan) {
    let (below, above): (Vec<Expr>, Vec<Expr>) =
        predicate.split_conjuncts().into_iter().partition(|c| {
            !group_by.is_empty() && c.referenced_columns().iter().all(|&i| i < group_by.len())
        });
    *predicate = Expr::conjunction(above);
    if below.is_empty() {
        return;
    }
    let mut conjuncts: Vec<Expr> = below
        .iter()
        .map(|c| c.remap_columns(&|i| group_by[i]))
        .collect();
    if let LogicalPlan::Filter {
        input: from,
        predicate,
    } = input
    {
        conjuncts.extend(predicate.split_conjuncts());
        *input = take(from);
    }
    *input = LogicalPlan::Filter {
        input: Box::new(take(input)),
        predicate: Expr::conjunction(conjuncts),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::test_helpers::scan;
    use crate::logical::AggExpr;
    use evopt_common::expr::{col, lit};
    use evopt_common::{AggFunc, BinOp};

    fn where_(input: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(input),
            predicate,
        }
    }

    fn count_by(input: LogicalPlan, group_by: Vec<usize>) -> LogicalPlan {
        let count = AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            name: "n".into(),
        };
        LogicalPlan::aggregate(input, group_by, vec![count]).unwrap()
    }

    #[test]
    fn fold_removes_true_filters() {
        let p = where_(scan("t"), Expr::binary(BinOp::Lt, lit(1i64), lit(2i64)));
        assert_eq!(rewrite_all(p).unwrap(), scan("t"));
    }

    #[test]
    fn fold_inside_projection() {
        let p = LogicalPlan::project(
            scan("t"),
            vec![Expr::binary(BinOp::Add, lit(1i64), lit(2i64))],
            vec![Some("three".into())],
        )
        .unwrap();
        match rewrite_all(p).unwrap() {
            LogicalPlan::Project { exprs, .. } => assert_eq!(exprs[0], lit(3i64)),
            other => panic!("expected project, got {other}"),
        }
    }

    #[test]
    fn having_on_group_cols_joins_the_where_filter() {
        // GROUP BY s WHERE a = 1 HAVING s = 'x' AND n > 5: the group-column
        // conjunct goes below the aggregate, ahead of the WHERE conjunct;
        // the one on the aggregate value stays above.
        let agg = count_by(where_(scan("t"), Expr::eq(col(0), lit(1i64))), vec![2]);
        let p = where_(
            agg,
            Expr::conjunction(vec![
                Expr::eq(col(0), lit("x")),
                Expr::binary(BinOp::Gt, col(1), lit(5i64)),
            ]),
        );
        let out = rewrite_all(p).unwrap();
        let LogicalPlan::Filter { input, predicate } = &out else {
            panic!("expected having-filter at root, got {out}");
        };
        assert_eq!(predicate, &Expr::binary(BinOp::Gt, col(1), lit(5i64)));
        let LogicalPlan::Aggregate { input, .. } = &**input else {
            panic!("expected aggregate, got {input}");
        };
        let LogicalPlan::Filter { input, predicate } = &**input else {
            panic!("expected filter under agg, got {input}");
        };
        assert!(matches!(&**input, LogicalPlan::Scan { .. }));
        // Group ordinal 0 → input ordinal 2 (column s).
        assert_eq!(
            predicate,
            &Expr::and(Expr::eq(col(2), lit("x")), Expr::eq(col(0), lit(1i64)))
        );
        assert_eq!(rewrite_all(out.clone()).unwrap(), out, "not idempotent");
    }

    #[test]
    fn having_without_columns_stays_above_a_scalar_aggregate() {
        // SELECT COUNT(*) FROM t HAVING 1 = 0 must return no row, not a
        // count over an empty input.
        let p = where_(count_by(scan("t"), vec![]), Expr::eq(lit(1i64), lit(0i64)));
        let out = rewrite_all(p).unwrap();
        let LogicalPlan::Filter { input, predicate } = &out else {
            panic!("expected having-filter at root, got {out}");
        };
        assert_eq!(predicate, &lit(false));
        assert_eq!(&**input, &count_by(scan("t"), vec![]));
    }
}
