//! Filter, projection and limit.
//!
//! All three are batch transformers: one input batch in, at most one
//! output batch out, with the expression evaluated row by row across the
//! whole batch per `next_batch()` call.

use evopt_common::{Batch, Expr, Result, Schema, Tuple};

use crate::executor::Executor;

/// Keeps the rows on which the predicate is `TRUE`, through the same
/// `Expr::eval_predicate` (the three-valued `Expr::truth`, on borrowed
/// operands) a scan's pushed filter and a join's residual use.
/// The optimizer leaves a predicate here only above an aggregate (`HAVING`
/// on an aggregate value) or an opaque join leaf; every other conjunct is
/// evaluated at the access path or as a join residual.
pub struct FilterExec {
    input: Box<dyn Executor>,
    predicate: Expr,
}

impl FilterExec {
    pub fn new(input: Box<dyn Executor>, predicate: Expr) -> Self {
        FilterExec { input, predicate }
    }
}

impl Executor for FilterExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        // A batch may filter down to nothing; keep pulling so an emitted
        // batch is never empty.
        while let Some(batch) = self.input.next_batch()? {
            let (schema, rows) = batch.into_parts();
            let mut kept = Vec::with_capacity(rows.len());
            for t in rows {
                if self.predicate.eval_predicate(&t)? {
                    kept.push(t);
                }
            }
            if !kept.is_empty() {
                return Ok(Some(Batch::new(schema, kept)));
            }
        }
        Ok(None)
    }
}

/// Expression projection: maps the expression list over a whole batch per
/// call. The list `#0..#n` over an `n`-column input (a `SELECT *`) copies
/// nothing: the batch passes through under this operator's schema.
pub struct ProjectExec {
    input: Box<dyn Executor>,
    /// `None` for the identity list.
    exprs: Option<Vec<Expr>>,
    schema: Schema,
}

impl ProjectExec {
    pub fn new(input: Box<dyn Executor>, exprs: Vec<Expr>, schema: Schema) -> Self {
        let identity = exprs.len() == input.schema().len()
            && (exprs.iter().enumerate()).all(|(i, e)| matches!(e, Expr::Column(c) if *c == i));
        ProjectExec {
            input,
            exprs: (!identity).then_some(exprs),
            schema,
        }
    }
}

impl Executor for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let Some(exprs) = &self.exprs else {
            return Ok(Some(Batch::new(self.schema.clone(), batch.into_rows())));
        };
        let mut out = Batch::with_capacity(self.schema.clone(), batch.len());
        for t in batch.iter() {
            let mut values = Vec::with_capacity(exprs.len());
            for e in exprs {
                values.push(e.eval(t)?);
            }
            out.push(Tuple::new(values));
        }
        Ok(Some(out))
    }
}

/// First-k: truncates the batch that crosses the limit and stops pulling.
pub struct LimitExec {
    input: Box<dyn Executor>,
    remaining: usize,
}

impl LimitExec {
    pub fn new(input: Box<dyn Executor>, limit: usize) -> Self {
        LimitExec {
            input,
            remaining: limit,
        }
    }
}

impl Executor for LimitExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_batch()? {
            Some(mut batch) => {
                batch.truncate(self.remaining);
                self.remaining -= batch.len();
                Ok(Some(batch))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use crate::executor::{build_executor, run_collect};
    use crate::scan::test_support::{seq_plan, setup};
    use evopt_common::expr::{col, lit};
    use evopt_common::{BinOp, Column, DataType, Expr, Schema, Tuple, Value};
    use evopt_core::cost::Cost;
    use evopt_core::physical::{PhysOp, PhysicalPlan};

    #[test]
    fn filter_project_limit_pipeline() {
        let env = setup(100, 16);
        let scan = seq_plan(&env, "nums", None);
        let filtered = PhysicalPlan {
            schema: scan.schema.clone(),
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
            op: PhysOp::Filter {
                input: Box::new(scan),
                predicate: Expr::binary(BinOp::GtEq, col(0), lit(90i64)),
            },
        };
        let projected = PhysicalPlan {
            schema: filtered.schema.project(&[0]).unwrap(),
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
            op: PhysOp::Project {
                input: Box::new(filtered),
                exprs: vec![Expr::binary(BinOp::Mul, col(0), lit(2i64))],
            },
        };
        let limited = PhysicalPlan {
            schema: projected.schema.clone(),
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
            op: PhysOp::Limit {
                input: Box::new(projected),
                limit: 3,
            },
        };
        let rows = run_collect(&limited, &env).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].value(0).unwrap(), &Value::Int(180));
        assert_eq!(rows[2].value(0).unwrap(), &Value::Int(184));
    }

    #[test]
    fn identity_projection_passes_the_batch_through_under_its_schema() {
        let env = setup(50, 16);
        let scan = seq_plan(&env, "nums", None);
        let project = |exprs: Vec<Expr>| PhysicalPlan {
            schema: Schema::new(
                (0..exprs.len())
                    .map(|i| Column::new(format!("p{i}"), DataType::Int))
                    .collect(),
            ),
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
            op: PhysOp::Project {
                input: Box::new(scan.clone()),
                exprs,
            },
        };
        let whole = run_collect(&scan, &env).unwrap();
        for exprs in [
            vec![col(0), col(1), col(2)],
            vec![col(1), col(0), col(2)],
            vec![col(0), col(1)],
        ] {
            let plan = project(exprs.clone());
            let mut exec = build_executor(&plan, &env).unwrap();
            let mut rows = Vec::new();
            while let Some(batch) = exec.next_batch().unwrap() {
                assert_eq!(batch.schema(), &plan.schema);
                rows.extend(batch.into_rows());
            }
            let want: Vec<Tuple> = (whole.iter())
                .map(|t| Tuple::new(exprs.iter().map(|e| e.eval(t).unwrap()).collect()))
                .collect();
            assert_eq!(rows, want, "{exprs:?}");
        }
    }

    #[test]
    fn limit_zero_and_overlong() {
        let env = setup(5, 16);
        let mk = |limit| PhysicalPlan {
            schema: seq_plan(&env, "nums", None).schema.clone(),
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
            op: PhysOp::Limit {
                input: Box::new(seq_plan(&env, "nums", None)),
                limit,
            },
        };
        assert_eq!(run_collect(&mk(0), &env).unwrap().len(), 0);
        assert_eq!(run_collect(&mk(100), &env).unwrap().len(), 5);
    }
}
