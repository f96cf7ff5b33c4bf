//! What a statement hands back: the public [`QueryResult`], and the
//! [`Outcome`] of one pipeline run that every door picks its view from.

use evopt_common::{EvoptError, Result, Schema, Tuple};
use evopt_core::physical::PhysicalPlan;
use evopt_exec::QueryMetrics;
use evopt_obs::{SearchTrace, StatementSpan};
use evopt_plan::LogicalPlan;

/// The result of [`crate::Database::execute`].
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// A SELECT's output. `metrics` is populated when the statement ran
    /// through the measured drain ([`crate::Database::execute_analyzed`],
    /// [`crate::Mode::Instrumented`] or [`crate::Mode::Governed`]).
    Rows {
        schema: Schema,
        rows: Vec<Tuple>,
        metrics: Option<Box<QueryMetrics>>,
    },
    /// Rows affected by DML.
    Affected(usize),
    /// EXPLAIN text.
    Explained(String),
    /// DDL success.
    Ok,
}

/// Equality ignores `metrics`: two runs of the same query are the "same
/// result" even though wall-clock and pool state differ.
impl PartialEq for QueryResult {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                QueryResult::Rows {
                    schema: s1,
                    rows: r1,
                    ..
                },
                QueryResult::Rows {
                    schema: s2,
                    rows: r2,
                    ..
                },
            ) => s1 == s2 && r1 == r2,
            (QueryResult::Affected(a), QueryResult::Affected(b)) => a == b,
            (QueryResult::Explained(a), QueryResult::Explained(b)) => a == b,
            (QueryResult::Ok, QueryResult::Ok) => true,
            _ => false,
        }
    }
}

impl QueryResult {
    /// The rows of a `Rows` result (empty otherwise).
    pub fn rows(self) -> Vec<Tuple> {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        }
    }

    /// The runtime metrics of an instrumented `Rows` result.
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        match self {
            QueryResult::Rows { metrics, .. } => metrics.as_deref(),
            _ => None,
        }
    }

    /// The rows, or an error when the statement was not a SELECT.
    pub(crate) fn into_rows(self) -> Result<Vec<Tuple>> {
        match self {
            QueryResult::Rows { rows, .. } => Ok(rows),
            other => Err(EvoptError::Execution(format!(
                "expected a SELECT, statement returned {other:?}"
            ))),
        }
    }

    /// The text, or an error when the statement was not an EXPLAIN.
    pub(crate) fn into_text(self) -> Result<String> {
        match self {
            QueryResult::Explained(text) => Ok(text),
            other => Err(EvoptError::Execution(format!(
                "expected an EXPLAIN, statement returned {other:?}"
            ))),
        }
    }
}

/// A SELECT run with the optimizer's search trace attached
/// ([`crate::Database::query_traced`] — the programmatic `EXPLAIN TRACE`).
#[derive(Debug)]
pub struct TracedQuery {
    pub rows: Vec<Tuple>,
    pub plan: PhysicalPlan,
    pub trace: SearchTrace,
}

/// Everything one run of the statement pipeline produced. The side outputs
/// are filled in as the stages complete, so they survive a later stage's
/// failure: a query the governor killed still reports its partial
/// `metrics`, a statement that failed in `execute` still has its `plans`.
pub struct Outcome {
    pub result: Result<QueryResult>,
    /// The bound and the chosen plan, for statements that plan (SELECT,
    /// UPDATE/DELETE's row finding).
    pub plans: Option<(LogicalPlan, PhysicalPlan)>,
    /// The optimizer's search journal ([`crate::Mode::Traced`],
    /// `EXPLAIN TRACE`).
    pub trace: Option<SearchTrace>,
    /// Per-operator metrics of an instrumented or governed execution.
    pub metrics: Option<QueryMetrics>,
    /// The statement's phase span.
    pub span: StatementSpan,
}

impl Outcome {
    /// The `execute` view: the result, a `Rows` carrying whatever
    /// per-operator metrics the run collected.
    pub fn into_result(self) -> Result<QueryResult> {
        let mut result = self.result?;
        if let QueryResult::Rows { metrics, .. } = &mut result {
            *metrics = self.metrics.map(Box::new);
        }
        Ok(result)
    }

    pub(crate) fn into_governed(self) -> (Result<Vec<Tuple>>, Option<QueryMetrics>) {
        (self.result.and_then(QueryResult::into_rows), self.metrics)
    }

    pub(crate) fn into_instrumented(self) -> Result<(Vec<Tuple>, QueryMetrics)> {
        let rows = self.result?.into_rows()?;
        let metrics = self.metrics.ok_or_else(|| missing("operator metrics"))?;
        Ok((rows, metrics))
    }

    pub(crate) fn into_plans(self) -> Result<(LogicalPlan, PhysicalPlan)> {
        self.result?;
        self.plans.ok_or_else(|| missing("a plan"))
    }

    pub(crate) fn into_traced(self) -> Result<TracedQuery> {
        let rows = self.result?.into_rows()?;
        let (_, plan) = self.plans.ok_or_else(|| missing("a plan"))?;
        let trace = self.trace.ok_or_else(|| missing("a search trace"))?;
        Ok(TracedQuery { rows, plan, trace })
    }
}

/// The caller asked a door for something its statement does not have
/// (`plan_sql` of a `CREATE TABLE`).
fn missing(what: &str) -> EvoptError {
    EvoptError::Plan(format!("the statement produced no {what}"))
}
