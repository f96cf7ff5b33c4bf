//! Renderings the pipeline hands out: the `EXPLAIN VERIFY` report and
//! `SHOW QUERY LOG`.

use evopt_catalog::Catalog;
use evopt_common::{Column, DataType, Schema, Tuple, Value};
use evopt_core::physical::PhysicalPlan;
use evopt_core::verify::{self, VerifyPhase};
use evopt_obs::QueryLog;
use evopt_plan::LogicalPlan;

use crate::result::QueryResult;

/// The `EXPLAIN VERIFY` section: the verifier over both plans plus the SQL
/// lints, reporting rather than erroring. Returns the text with the
/// failure and lint counts for the metrics registry.
pub(crate) fn verify_report(
    logical: &LogicalPlan,
    physical: &PhysicalPlan,
    catalog: &Catalog,
) -> (String, u64, u64) {
    let post_bind = verify::verify_logical(logical, VerifyPhase::PostBind);
    let post_phys = verify::verify_physical(physical, Some(catalog), VerifyPhase::PostPhysical);
    let lints = verify::lint_logical(logical);
    let mut text = String::from("== verify ==\n");
    text.push_str(&post_bind.render());
    text.push_str(&post_phys.render());
    if lints.is_empty() {
        text.push_str("lints: none\n");
    } else {
        text.push_str(&format!("lints ({}):\n", lints.len()));
        for l in &lints {
            text.push_str(&format!("  {l}\n"));
        }
    }
    let failures = (post_bind.issues.len() + post_phys.issues.len()) as u64;
    (text, failures, lints.len() as u64)
}

/// `SHOW QUERY LOG`: recent queries, newest first, as a rows result.
/// `session_id` attributes each entry to the session that ran it
/// (0 = the database's own default session); `phases` is the statement
/// span's compact rendering, empty when spans were off.
pub(crate) fn query_log(log: &QueryLog) -> QueryResult {
    let schema = Schema::new(vec![
        Column::new("session_id", DataType::Int),
        Column::new("sql", DataType::Str),
        Column::new("plan_digest", DataType::Str),
        Column::new("est_rows", DataType::Float),
        Column::new("actual_rows", DataType::Int),
        Column::new("q_error", DataType::Float),
        Column::new("optimize_us", DataType::Int),
        Column::new("execute_us", DataType::Int),
        Column::new("pages_read", DataType::Int),
        Column::new("pages_written", DataType::Int),
        Column::new("slow", DataType::Bool),
        Column::new("phases", DataType::Str),
    ]);
    let rows = log
        .entries()
        .into_iter()
        .map(|e| {
            Tuple::new(vec![
                Value::Int(e.session_id as i64),
                Value::Str(e.sql.clone()),
                Value::Str(e.plan_digest.clone()),
                Value::Float(e.est_rows),
                Value::Int(e.actual_rows as i64),
                Value::Float(e.q_error()),
                Value::Int(e.optimize_us as i64),
                Value::Int(e.execute_us as i64),
                Value::Int(e.pages_read as i64),
                Value::Int(e.pages_written as i64),
                Value::Bool(e.slow),
                Value::Str(e.span.as_ref().map(|s| s.compact()).unwrap_or_default()),
            ])
        })
        .collect();
    QueryResult::Rows {
        schema,
        rows,
        metrics: None,
    }
}
