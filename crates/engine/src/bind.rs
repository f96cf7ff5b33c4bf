//! The bind stage: what a parsed statement resolves to against a catalog.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use evopt_catalog::{Catalog, TableInfo};
use evopt_common::{Column, EvoptError, Expr, Result, Schema, Tuple};
use evopt_core::physical::PhysicalPlan;
use evopt_core::verify::{self, VerifyPhase};
use evopt_obs::Phase;
use evopt_plan::{rewrite_all, LogicalPlan};
use evopt_sql::ast::{AstExpr, Statement};
use evopt_sql::{bind_scalar, bind_select};

use crate::pipeline::Flight;

/// [`crate::pipeline::Input`] after the parse stage. One per statement, on the stack: not
/// worth a `Box` to even the variants out.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Parsed<'a> {
    Stmt(Statement),
    Plan(&'a PhysicalPlan),
    Rows(&'a str, &'a [Tuple]),
}

/// What the bind stage resolved the statement to: names looked up,
/// expressions bound, constants evaluated.
pub(crate) enum Action<'a> {
    /// Return the rows of the plan — the caller's own, if it brought one.
    Query(Option<&'a PhysicalPlan>),
    /// Delete the rows the plan finds, or (with `sets`) rewrite them.
    Modify {
        info: Arc<TableInfo>,
        sets: Option<Vec<(usize, Expr)>>,
    },
    Insert {
        info: Arc<TableInfo>,
        rows: Cow<'a, [Tuple]>,
    },
    CreateTable {
        name: String,
        schema: Schema,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
        unique: bool,
        clustered: bool,
    },
    Analyze(Option<String>),
    DropTable(String),
    ShowQueryLog,
}

impl<'a> Flight<'a> {
    /// Resolve names against the statement's catalog and bind every
    /// expression through `evopt_sql`'s binder; then, when verification is
    /// active, run the post-bind verifier pass over the freshly bound
    /// logical plan — the SELECT itself, or the row-finding half of an
    /// UPDATE/DELETE (`SELECT * FROM t WHERE p`). With a span, the bind and
    /// verify phases are timed separately.
    pub(crate) fn bind_stage(
        &mut self,
        catalog: &Arc<Catalog>,
        parsed: Parsed<'a>,
    ) -> Result<(Option<LogicalPlan>, Action<'a>)> {
        let started = Instant::now();
        let mut logical = None;
        let action = match parsed {
            Parsed::Plan(plan) => Action::Query(Some(plan)),
            Parsed::Rows(table, tuples) => Action::Insert {
                info: catalog.table(table)?,
                rows: Cow::Borrowed(tuples),
            },
            Parsed::Stmt(Statement::Select(sel)) => {
                let catalog = Arc::clone(catalog);
                let provider = move |table: &str| -> Result<Schema> {
                    Ok(catalog.table(table)?.schema.clone())
                };
                logical = Some(bind_select(&sel, &provider)?);
                Action::Query(None)
            }
            Parsed::Stmt(Statement::Delete { table, predicate }) => {
                let info = catalog.table(&table)?;
                logical = Some(bind_row_finder(&info, predicate.as_ref())?);
                Action::Modify { info, sets: None }
            }
            Parsed::Stmt(Statement::Update {
                table,
                sets,
                predicate,
            }) => {
                let info = catalog.table(&table)?;
                logical = Some(bind_row_finder(&info, predicate.as_ref())?);
                let bind_set = |(column, value): &(String, AstExpr)| {
                    let ordinal = info.schema.resolve(None, column)?;
                    Ok((ordinal, bind_scalar(value, &info.schema)?))
                };
                let sets = Some(sets.iter().map(bind_set).collect::<Result<_>>()?);
                Action::Modify { info, sets }
            }
            Parsed::Stmt(Statement::Insert { table, rows }) => {
                // VALUES are constants: bound against no columns at all,
                // evaluated against the empty row.
                let (empty, blank) = (Schema::empty(), Tuple::new(vec![]));
                let eval_row = |row: &Vec<AstExpr>| {
                    let values = row.iter().map(|e| bind_scalar(e, &empty)?.eval(&blank));
                    Ok(Tuple::new(values.collect::<Result<_>>()?))
                };
                Action::Insert {
                    info: catalog.table(&table)?,
                    rows: Cow::Owned(rows.iter().map(eval_row).collect::<Result<_>>()?),
                }
            }
            Parsed::Stmt(Statement::CreateTable { name, columns }) => {
                let columns = columns.iter().map(|c| Column {
                    nullable: c.nullable,
                    ..Column::new(&c.name, c.dtype)
                });
                let schema = Schema::new(columns.collect());
                Action::CreateTable { name, schema }
            }
            Parsed::Stmt(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
                clustered,
            }) => Action::CreateIndex {
                name,
                table,
                column,
                unique,
                clustered,
            },
            Parsed::Stmt(Statement::Analyze { table }) => Action::Analyze(table),
            Parsed::Stmt(Statement::DropTable { name }) => Action::DropTable(name),
            Parsed::Stmt(Statement::ShowQueryLog) => Action::ShowQueryLog,
            Parsed::Stmt(Statement::Explain { .. }) => {
                return Err(EvoptError::Plan(
                    "EXPLAIN is a statement prefix: pass it to execute(), once".into(),
                ))
            }
        };
        self.phase(Phase::Bind, started);
        let verifying = cfg!(debug_assertions) || self.cfg.optimizer.verify;
        if let (Some(logical), true) = (&logical, verifying) {
            let started = Instant::now();
            let verdict = verify::verify_logical(logical, VerifyPhase::PostBind).into_result();
            self.phase(Phase::Verify, started);
            if let Err(e) = verdict {
                self.record(|m| m.verify_failures.inc());
                return Err(e);
            }
        }
        Ok((logical, action))
    }
}

/// The row-finding half of UPDATE/DELETE as the optimizer sees it:
/// `SELECT * FROM t [WHERE p]`, so the access path is chosen by cost like
/// any other single-table query's, after the same constant folding.
fn bind_row_finder(info: &TableInfo, predicate: Option<&AstExpr>) -> Result<LogicalPlan> {
    let scan = LogicalPlan::Scan {
        table: info.name.clone(),
        schema: info.schema.clone(),
    };
    match predicate {
        Some(p) => rewrite_all(LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: bind_scalar(p, &info.schema)?,
        }),
        None => Ok(scan),
    }
}
