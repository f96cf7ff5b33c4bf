//! The binder: resolve names, type-check, and emit logical plans.
//!
//! Binding a `SELECT` proceeds in SQL's logical order: FROM (scans and
//! joins) → WHERE → GROUP BY / aggregates → HAVING → SELECT list → ORDER BY
//! → LIMIT. Aggregate queries are restricted to the classic shape: select
//! items must be group columns or aggregate calls. The finished plan goes
//! through [`rewrite_all`] once, so what the binder returns is the logical
//! plan the optimizer plans.

use evopt_common::{EvoptError, Expr, Result, Schema};
use evopt_plan::{rewrite_all, AggExpr, LogicalPlan, SortKey};

use crate::ast::*;

/// Where the binder gets table schemas from (implemented by the engine's
/// catalog; mocked in tests).
pub trait SchemaProvider {
    /// Schema of `table` (columns qualified with the table's own name).
    fn table_schema(&self, table: &str) -> Result<Schema>;
}

/// Bind a parsed SELECT into a logical plan.
pub fn bind_select(stmt: &SelectStmt, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    // ---- FROM --------------------------------------------------------
    let first = stmt
        .from_first
        .as_ref()
        .ok_or_else(|| EvoptError::Bind("SELECT without FROM is not supported".into()))?;
    let mut plan = bind_table(first, provider)?;
    for item in &stmt.from_rest {
        let right = bind_table(&item.table, provider)?;
        let combined = plan.schema().join(&right.schema());
        let predicate = match &item.on {
            Some(on) => Some(bind_scalar(on, &combined)?),
            None => None,
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            predicate,
        };
    }
    let from_schema = plan.schema();

    // ---- WHERE -------------------------------------------------------
    if let Some(w) = &stmt.where_clause {
        let predicate = bind_scalar(w, &from_schema)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // ---- aggregate or plain projection --------------------------------
    let has_aggs = stmt.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => contains_agg(expr),
        SelectItem::Wildcard => false,
    }) || stmt.having.as_ref().is_some_and(contains_agg)
        || !stmt.group_by.is_empty();

    let projected = if has_aggs {
        bind_aggregate_query(stmt, plan, &from_schema)?
    } else {
        if stmt.having.is_some() {
            return Err(EvoptError::Bind(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        bind_plain_projection(stmt, plan, &from_schema)?
    };

    // ---- DISTINCT: aggregate over every output column ------------------
    // Lowering to GROUP BY-all deliberately inherits grouping equality
    // (total order: `Null == Null`), which is SQL's DISTINCT rule — NULL
    // duplicates collapse to one row. Join-key equality (NULL never
    // matches) must NOT be used here.
    let projected = if stmt.distinct {
        let width = projected.schema().len();
        LogicalPlan::aggregate(projected, (0..width).collect(), vec![])?
    } else {
        projected
    };

    // ---- ORDER BY ------------------------------------------------------
    let out_schema = projected.schema();
    let mut plan = projected;
    if !stmt.order_by.is_empty() {
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for k in &stmt.order_by {
            let column = match &k.target {
                OrderTarget::Position(p) => {
                    if *p == 0 || *p > out_schema.len() {
                        return Err(EvoptError::Bind(format!(
                            "ORDER BY position {p} out of range (1..{})",
                            out_schema.len()
                        )));
                    }
                    p - 1
                }
                OrderTarget::Name { table, name } => out_schema.resolve(table.as_deref(), name)?,
            };
            keys.push(SortKey {
                column,
                ascending: k.ascending,
            });
        }
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    // ---- LIMIT ---------------------------------------------------------
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit: n,
        };
    }
    rewrite_all(plan)
}

fn bind_table(t: &TableRef, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    let schema = provider.table_schema(&t.name)?;
    let schema = match &t.alias {
        Some(a) => schema.with_qualifier(a),
        None => schema,
    };
    Ok(LogicalPlan::Scan {
        table: t.name.to_ascii_lowercase(),
        schema,
    })
}

/// Does the AST contain an aggregate call?
fn contains_agg(e: &AstExpr) -> bool {
    match e {
        AstExpr::AggCall { .. } => true,
        AstExpr::Ident { .. } | AstExpr::Literal(_) => false,
        AstExpr::Binary { left, right, .. } => contains_agg(left) || contains_agg(right),
        AstExpr::Unary { input, .. } => contains_agg(input),
        AstExpr::Like { input, .. } => contains_agg(input),
        AstExpr::InList { input, .. } => contains_agg(input),
        AstExpr::Between {
            input, low, high, ..
        } => contains_agg(input) || contains_agg(low) || contains_agg(high),
    }
}

/// Bind a scalar (non-aggregate) expression against `schema`. Also the
/// whole binder for DML: UPDATE/DELETE predicates and SET expressions bind
/// against the target table's row schema, INSERT values against the empty
/// schema (so any column reference fails to resolve).
pub fn bind_scalar(e: &AstExpr, schema: &Schema) -> Result<Expr> {
    match e {
        AstExpr::Ident { table, name } => {
            let idx = schema.resolve(table.as_deref(), name)?;
            Ok(Expr::Column(idx))
        }
        AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_scalar(left, schema)?),
            right: Box::new(bind_scalar(right, schema)?),
        }),
        AstExpr::Unary { op, input } => Ok(Expr::Unary {
            op: *op,
            input: Box::new(bind_scalar(input, schema)?),
        }),
        AstExpr::Like {
            input,
            pattern,
            negated,
        } => Ok(Expr::Like {
            input: Box::new(bind_scalar(input, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        AstExpr::InList {
            input,
            list,
            negated,
        } => Ok(Expr::InList {
            input: Box::new(bind_scalar(input, schema)?),
            list: list.clone(),
            negated: *negated,
        }),
        AstExpr::Between {
            input,
            low,
            high,
            negated,
        } => Ok(Expr::Between {
            input: Box::new(bind_scalar(input, schema)?),
            low: Box::new(bind_scalar(low, schema)?),
            high: Box::new(bind_scalar(high, schema)?),
            negated: *negated,
        }),
        AstExpr::AggCall { func, .. } => Err(EvoptError::Bind(format!(
            "aggregate {func} is not allowed here"
        ))),
    }
}

fn bind_plain_projection(
    stmt: &SelectStmt,
    input: LogicalPlan,
    from_schema: &Schema,
) -> Result<LogicalPlan> {
    let mut exprs = Vec::new();
    let mut names: Vec<Option<String>> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for i in 0..from_schema.len() {
                    exprs.push(Expr::Column(i));
                    names.push(None);
                }
            }
            SelectItem::Expr { expr, alias } => {
                exprs.push(bind_scalar(expr, from_schema)?);
                names.push(alias.clone());
            }
        }
    }
    LogicalPlan::project(input, exprs, names)
}

/// Bind `GROUP BY` + aggregates: Aggregate → (HAVING filter) → Project.
fn bind_aggregate_query(
    stmt: &SelectStmt,
    input: LogicalPlan,
    from_schema: &Schema,
) -> Result<LogicalPlan> {
    // Group columns must be plain column references.
    let mut group_cols: Vec<usize> = Vec::new();
    let mut group_asts: Vec<AstExpr> = Vec::new();
    for g in &stmt.group_by {
        match bind_scalar(g, from_schema)? {
            Expr::Column(i) => {
                group_cols.push(i);
                group_asts.push(g.clone());
            }
            _ => {
                return Err(EvoptError::Bind(
                    "GROUP BY supports only plain columns".into(),
                ))
            }
        }
    }

    // Collect aggregate calls (select list order, then HAVING).
    let mut agg_asts: Vec<AstExpr> = Vec::new();
    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut collect = |e: &AstExpr, alias: Option<&str>| -> Result<()> {
        collect_aggs(e, from_schema, alias, &mut agg_asts, &mut aggs)
    };
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                return Err(EvoptError::Bind(
                    "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => collect(expr, alias.as_deref())?,
        }
    }
    if let Some(h) = &stmt.having {
        collect(h, None)?;
    }

    let agg_plan = LogicalPlan::aggregate(input, group_cols.clone(), aggs)?;

    // HAVING over the aggregate output.
    let mut plan = agg_plan;
    if let Some(h) = &stmt.having {
        let predicate = rebind_over_agg(h, &group_asts, &agg_asts, from_schema)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // SELECT list over the aggregate output.
    let mut exprs = Vec::new();
    let mut names: Vec<Option<String>> = Vec::new();
    for item in &stmt.items {
        if let SelectItem::Expr { expr, alias } = item {
            exprs.push(rebind_over_agg(expr, &group_asts, &agg_asts, from_schema)?);
            // No alias: let the projection inherit the aggregate-output
            // column (keeping any table qualifier, so `ORDER BY d.name`
            // still resolves).
            names.push(alias.clone());
        }
    }
    LogicalPlan::project(plan, exprs, names)
}

/// Register the aggregate calls inside `e` (depth-first).
#[allow(clippy::only_used_in_recursion)] // schema threads to bind_scalar at the leaves
fn collect_aggs(
    e: &AstExpr,
    from_schema: &Schema,
    alias: Option<&str>,
    agg_asts: &mut Vec<AstExpr>,
    aggs: &mut Vec<AggExpr>,
) -> Result<()> {
    match e {
        AstExpr::AggCall { func, arg } => {
            if agg_asts.contains(e) {
                return Ok(()); // same aggregate referenced twice
            }
            let bound_arg = match arg {
                Some(a) => {
                    if contains_agg(a) {
                        return Err(EvoptError::Bind("nested aggregates are not allowed".into()));
                    }
                    Some(bind_scalar(a, from_schema)?)
                }
                None => None,
            };
            let name = alias.map(str::to_owned).unwrap_or_else(|| {
                format!(
                    "{}_{}",
                    func.name().to_lowercase().replace("(*)", "_star"),
                    aggs.len()
                )
            });
            agg_asts.push(e.clone());
            aggs.push(AggExpr {
                func: *func,
                arg: bound_arg,
                name,
            });
            Ok(())
        }
        AstExpr::Ident { .. } | AstExpr::Literal(_) => Ok(()),
        AstExpr::Binary { left, right, .. } => {
            collect_aggs(left, from_schema, None, agg_asts, aggs)?;
            collect_aggs(right, from_schema, None, agg_asts, aggs)
        }
        AstExpr::Unary { input, .. } => collect_aggs(input, from_schema, None, agg_asts, aggs),
        AstExpr::Like { input, .. } => collect_aggs(input, from_schema, None, agg_asts, aggs),
        AstExpr::InList { input, .. } => collect_aggs(input, from_schema, None, agg_asts, aggs),
        AstExpr::Between {
            input, low, high, ..
        } => {
            collect_aggs(input, from_schema, None, agg_asts, aggs)?;
            collect_aggs(low, from_schema, None, agg_asts, aggs)?;
            collect_aggs(high, from_schema, None, agg_asts, aggs)
        }
    }
}

/// Rewrite an expression over the aggregate output: group columns map to
/// their output position, aggregate calls to theirs; anything else that
/// reads base columns is an error.
#[allow(clippy::only_used_in_recursion)] // schema kept for error context
fn rebind_over_agg(
    e: &AstExpr,
    group_asts: &[AstExpr],
    agg_asts: &[AstExpr],
    from_schema: &Schema,
) -> Result<Expr> {
    // Group expression match (structural)?
    if let Some(pos) = group_asts.iter().position(|g| ast_equivalent(g, e)) {
        return Ok(Expr::Column(pos));
    }
    if let Some(pos) = agg_asts.iter().position(|a| a == e) {
        return Ok(Expr::Column(group_asts.len() + pos));
    }
    match e {
        AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(rebind_over_agg(left, group_asts, agg_asts, from_schema)?),
            right: Box::new(rebind_over_agg(right, group_asts, agg_asts, from_schema)?),
        }),
        AstExpr::Unary { op, input } => Ok(Expr::Unary {
            op: *op,
            input: Box::new(rebind_over_agg(input, group_asts, agg_asts, from_schema)?),
        }),
        AstExpr::Like {
            input,
            pattern,
            negated,
        } => Ok(Expr::Like {
            input: Box::new(rebind_over_agg(input, group_asts, agg_asts, from_schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        AstExpr::InList {
            input,
            list,
            negated,
        } => Ok(Expr::InList {
            input: Box::new(rebind_over_agg(input, group_asts, agg_asts, from_schema)?),
            list: list.clone(),
            negated: *negated,
        }),
        AstExpr::Between {
            input,
            low,
            high,
            negated,
        } => Ok(Expr::Between {
            input: Box::new(rebind_over_agg(input, group_asts, agg_asts, from_schema)?),
            low: Box::new(rebind_over_agg(low, group_asts, agg_asts, from_schema)?),
            high: Box::new(rebind_over_agg(high, group_asts, agg_asts, from_schema)?),
            negated: *negated,
        }),
        AstExpr::Ident { table, name } => Err(EvoptError::Bind(format!(
            "column '{}' must appear in GROUP BY or inside an aggregate",
            match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            }
        ))),
        AstExpr::AggCall { .. } => Err(EvoptError::Internal("aggregate not collected".into())),
    }
}

/// Structural equivalence for group-expression matching. Idents compare by
/// (optional) qualifier loosely: `region` matches `t.region` when the bare
/// name is unambiguous in context — we approximate by comparing names and
/// letting resolution handle ambiguity at bind time.
fn ast_equivalent(a: &AstExpr, b: &AstExpr) -> bool {
    match (a, b) {
        (
            AstExpr::Ident {
                name: n1,
                table: t1,
            },
            AstExpr::Ident {
                name: n2,
                table: t2,
            },
        ) => {
            n1.eq_ignore_ascii_case(n2)
                && match (t1, t2) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    _ => true, // one side unqualified: match by name
                }
        }
        _ => a == b,
    }
}

/// Helper so the engine can expose its catalog as a provider without a
/// newtype at every call site.
impl<F> SchemaProvider for F
where
    F: Fn(&str) -> Result<Schema>,
{
    fn table_schema(&self, table: &str) -> Result<Schema> {
        self(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use evopt_common::{Column, DataType, UnOp};

    fn provider() -> impl SchemaProvider {
        |table: &str| -> Result<Schema> {
            match table {
                "t" => Ok(Schema::new(vec![
                    Column::new("a", DataType::Int).with_table("t"),
                    Column::new("b", DataType::Int).with_table("t"),
                    Column::new("s", DataType::Str).with_table("t"),
                ])),
                "u" => Ok(Schema::new(vec![
                    Column::new("a", DataType::Int).with_table("u"),
                    Column::new("x", DataType::Float).with_table("u"),
                ])),
                other => Err(EvoptError::Catalog(format!("unknown table '{other}'"))),
            }
        }
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        match parse(sql)? {
            Statement::Select(s) => bind_select(&s, &provider()),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select_star() {
        let p = bind("SELECT * FROM t").unwrap();
        assert_eq!(p.schema().len(), 3);
        assert!(matches!(p, LogicalPlan::Project { .. }));
    }

    #[test]
    fn where_and_projection() {
        let p = bind("SELECT a, b + 1 AS b1 FROM t WHERE s = 'x'").unwrap();
        let s = p.schema();
        assert_eq!(s.column(0).unwrap().name, "a");
        assert_eq!(s.column(1).unwrap().name, "b1");
        assert_eq!(s.column(1).unwrap().dtype, DataType::Int);
        assert!(p.to_string().contains("Filter"));
    }

    #[test]
    fn join_with_alias_resolution() {
        let p = bind("SELECT t1.a, t2.x FROM t AS t1 JOIN u AS t2 ON t1.a = t2.a").unwrap();
        assert_eq!(p.schema().len(), 2);
        // Underneath: Join with bound predicate over combined ordinals.
        fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
            match p {
                LogicalPlan::Join { .. } => Some(p),
                _ => p.children().first().and_then(|c| find_join(c)),
            }
        }
        match find_join(&p).unwrap() {
            LogicalPlan::Join { predicate, .. } => {
                assert_eq!(predicate, &Some(Expr::eq(Expr::Column(0), Expr::Column(3))));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn comma_join_is_cross() {
        let p = bind("SELECT * FROM t, u").unwrap();
        assert!(p.to_string().contains("CrossJoin"));
        assert_eq!(p.schema().len(), 5);
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let e = bind("SELECT a FROM t, u").unwrap_err();
        assert!(e.message().contains("ambiguous"));
        let e = bind("SELECT nope FROM t").unwrap_err();
        assert_eq!(e.kind(), "bind");
        let e = bind("SELECT a FROM missing").unwrap_err();
        assert_eq!(e.kind(), "catalog");
    }

    #[test]
    fn aggregate_query_shape() {
        let p = bind(
            "SELECT s, COUNT(*) AS n, SUM(a) AS total FROM t \
             GROUP BY s HAVING COUNT(*) > 2",
        )
        .unwrap();
        let schema = p.schema();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.column(1).unwrap().name, "n");
        assert_eq!(schema.column(2).unwrap().name, "total");
        let text = p.to_string();
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("Filter"), "having became a filter: {text}");
    }

    #[test]
    fn global_aggregate_without_group() {
        let p = bind("SELECT COUNT(*), AVG(a) FROM t").unwrap();
        assert_eq!(p.schema().len(), 2);
        assert_eq!(p.schema().column(1).unwrap().dtype, DataType::Float);
    }

    #[test]
    fn group_by_errors() {
        assert!(bind("SELECT a FROM t GROUP BY s").is_err(), "a not grouped");
        assert!(bind("SELECT s, COUNT(*) FROM t GROUP BY a + 1").is_err());
        assert!(bind("SELECT * FROM t GROUP BY s").is_err());
        assert!(bind("SELECT SUM(COUNT(*)) FROM t").is_err(), "nested aggs");
        assert!(
            bind("SELECT a FROM t HAVING a > 1").is_err(),
            "having w/o group"
        );
        assert!(
            bind("SELECT a FROM t WHERE COUNT(*) > 1").is_err(),
            "agg in where"
        );
    }

    #[test]
    fn order_by_name_position_and_alias() {
        let p = bind("SELECT a, b AS bee FROM t ORDER BY bee DESC, 1").unwrap();
        match &p {
            LogicalPlan::Sort { keys, .. } => {
                assert_eq!(
                    keys,
                    &vec![
                        SortKey {
                            column: 1,
                            ascending: false
                        },
                        SortKey {
                            column: 0,
                            ascending: true
                        }
                    ]
                );
            }
            other => panic!("expected sort at root, got {other}"),
        }
        assert!(bind("SELECT a FROM t ORDER BY 5").is_err());
        assert!(bind("SELECT a FROM t ORDER BY nope").is_err());
    }

    #[test]
    fn distinct_becomes_group_by_all() {
        let p = bind("SELECT DISTINCT b FROM t ORDER BY b").unwrap();
        assert_eq!(p.schema().len(), 1);
        fn has_agg_no_fns(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Aggregate { group_by, aggs, .. } => {
                    group_by.len() == 1 && aggs.is_empty()
                }
                _ => p.children().iter().any(|c| has_agg_no_fns(c)),
            }
        }
        assert!(has_agg_no_fns(&p), "{p}");
    }

    #[test]
    fn limit_at_root() {
        let p = bind("SELECT a FROM t LIMIT 7").unwrap();
        assert!(matches!(p, LogicalPlan::Limit { limit: 7, .. }));
    }

    #[test]
    fn select_without_from_rejected() {
        let e = bind("SELECT 1").unwrap_err();
        assert!(e.message().contains("without FROM"));
    }

    #[test]
    fn aggregate_in_having_only() {
        let p = bind("SELECT s FROM t GROUP BY s HAVING SUM(a) > 10").unwrap();
        assert_eq!(p.schema().len(), 1);
        let text = p.to_string();
        assert!(text.contains("Aggregate"));
    }

    #[test]
    fn same_aggregate_twice_binds_once() {
        let p = bind("SELECT COUNT(*), COUNT(*) FROM t").unwrap();
        assert_eq!(p.schema().len(), 2);
        fn agg_count(p: &LogicalPlan) -> usize {
            match p {
                LogicalPlan::Aggregate { aggs, .. } => aggs.len(),
                _ => p.children().iter().map(|c| agg_count(c)).sum(),
            }
        }
        assert_eq!(agg_count(&p), 1);
    }

    #[test]
    fn is_null_binds() {
        let p = bind("SELECT a FROM t WHERE s IS NOT NULL").unwrap();
        fn has_isnotnull(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Filter { predicate, .. } => {
                    matches!(
                        predicate,
                        Expr::Unary {
                            op: UnOp::IsNotNull,
                            ..
                        }
                    )
                }
                _ => p.children().iter().any(|c| has_isnotnull(c)),
            }
        }
        assert!(has_isnotnull(&p));
    }
}
