//! Logical plan nodes.
//!
//! All expressions inside a node refer to **its input's** column ordinals
//! (for joins: the concatenation left ++ right). Schemas are derived at
//! construction and cached in the node.

use std::fmt;

use evopt_common::{AggFunc, Column, DataType, EvoptError, Expr, Result, Schema};

/// One aggregate computation: `func(arg)`. `arg` is `None` only for
/// `COUNT(*)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub arg: Option<Expr>,
    /// Output column name (e.g. `count_star`, `sum_price`, or an alias).
    pub name: String,
}

/// A sort key: output-column ordinal and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub column: usize,
    pub ascending: bool,
}

/// A relational-algebra operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan. The schema snapshot is taken at bind time.
    Scan { table: String, schema: Schema },
    /// Row filter.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Expression projection.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    /// Inner join; `predicate` is over `left ++ right`. `None` means a
    /// cross product.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        predicate: Option<Expr>,
    },
    /// Grouped aggregation; output = group columns then aggregates.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    },
    /// Total-order sort.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// First-k.
    Limit {
        input: Box<LogicalPlan>,
        limit: usize,
    },
}

impl LogicalPlan {
    /// Construct a projection, deriving its schema. `names[i]` labels output
    /// column `i`; pass `None` to auto-name (`col` for plain columns,
    /// `exprN` otherwise).
    pub fn project(
        input: LogicalPlan,
        exprs: Vec<Expr>,
        names: Vec<Option<String>>,
    ) -> Result<LogicalPlan> {
        if names.len() != exprs.len() {
            return Err(EvoptError::Plan(
                "projection names/exprs length mismatch".into(),
            ));
        }
        let in_schema = input.schema();
        let mut cols = Vec::with_capacity(exprs.len());
        for (i, e) in exprs.iter().enumerate() {
            let dtype = e.data_type(&in_schema)?;
            let col = match (&names[i], e) {
                (Some(n), _) => Column::new(n.clone(), dtype),
                (None, Expr::Column(idx)) => in_schema
                    .column(*idx)
                    .cloned()
                    .ok_or_else(|| EvoptError::Plan(format!("bad projection ordinal {idx}")))?,
                (None, _) => Column::new(format!("expr{i}"), dtype),
            };
            cols.push(col);
        }
        Ok(LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema: Schema::new(cols),
        })
    }

    /// Construct an aggregation, deriving its schema.
    pub fn aggregate(
        input: LogicalPlan,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
    ) -> Result<LogicalPlan> {
        let in_schema = input.schema();
        let mut cols = Vec::with_capacity(group_by.len() + aggs.len());
        for &g in &group_by {
            cols.push(
                in_schema
                    .column(g)
                    .cloned()
                    .ok_or_else(|| EvoptError::Plan(format!("bad group-by ordinal {g}")))?,
            );
        }
        for a in &aggs {
            let arg_type = match &a.arg {
                Some(e) => e.data_type(&in_schema)?,
                None => DataType::Int, // COUNT(*): argument type is irrelevant
            };
            let dtype = a.func.result_type(arg_type)?;
            // Aggregate output is non-null for COUNT; others may be null on
            // empty groups, but grouped aggregation only emits non-empty
            // groups, so keep it simple: nullable unless COUNT.
            let mut col = Column::new(a.name.clone(), dtype);
            col.nullable = !matches!(a.func, AggFunc::Count | AggFunc::CountStar);
            cols.push(col);
        }
        Ok(LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by,
            aggs,
            schema: Schema::new(cols),
        })
    }

    /// The output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Join { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Number of output columns: `schema().len()` without building it.
    pub fn width(&self) -> usize {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => schema.len(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.width(),
            LogicalPlan::Join { left, right, .. } => left.width() + right.width(),
        }
    }

    /// Direct children, for generic traversals.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Names of all base tables scanned, in tree order.
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::Scan { table, .. } = p {
                out.push(table.clone());
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Indented single-plan-per-line rendering (EXPLAIN-style).
    pub fn display_indent(&self) -> String {
        let mut s = String::new();
        fn walk(p: &LogicalPlan, depth: usize, s: &mut String) {
            for _ in 0..depth {
                s.push_str("  ");
            }
            match p {
                LogicalPlan::Scan { table, .. } => {
                    s.push_str(&format!("Scan: {table}\n"));
                }
                LogicalPlan::Filter { predicate, .. } => {
                    s.push_str(&format!("Filter: {predicate}\n"));
                }
                LogicalPlan::Project { exprs, .. } => {
                    let list: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                    s.push_str(&format!("Project: {}\n", list.join(", ")));
                }
                LogicalPlan::Join { predicate, .. } => match predicate {
                    Some(p) => s.push_str(&format!("Join: {p}\n")),
                    None => s.push_str("CrossJoin\n"),
                },
                LogicalPlan::Aggregate { group_by, aggs, .. } => {
                    let alist: Vec<String> = aggs
                        .iter()
                        .map(|a| match &a.arg {
                            Some(e) => format!("{}({e})", a.func),
                            None => a.func.to_string(),
                        })
                        .collect();
                    s.push_str(&format!(
                        "Aggregate: group_by={group_by:?} aggs=[{}]\n",
                        alist.join(", ")
                    ));
                }
                LogicalPlan::Sort { keys, .. } => {
                    let klist: Vec<String> = keys
                        .iter()
                        .map(|k| format!("#{}{}", k.column, if k.ascending { "" } else { " DESC" }))
                        .collect();
                    s.push_str(&format!("Sort: {}\n", klist.join(", ")));
                }
                LogicalPlan::Limit { limit, .. } => {
                    s.push_str(&format!("Limit: {limit}\n"));
                }
            }
            for c in p.children() {
                walk(c, depth + 1, s);
            }
        }
        walk(self, 0, &mut s);
        s
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indent())
    }
}

#[cfg(test)]
pub(crate) mod test_helpers {
    use super::*;

    /// `name(c0 INT, c1 INT, c2 STR)` scan for rule tests.
    pub fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.to_owned(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int).with_table(name),
                Column::new("b", DataType::Int).with_table(name),
                Column::new("s", DataType::Str).with_table(name),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_helpers::scan;
    use super::*;
    use evopt_common::expr::{col, lit};

    #[test]
    fn join_schema_concatenates() {
        let j = LogicalPlan::Join {
            left: Box::new(scan("t")),
            right: Box::new(scan("u")),
            predicate: None,
        };
        let s = j.schema();
        assert_eq!(s.len(), 6);
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 3);
    }

    #[test]
    fn project_derives_schema_and_validates() {
        let p = LogicalPlan::project(
            scan("t"),
            vec![
                col(0),
                Expr::binary(evopt_common::BinOp::Add, col(0), col(1)),
            ],
            vec![None, Some("total".into())],
        )
        .unwrap();
        let s = p.schema();
        assert_eq!(s.column(0).unwrap().name, "a");
        assert_eq!(s.column(1).unwrap().name, "total");
        assert_eq!(s.column(1).unwrap().dtype, DataType::Int);
        // Type error propagates.
        assert!(LogicalPlan::project(
            scan("t"),
            vec![Expr::binary(evopt_common::BinOp::Add, col(0), col(2))],
            vec![None],
        )
        .is_err());
        // Arity mismatch.
        assert!(LogicalPlan::project(scan("t"), vec![col(0)], vec![]).is_err());
    }

    #[test]
    fn aggregate_derives_schema() {
        let a = LogicalPlan::aggregate(
            scan("t"),
            vec![2],
            vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(col(0)),
                    name: "avg_a".into(),
                },
            ],
        )
        .unwrap();
        let s = a.schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column(0).unwrap().name, "s");
        assert_eq!(s.column(1).unwrap().dtype, DataType::Int);
        assert_eq!(s.column(2).unwrap().dtype, DataType::Float);
        // AVG over a string is a bind error.
        assert!(LogicalPlan::aggregate(
            scan("t"),
            vec![],
            vec![AggExpr {
                func: AggFunc::Avg,
                arg: Some(col(2)),
                name: "x".into()
            }],
        )
        .is_err());
    }

    #[test]
    fn tables_and_node_count() {
        let j = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Filter {
                input: Box::new(scan("t")),
                predicate: Expr::eq(col(0), lit(1i64)),
            }),
            right: Box::new(scan("u")),
            predicate: Some(Expr::eq(col(0), col(3))),
        };
        assert_eq!(j.tables(), vec!["t", "u"]);
        assert_eq!(j.node_count(), 4);
    }

    #[test]
    fn display_indents() {
        let p = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan("t")),
                predicate: Expr::eq(col(0), lit(1i64)),
            }),
            limit: 10,
        };
        let out = p.to_string();
        assert!(out.contains("Limit: 10\n  Filter"));
        assert!(out.contains("    Scan: t"));
    }
}
