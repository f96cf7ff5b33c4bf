//! Static plan verification: a compiler-IR-style checker for logical and
//! physical plans.
//!
//! Every optimizer phase can hand its output to this module and get back a
//! structured [`VerifyReport`] instead of letting a malformed plan reach the
//! executor (where it would surface as a wrong answer or a runtime panic).
//! The rules mirror what Postgres' plan tree invariants and Calcite's
//! `RelValidityChecker` enforce:
//!
//! * **schema propagation** — every column reference in filters, projections,
//!   join keys and aggregate inputs resolves against the child's output
//!   schema with a matching type, and every operator's declared schema is
//!   the one its children actually produce;
//! * **physical-property obligations** — merge-join inputs carry the
//!   required sort order (derived *structurally*, never trusted from
//!   annotations), index scans name an index that exists in the catalog
//!   with a compatible key type, hash-join build/probe key types unify,
//!   block/Grace parameters are sane;
//! * **cardinality/cost sanity** — estimates are finite and non-negative,
//!   and monotone where the model demands it (filter output ≤ input,
//!   limit output ≤ limit, cumulative cost ≥ the inputs it includes);
//! * **SQL-level lints** ([`lint_logical`]) — contradictory predicates,
//!   accidental cross products, unused projected columns. Lints are
//!   warnings, not errors: the plan is well-formed, the query is suspect.
//!
//! Verification never panics: every violation becomes a [`VerifyIssue`] and
//! [`VerifyReport::into_result`] folds them into one [`EvoptError::Plan`].
//! The optimizer runs these checks after every phase in debug builds and
//! when [`crate::OptimizerConfig::verify`] is set (the engine's post-bind
//! check reads the same flag); `EXPLAIN VERIFY` surfaces the same reports —
//! plus the lints — to SQL users.

use std::fmt;
use std::ops::Bound;

use evopt_catalog::Catalog;
use evopt_common::{DataType, EvoptError, Expr, Result, Schema, Value};
use evopt_plan::join_graph::JoinGraph;
use evopt_plan::LogicalPlan;

use crate::physical::{scan_ordinal, PhysAgg, PhysOp, PhysicalPlan};

/// Relative slack for row-count monotonicity checks (estimates are floats
/// built from products of selectivities; exact comparisons would flag
/// rounding noise).
const REL_EPS: f64 = 1.01;
/// Absolute slack: the enumerator floors intermediate cardinalities at
/// `1e-6`, which can exceed a genuinely-zero input estimate.
const ABS_EPS: f64 = 1e-3;

/// Which optimizer phase produced the plan being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPhase {
    /// The bound logical plan, straight out of the binder (its rewrites
    /// included): the plan the optimizer plans.
    PostBind,
    /// A physical subplan as join enumeration finalised it.
    PostEnumeration,
    /// The complete physical plan the optimizer returns.
    PostPhysical,
}

impl VerifyPhase {
    pub fn name(self) -> &'static str {
        match self {
            VerifyPhase::PostBind => "post-bind",
            VerifyPhase::PostEnumeration => "post-enumeration",
            VerifyPhase::PostPhysical => "post-physical",
        }
    }
}

impl fmt::Display for VerifyPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation, attached to the node (pre-order id + operator name)
/// where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyIssue {
    /// Stable rule code, e.g. `schema/propagation`, `order/merge-input`.
    pub rule: &'static str,
    /// `#<pre-order id> <OpName>` of the offending node.
    pub node: String,
    pub message: String,
}

impl fmt::Display for VerifyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.node, self.message)
    }
}

/// The outcome of verifying one plan at one phase.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    pub phase: VerifyPhase,
    /// Operators walked.
    pub nodes_checked: usize,
    pub issues: Vec<VerifyIssue>,
}

impl VerifyReport {
    pub fn ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// `Ok(())` when clean; otherwise one [`EvoptError::Plan`] carrying
    /// every issue. Verification never panics — a corrupt plan is data,
    /// not a programming error in the caller.
    pub fn into_result(self) -> Result<()> {
        if self.issues.is_empty() {
            return Ok(());
        }
        let list: Vec<String> = self.issues.iter().map(|i| i.to_string()).collect();
        Err(EvoptError::Plan(format!(
            "plan verification failed at {} ({} issue{}): {}",
            self.phase,
            self.issues.len(),
            if self.issues.len() == 1 { "" } else { "s" },
            list.join("; ")
        )))
    }

    /// Multi-line rendering for `EXPLAIN VERIFY`.
    pub fn render(&self) -> String {
        if self.issues.is_empty() {
            return format!("{}: ok ({} nodes)\n", self.phase, self.nodes_checked);
        }
        let mut s = format!(
            "{}: {} issue(s) over {} nodes\n",
            self.phase,
            self.issues.len(),
            self.nodes_checked
        );
        for i in &self.issues {
            s.push_str(&format!("  {i}\n"));
        }
        s
    }
}

/// A SQL-level lint: the plan is valid, the query is probably not what the
/// author meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable code: `contradiction`, `cross-product`, `unused-column`.
    pub code: &'static str,
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

// ---------------------------------------------------------------------------
// Logical-plan verification
// ---------------------------------------------------------------------------

/// Check a bound logical plan: column references in range, predicates
/// boolean-typed, projection/aggregate schemas consistent with their
/// expressions.
pub fn verify_logical(plan: &LogicalPlan, phase: VerifyPhase) -> VerifyReport {
    let mut v = Verifier::new(phase);
    v.walk_logical(plan);
    v.finish()
}

/// Check a physical plan. With a catalog, scans are validated against table
/// schemas and index metadata, and sort-order obligations (merge join,
/// streaming aggregate) are enforced structurally; without one, the
/// catalog-dependent rules are skipped.
pub fn verify_physical(
    plan: &PhysicalPlan,
    catalog: Option<&Catalog>,
    phase: VerifyPhase,
) -> VerifyReport {
    let mut v = Verifier::new(phase);
    v.catalog = catalog;
    v.walk_physical(plan);
    v.finish()
}

struct Verifier<'a> {
    phase: VerifyPhase,
    catalog: Option<&'a Catalog>,
    next_id: usize,
    nodes: usize,
    issues: Vec<VerifyIssue>,
}

impl<'a> Verifier<'a> {
    fn new(phase: VerifyPhase) -> Self {
        Verifier {
            phase,
            catalog: None,
            next_id: 0,
            nodes: 0,
            issues: Vec::new(),
        }
    }

    fn finish(self) -> VerifyReport {
        VerifyReport {
            phase: self.phase,
            nodes_checked: self.nodes,
            issues: self.issues,
        }
    }

    fn issue(&mut self, rule: &'static str, id: usize, op: &str, message: String) {
        self.issues.push(VerifyIssue {
            rule,
            node: format!("#{id} {op}"),
            message,
        });
    }

    /// Type-check `e` against `schema`, demanding an exact result type when
    /// `want` is given. Any failure (unresolvable column, operand mismatch)
    /// becomes an issue.
    fn check_expr(
        &mut self,
        e: &Expr,
        schema: &Schema,
        want: Option<DataType>,
        what: &str,
        id: usize,
        op: &str,
    ) {
        // Bounds first: data_type reports ordinal errors too, but a
        // dedicated pass gives the mutation harness a precise rule code.
        for c in e.referenced_columns() {
            if c >= schema.len() {
                self.issue(
                    "schema/column-ref",
                    id,
                    op,
                    format!(
                        "{what} references column #{c}, but the input has only {} columns",
                        schema.len()
                    ),
                );
                return;
            }
        }
        match e.data_type(schema) {
            Ok(t) => {
                if let Some(w) = want {
                    if t != w {
                        self.issue(
                            "expr/type",
                            id,
                            op,
                            format!("{what} must be {w}, got {t} ({e})"),
                        );
                    }
                }
            }
            Err(err) => self.issue(
                "expr/type",
                id,
                op,
                format!("{what} does not type-check: {}", err.message()),
            ),
        }
    }

    /// Declared schema must carry exactly the child-derived column types.
    /// Names and qualifiers may differ (aliasing renames them legally);
    /// arity and types may not.
    fn check_types(
        &mut self,
        declared: &Schema,
        derived: &[DataType],
        what: &str,
        id: usize,
        op: &str,
    ) {
        let have = declared.types();
        if have != derived {
            self.issue(
                "schema/propagation",
                id,
                op,
                format!("declared schema types {have:?} != {what} {derived:?}"),
            );
        }
    }

    // -- logical ------------------------------------------------------------

    fn walk_logical(&mut self, plan: &LogicalPlan) {
        let id = self.next_id;
        self.next_id += 1;
        self.nodes += 1;
        match plan {
            LogicalPlan::Scan { table, schema } => {
                if let Some(cat) = self.catalog {
                    match cat.table(table) {
                        Ok(info) => self.check_types(
                            schema,
                            &info.schema.types(),
                            "catalog table types",
                            id,
                            "Scan",
                        ),
                        Err(_) => self.issue(
                            "catalog/table",
                            id,
                            "Scan",
                            format!("table '{table}' does not exist"),
                        ),
                    }
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                self.check_expr(
                    predicate,
                    &input.schema(),
                    Some(DataType::Bool),
                    "filter predicate",
                    id,
                    "Filter",
                );
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                if exprs.len() != schema.len() {
                    self.issue(
                        "schema/arity",
                        id,
                        "Project",
                        format!(
                            "{} expressions but {} output columns",
                            exprs.len(),
                            schema.len()
                        ),
                    );
                }
                let in_schema = input.schema();
                for (i, e) in exprs.iter().enumerate() {
                    let want = schema.column(i).map(|c| c.dtype);
                    self.check_expr(
                        e,
                        &in_schema,
                        want,
                        &format!("projection #{i}"),
                        id,
                        "Project",
                    );
                }
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
            } => {
                if let Some(p) = predicate {
                    let combined = left.schema().join(&right.schema());
                    self.check_expr(
                        p,
                        &combined,
                        Some(DataType::Bool),
                        "join predicate",
                        id,
                        "Join",
                    );
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                let in_schema = input.schema();
                for &g in group_by {
                    if g >= in_schema.len() {
                        self.issue(
                            "schema/column-ref",
                            id,
                            "Aggregate",
                            format!(
                                "group-by column #{g} out of range (input has {})",
                                in_schema.len()
                            ),
                        );
                    }
                }
                let mut derived: Vec<DataType> = group_by
                    .iter()
                    .filter_map(|&g| in_schema.column(g).map(|c| c.dtype))
                    .collect();
                for (i, a) in aggs.iter().enumerate() {
                    let arg_type = match &a.arg {
                        Some(e) => {
                            self.check_expr(
                                e,
                                &in_schema,
                                None,
                                &format!("aggregate #{i} input"),
                                id,
                                "Aggregate",
                            );
                            e.data_type(&in_schema).ok()
                        }
                        None => None,
                    };
                    match a.func.result_type(arg_type.unwrap_or(DataType::Int)) {
                        Ok(t) => derived.push(t),
                        Err(err) => self.issue(
                            "expr/agg-input",
                            id,
                            "Aggregate",
                            format!("aggregate #{i}: {}", err.message()),
                        ),
                    }
                }
                if derived.len() == schema.len() {
                    self.check_types(schema, &derived, "derived aggregate types", id, "Aggregate");
                } else if self.issues.is_empty() {
                    self.issue(
                        "schema/arity",
                        id,
                        "Aggregate",
                        format!(
                            "schema has {} columns, group-by + aggregates produce {}",
                            schema.len(),
                            derived.len()
                        ),
                    );
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let n = input.schema().len();
                for k in keys {
                    if k.column >= n {
                        self.issue(
                            "schema/column-ref",
                            id,
                            "Sort",
                            format!("sort key #{} out of range (input has {n})", k.column),
                        );
                    }
                }
            }
            LogicalPlan::Limit { .. } => {}
        }
        for c in plan.children() {
            self.walk_logical(c);
        }
    }

    // -- physical -----------------------------------------------------------

    fn walk_physical(&mut self, plan: &PhysicalPlan) {
        let id = self.next_id;
        self.next_id += 1;
        self.nodes += 1;
        let op = plan.op_name();

        self.check_estimates(plan, id, op);
        self.check_physical_schema(plan, id, op);
        self.check_physical_props(plan, id, op);

        for c in plan.children() {
            self.walk_physical(c);
        }
    }

    /// Rule group 3: cardinality and cost sanity.
    fn check_estimates(&mut self, plan: &PhysicalPlan, id: usize, op: &str) {
        if !plan.est_rows.is_finite() || plan.est_rows < 0.0 {
            self.issue(
                "est/rows",
                id,
                op,
                format!(
                    "row estimate {} is not a finite non-negative number",
                    plan.est_rows
                ),
            );
        }
        let total = plan.est_cost.io + plan.est_cost.cpu;
        if !total.is_finite() || plan.est_cost.io < 0.0 || plan.est_cost.cpu < 0.0 {
            self.issue(
                "est/cost",
                id,
                op,
                format!(
                    "cost (io={}, cpu={}) is not finite and non-negative",
                    plan.est_cost.io, plan.est_cost.cpu
                ),
            );
            return;
        }
        // Cumulative cost covers the inputs whose cost the model folded in.
        // Tuple nested loops re-runs the inner per outer row, so its cost
        // formula owns the inner; only the outer/left subtree is additive.
        let must_cover: Vec<&PhysicalPlan> = match &plan.op {
            PhysOp::NestedLoopJoin { left, .. } => vec![left],
            PhysOp::IndexNestedLoopJoin { outer, .. } => vec![outer],
            PhysOp::BlockNestedLoopJoin { left, right, .. }
            | PhysOp::SortMergeJoin { left, right, .. }
            | PhysOp::HashJoin { left, right, .. } => vec![left, right],
            _ => plan.children(),
        };
        for child in must_cover {
            let child_total = child.est_cost.io + child.est_cost.cpu;
            if child_total.is_finite() && total < child_total - ABS_EPS {
                self.issue(
                    "est/cost-monotone",
                    id,
                    op,
                    format!("cumulative cost {total:.3} is below its input's {child_total:.3}"),
                );
            }
        }
        match &plan.op {
            PhysOp::Filter { input, .. } if plan.est_rows > input.est_rows * REL_EPS + ABS_EPS => {
                self.issue(
                    "est/filter-monotone",
                    id,
                    op,
                    format!(
                        "filter output estimate {} exceeds input estimate {}",
                        plan.est_rows, input.est_rows
                    ),
                );
            }
            PhysOp::Limit { limit, .. } if plan.est_rows > *limit as f64 * REL_EPS + ABS_EPS => {
                self.issue(
                    "est/limit",
                    id,
                    op,
                    format!("estimate {} exceeds the limit {limit}", plan.est_rows),
                );
            }
            _ => {}
        }
    }

    /// Rule group 1: schema propagation + expression typing, per operator.
    fn check_physical_schema(&mut self, plan: &PhysicalPlan, id: usize, op: &str) {
        match &plan.op {
            PhysOp::SeqScan {
                table,
                cols,
                filter,
            } => {
                if let Some(f) = filter {
                    self.check_expr(f, &plan.schema, Some(DataType::Bool), "scan filter", id, op);
                }
                self.check_scan_columns(plan, table, cols.as_deref(), None, id, op);
            }
            PhysOp::IndexScan {
                table,
                index,
                cols,
                residual,
                ..
            } => {
                if let Some(r) = residual {
                    self.check_expr(r, &plan.schema, Some(DataType::Bool), "residual", id, op);
                }
                self.check_scan_columns(plan, table, cols.as_deref(), Some(index), id, op);
            }
            PhysOp::Filter { input, predicate } => {
                self.check_types(&plan.schema, &input.schema.types(), "input types", id, op);
                self.check_expr(
                    predicate,
                    &input.schema,
                    Some(DataType::Bool),
                    "filter predicate",
                    id,
                    op,
                );
            }
            PhysOp::Project { input, exprs } => {
                if exprs.len() != plan.schema.len() {
                    self.issue(
                        "schema/arity",
                        id,
                        op,
                        format!(
                            "{} expressions but {} output columns",
                            exprs.len(),
                            plan.schema.len()
                        ),
                    );
                    return;
                }
                for (i, e) in exprs.iter().enumerate() {
                    let want = plan.schema.column(i).map(|c| c.dtype);
                    self.check_expr(e, &input.schema, want, &format!("projection #{i}"), id, op);
                }
            }
            PhysOp::NestedLoopJoin {
                left,
                right,
                predicate,
            }
            | PhysOp::BlockNestedLoopJoin {
                left,
                right,
                predicate,
                ..
            } => {
                let derived: Vec<DataType> = left
                    .schema
                    .types()
                    .into_iter()
                    .chain(right.schema.types())
                    .collect();
                self.check_types(&plan.schema, &derived, "left ++ right types", id, op);
                if let Some(p) = predicate {
                    let combined = left.schema.join(&right.schema);
                    self.check_expr(p, &combined, Some(DataType::Bool), "join predicate", id, op);
                }
            }
            PhysOp::SortMergeJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            }
            | PhysOp::HashJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let derived: Vec<DataType> = left
                    .schema
                    .types()
                    .into_iter()
                    .chain(right.schema.types())
                    .collect();
                self.check_types(&plan.schema, &derived, "left ++ right types", id, op);
                let lk = left.schema.column(*left_key).map(|c| c.dtype);
                let rk = right.schema.column(*right_key).map(|c| c.dtype);
                match (lk, rk) {
                    (None, _) => self.issue(
                        "schema/column-ref",
                        id,
                        op,
                        format!(
                            "left key #{left_key} out of range (left has {} columns)",
                            left.schema.len()
                        ),
                    ),
                    (_, None) => self.issue(
                        "schema/column-ref",
                        id,
                        op,
                        format!(
                            "right key #{right_key} out of range (right has {} columns)",
                            right.schema.len()
                        ),
                    ),
                    (Some(a), Some(b)) => {
                        if a.unify(b).is_none() {
                            self.issue(
                                "key/type",
                                id,
                                op,
                                format!("join key types {a} and {b} are not comparable"),
                            );
                        }
                    }
                }
                if let Some(r) = residual {
                    let combined = left.schema.join(&right.schema);
                    self.check_expr(r, &combined, Some(DataType::Bool), "residual", id, op);
                }
            }
            PhysOp::IndexNestedLoopJoin {
                outer,
                residual,
                outer_key,
                ..
            } => {
                if *outer_key >= outer.schema.len() {
                    self.issue(
                        "schema/column-ref",
                        id,
                        op,
                        format!(
                            "probe key #{outer_key} out of range (outer has {} columns)",
                            outer.schema.len()
                        ),
                    );
                }
                // Output = outer ++ inner-table columns; the outer prefix is
                // checkable without a catalog.
                let out = plan.schema.types();
                let prefix = outer.schema.types();
                if out.len() < prefix.len() || out[..prefix.len()] != prefix[..] {
                    self.issue(
                        "schema/propagation",
                        id,
                        op,
                        format!(
                            "output schema does not start with the outer's types \
                             (outer {prefix:?}, output {out:?})"
                        ),
                    );
                } else if let Some(r) = residual {
                    self.check_expr(r, &plan.schema, Some(DataType::Bool), "residual", id, op);
                }
            }
            PhysOp::Sort { input, keys } => {
                self.check_types(&plan.schema, &input.schema.types(), "input types", id, op);
                for (k, _) in keys {
                    if *k >= input.schema.len() {
                        self.issue(
                            "schema/column-ref",
                            id,
                            op,
                            format!(
                                "sort key #{k} out of range (input has {} columns)",
                                input.schema.len()
                            ),
                        );
                    }
                }
            }
            PhysOp::HashAggregate {
                input,
                group_by,
                aggs,
            }
            | PhysOp::SortAggregate {
                input,
                group_by,
                aggs,
            } => {
                self.check_aggregate(plan, input, group_by, aggs, id, op);
            }
            PhysOp::Limit { input, .. } => {
                self.check_types(&plan.schema, &input.schema.types(), "input types", id, op);
            }
        }
    }

    /// A scan's output is the catalog's columns at `cols` (every column for
    /// `None`), by name and type. `cols` is strictly increasing and in
    /// range, and an index scan's includes the indexed column, which the
    /// scan re-checks each fetched row against.
    fn check_scan_columns(
        &mut self,
        plan: &PhysicalPlan,
        table: &str,
        cols: Option<&[usize]>,
        index: Option<&str>,
        id: usize,
        op: &str,
    ) {
        if let Some(cols) = cols {
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                self.issue(
                    "scan/cols",
                    id,
                    op,
                    format!("projection {cols:?} is not strictly increasing"),
                );
                return;
            }
        }
        let Some(info) = self.catalog.and_then(|c| c.table(table).ok()) else {
            return;
        };
        let width = info.schema.len();
        let all: Vec<usize>;
        let cols = match cols {
            Some(cols) => cols,
            None => {
                all = (0..width).collect();
                &all
            }
        };
        if let Some(&c) = cols.iter().find(|&&c| c >= width) {
            self.issue(
                "scan/cols",
                id,
                op,
                format!("projection names column #{c}, but '{table}' has {width}"),
            );
            return;
        }
        let key = index.and_then(|name| info.indexes().iter().find(|i| i.name == name));
        if let Some(key) = key.filter(|k| !cols.contains(&k.column)) {
            self.issue(
                "scan/cols",
                id,
                op,
                format!(
                    "projection {cols:?} lacks column #{}, the key of index '{}'",
                    key.column, key.name
                ),
            );
        }
        let want: Vec<_> = cols
            .iter()
            .filter_map(|&c| info.schema.column(c))
            .map(|c| (c.name.as_str(), c.dtype))
            .collect();
        let have: Vec<_> = (plan.schema.columns().iter())
            .map(|c| (c.name.as_str(), c.dtype))
            .collect();
        if have != want {
            self.issue(
                "schema/propagation",
                id,
                op,
                format!("declared schema {have:?} != the catalog's columns at {cols:?} {want:?}"),
            );
        }
    }

    fn check_aggregate(
        &mut self,
        plan: &PhysicalPlan,
        input: &PhysicalPlan,
        group_by: &[usize],
        aggs: &[PhysAgg],
        id: usize,
        op: &str,
    ) {
        let mut derived: Vec<DataType> = Vec::with_capacity(group_by.len() + aggs.len());
        for &g in group_by {
            match input.schema.column(g) {
                Some(c) => derived.push(c.dtype),
                None => {
                    self.issue(
                        "schema/column-ref",
                        id,
                        op,
                        format!(
                            "group-by column #{g} out of range (input has {})",
                            input.schema.len()
                        ),
                    );
                    return;
                }
            }
        }
        for (i, a) in aggs.iter().enumerate() {
            let arg_type = match &a.arg {
                Some(e) => {
                    self.check_expr(
                        e,
                        &input.schema,
                        None,
                        &format!("aggregate #{i} input"),
                        id,
                        op,
                    );
                    match e.data_type(&input.schema) {
                        Ok(t) => t,
                        Err(_) => return, // already reported
                    }
                }
                None => DataType::Int,
            };
            match a.func.result_type(arg_type) {
                Ok(t) => derived.push(t),
                Err(err) => {
                    self.issue(
                        "expr/agg-input",
                        id,
                        op,
                        format!("aggregate #{i}: {}", err.message()),
                    );
                    return;
                }
            }
        }
        self.check_types(
            &plan.schema,
            &derived,
            "group-by ++ aggregate types",
            id,
            op,
        );
    }

    /// Rule group 2: physical-property obligations.
    fn check_physical_props(&mut self, plan: &PhysicalPlan, id: usize, op: &str) {
        match &plan.op {
            PhysOp::IndexScan {
                table,
                index,
                range,
                clustered,
                ..
            } => {
                // Note: an *empty* key range (low > high) is deliberately
                // not an error — the optimizer compiles contradictory
                // sargable predicates into exactly that, and it executes
                // correctly (zero rows). Only bound *types* are checked.
                let Some(cat) = self.catalog else { return };
                let Ok(info) = cat.table(table) else {
                    self.issue(
                        "catalog/table",
                        id,
                        op,
                        format!("table '{table}' does not exist"),
                    );
                    return;
                };
                let Some(idx) = info.indexes().iter().find(|i| &i.name == index) else {
                    self.issue(
                        "index/exists",
                        id,
                        op,
                        format!("index '{index}' does not exist on '{table}'"),
                    );
                    return;
                };
                if idx.clustered != *clustered {
                    self.issue(
                        "index/clustered",
                        id,
                        op,
                        format!(
                            "plan says clustered={clustered}, catalog says {}",
                            idx.clustered
                        ),
                    );
                }
                if let Some(key_type) = info.schema.column(idx.column).map(|c| c.dtype) {
                    for bound in [&range.low, &range.high] {
                        let v = match bound {
                            Bound::Included(v) | Bound::Excluded(v) => v,
                            Bound::Unbounded => continue,
                        };
                        if let Some(vt) = v.data_type() {
                            if key_type.unify(vt).is_none() {
                                self.issue(
                                    "key/type",
                                    id,
                                    op,
                                    format!(
                                        "range bound {v} ({vt}) is not comparable with the \
                                         indexed column's type {key_type}"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            PhysOp::IndexNestedLoopJoin {
                inner_table,
                index,
                outer,
                outer_key,
                ..
            } => {
                let Some(cat) = self.catalog else { return };
                let Ok(info) = cat.table(inner_table) else {
                    self.issue(
                        "catalog/table",
                        id,
                        op,
                        format!("inner table '{inner_table}' does not exist"),
                    );
                    return;
                };
                let Some(idx) = info.indexes().iter().find(|i| &i.name == index) else {
                    self.issue(
                        "index/exists",
                        id,
                        op,
                        format!("index '{index}' does not exist on '{inner_table}'"),
                    );
                    return;
                };
                let probe = outer.schema.column(*outer_key).map(|c| c.dtype);
                let key = info.schema.column(idx.column).map(|c| c.dtype);
                if let (Some(p), Some(k)) = (probe, key) {
                    if p.unify(k).is_none() {
                        self.issue(
                            "key/type",
                            id,
                            op,
                            format!("probe key type {p} is not comparable with index key {k}"),
                        );
                    }
                }
            }
            PhysOp::BlockNestedLoopJoin { block_pages, .. } if *block_pages == 0 => {
                self.issue(
                    "join/block-pages",
                    id,
                    op,
                    "block nested loops with a zero-page block".into(),
                );
            }
            PhysOp::SortMergeJoin {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                for (side, input, key) in [("left", left, left_key), ("right", right, right_key)] {
                    if let OrderFact::Known(have) = provides_order(input, self.catalog) {
                        if have != Some(*key) {
                            self.issue(
                                "order/merge-input",
                                id,
                                op,
                                format!(
                                    "{side} input must arrive sorted on #{key}, but it \
                                     delivers {}",
                                    match have {
                                        Some(c) => format!("order on #{c}"),
                                        None => "no order".to_string(),
                                    }
                                ),
                            );
                        }
                    }
                }
            }
            PhysOp::SortAggregate {
                input, group_by, ..
            } => {
                let Some(&g) = group_by.first() else {
                    self.issue(
                        "order/stream-agg",
                        id,
                        op,
                        "streaming aggregate without group columns".into(),
                    );
                    return;
                };
                if let OrderFact::Known(have) = provides_order(input, self.catalog) {
                    if have != Some(g) {
                        self.issue(
                            "order/stream-agg",
                            id,
                            op,
                            format!(
                                "input must arrive sorted on group column #{g}, but it delivers {}",
                                match have {
                                    Some(c) => format!("order on #{c}"),
                                    None => "no order".to_string(),
                                }
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// What we can prove about the ascending sort order an operator's output
/// satisfies, in the operator's *own output ordinal space*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderFact {
    /// Provably ordered by this column (or provably unordered for `None`).
    Known(Option<usize>),
    /// Not derivable (e.g. a scan with no catalog to consult).
    Unknown,
}

/// Derive the order an operator delivers from its *structure* — never from
/// the `output_order` annotation (which the optimizer keeps in global
/// ordinals mid-enumeration and which a buggy enumerator could get wrong;
/// trusting it would make the merge-input rule vacuous).
fn provides_order(plan: &PhysicalPlan, catalog: Option<&Catalog>) -> OrderFact {
    match &plan.op {
        PhysOp::SeqScan { table, cols, .. } => match catalog.and_then(|c| c.table(table).ok()) {
            // A clustered index means the heap itself is key-ordered.
            Some(info) => OrderFact::Known(
                info.indexes()
                    .iter()
                    .find(|i| i.clustered)
                    .and_then(|i| scan_ordinal(cols.as_deref(), i.column)),
            ),
            None => OrderFact::Unknown,
        },
        PhysOp::IndexScan {
            table, index, cols, ..
        } => match catalog.and_then(|c| c.table(table).ok()) {
            Some(info) => match info.indexes().iter().find(|i| &i.name == index) {
                Some(idx) => OrderFact::Known(scan_ordinal(cols.as_deref(), idx.column)),
                // Nonexistent index: flagged by index/exists, order unknown.
                None => OrderFact::Unknown,
            },
            None => OrderFact::Unknown,
        },
        PhysOp::Filter { input, .. } | PhysOp::Limit { input, .. } => {
            provides_order(input, catalog)
        }
        PhysOp::Project { input, exprs } => match provides_order(input, catalog) {
            OrderFact::Known(Some(c)) => OrderFact::Known(
                exprs
                    .iter()
                    .position(|e| matches!(e, Expr::Column(i) if *i == c)),
            ),
            other => other,
        },
        PhysOp::Sort { keys, .. } => OrderFact::Known(match keys.first() {
            Some((c, true)) => Some(*c),
            _ => None,
        }),
        // The probe/outer side streams through in order; its columns keep
        // their positions in the join output.
        PhysOp::HashJoin { left, .. } | PhysOp::NestedLoopJoin { left, .. } => {
            provides_order(left, catalog)
        }
        PhysOp::IndexNestedLoopJoin { outer, .. } => provides_order(outer, catalog),
        // Block nested loops interleaves outer blocks: order destroyed.
        PhysOp::BlockNestedLoopJoin { .. } => OrderFact::Known(None),
        PhysOp::SortMergeJoin { left_key, .. } => OrderFact::Known(Some(*left_key)),
        PhysOp::HashAggregate { .. } => OrderFact::Known(None),
        // Streaming aggregate emits groups in input order; the first group
        // column is output column 0.
        PhysOp::SortAggregate {
            input, group_by, ..
        } => match (provides_order(input, catalog), group_by.first()) {
            (OrderFact::Known(have), Some(&g)) if have == Some(g) => OrderFact::Known(Some(0)),
            (OrderFact::Unknown, _) => OrderFact::Unknown,
            _ => OrderFact::Known(None),
        },
    }
}

/// Total-order comparison for same-type (or numerically unifiable) values;
/// `None` when the values aren't comparable.
fn compare_values(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
    .map(|o| {
        if o == Ordering::Equal {
            Ordering::Equal
        } else {
            o
        }
    })
}

// ---------------------------------------------------------------------------
// SQL-level lints
// ---------------------------------------------------------------------------

/// Scan a bound logical plan for queries that are valid but probably wrong:
/// contradictory predicates, accidental cross products, projected columns
/// no ancestor consumes.
pub fn lint_logical(plan: &LogicalPlan) -> Vec<Lint> {
    let mut lints = Vec::new();
    lint_contradictions(plan, &mut lints);
    lint_cross_products(plan, &mut lints);
    let all = (0..plan.schema().len()).collect();
    lint_unused_columns(plan, &all, &mut lints);
    lints
}

/// `a > 5 AND a < 3`-style contradictions: per-column range intersection
/// over each filter's conjuncts, plus constant predicates that evaluate to
/// false outright.
fn lint_contradictions(plan: &LogicalPlan, lints: &mut Vec<Lint>) {
    if let LogicalPlan::Filter { predicate, .. } = plan {
        lint_predicate_contradiction(predicate, lints);
    }
    for c in plan.children() {
        lint_contradictions(c, lints);
    }
}

fn lint_predicate_contradiction(predicate: &Expr, lints: &mut Vec<Lint>) {
    use std::collections::BTreeMap;
    // (low, low_inclusive), (high, high_inclusive) per column.
    type Range = (Option<(Value, bool)>, Option<(Value, bool)>);
    let mut ranges: BTreeMap<usize, Range> = BTreeMap::new();

    if predicate.is_constant() {
        if let Ok(false) = predicate.eval_predicate(&evopt_common::Tuple::new(vec![])) {
            lints.push(Lint {
                code: "contradiction",
                message: format!("predicate `{predicate}` is constant and always false"),
            });
            return;
        }
    }
    for conj in predicate.split_conjuncts() {
        // Normalise to `col OP literal`.
        let (col, op, v) = match &conj {
            Expr::Binary { op, left, right } if op.is_comparison() => match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => (*c, *op, v.clone()),
                (Expr::Literal(v), Expr::Column(c)) => (*c, op.flip(), v.clone()),
                _ => continue,
            },
            _ => continue,
        };
        if v.is_null() {
            continue;
        }
        let entry = ranges.entry(col).or_default();
        let tighten_low = |cur: &mut Option<(Value, bool)>, v: Value, inc: bool| {
            let replace = match cur {
                Some((have, have_inc)) => match compare_values(&v, have) {
                    Some(std::cmp::Ordering::Greater) => true,
                    Some(std::cmp::Ordering::Equal) => *have_inc && !inc,
                    _ => false,
                },
                None => true,
            };
            if replace {
                *cur = Some((v, inc));
            }
        };
        let tighten_high = |cur: &mut Option<(Value, bool)>, v: Value, inc: bool| {
            let replace = match cur {
                Some((have, have_inc)) => match compare_values(&v, have) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Equal) => *have_inc && !inc,
                    _ => false,
                },
                None => true,
            };
            if replace {
                *cur = Some((v, inc));
            }
        };
        use evopt_common::BinOp;
        match op {
            BinOp::Eq => {
                tighten_low(&mut entry.0, v.clone(), true);
                tighten_high(&mut entry.1, v, true);
            }
            BinOp::Gt => tighten_low(&mut entry.0, v, false),
            BinOp::GtEq => tighten_low(&mut entry.0, v, true),
            BinOp::Lt => tighten_high(&mut entry.1, v, false),
            BinOp::LtEq => tighten_high(&mut entry.1, v, true),
            _ => {}
        }
    }
    for (col, (low, high)) in ranges {
        let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (low, high) else {
            continue;
        };
        let empty = match compare_values(&lo, &hi) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Equal) => !(lo_inc && hi_inc),
            _ => false,
        };
        if empty {
            lints.push(Lint {
                code: "contradiction",
                message: format!(
                    "conjuncts on column #{col} demand {} {lo} and {} {hi}: no value satisfies both",
                    if lo_inc { ">=" } else { ">" },
                    if hi_inc { "<=" } else { "<" },
                ),
            });
        }
    }
}

/// Accidental cross products: a join subtree whose relations the available
/// predicates (join-node and enclosing-filter conjuncts alike) fail to
/// connect. Written `FROM a, b WHERE a.x = b.y` is connected; `FROM a, b`
/// with no linking predicate is flagged.
fn lint_cross_products(plan: &LogicalPlan, lints: &mut Vec<Lint>) {
    let is_join_root = matches!(plan, LogicalPlan::Join { .. })
        || matches!(plan, LogicalPlan::Filter { input, .. } if matches!(**input, LogicalPlan::Join { .. }));
    if is_join_root {
        if let Some(graph) = JoinGraph::extract(plan) {
            let n = graph.relations.len();
            // Union-find over relations; merge any pair of components the
            // graph can connect.
            let mut comp: Vec<usize> = (0..n).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for a in 0..n {
                    for b in (a + 1)..n {
                        if comp[a] != comp[b] && graph.connected(1u64 << a, 1u64 << b) {
                            let (from, to) = (comp[b], comp[a]);
                            for c in comp.iter_mut() {
                                if *c == from {
                                    *c = to;
                                }
                            }
                            changed = true;
                        }
                    }
                }
                // Pairwise base-relation edges miss chains only when a
                // predicate spans 3+ relations; grow components by testing
                // whole components against each other too.
                for a in 0..n {
                    for b in (a + 1)..n {
                        if comp[a] != comp[b] {
                            let mask_of = |k: usize| -> u64 {
                                (0..n)
                                    .filter(|&r| comp[r] == comp[k])
                                    .map(|r| 1u64 << r)
                                    .sum()
                            };
                            if graph.connected(mask_of(a), mask_of(b)) {
                                let (from, to) = (comp[b], comp[a]);
                                for c in comp.iter_mut() {
                                    if *c == from {
                                        *c = to;
                                    }
                                }
                                changed = true;
                            }
                        }
                    }
                }
            }
            let mut comps: Vec<usize> = comp.clone();
            comps.sort_unstable();
            comps.dedup();
            if comps.len() > 1 {
                let names: Vec<String> = graph
                    .relations
                    .iter()
                    .map(|r| match r {
                        LogicalPlan::Scan { table, .. } => table.clone(),
                        other => other
                            .schema()
                            .column(0)
                            .and_then(|c| c.table.clone())
                            .unwrap_or_else(|| format!("<{}>", name_of(other))),
                    })
                    .collect();
                lints.push(Lint {
                    code: "cross-product",
                    message: format!(
                        "no predicate connects all of [{}]: the plan must contain a cross product",
                        names.join(", ")
                    ),
                });
            }
            // Recurse into opaque (non-scan) leaves only; the join subtree
            // itself has been handled.
            for r in &graph.relations {
                if !matches!(r, LogicalPlan::Scan { .. }) {
                    lint_cross_products(r, lints);
                }
            }
            return;
        }
    }
    for c in plan.children() {
        lint_cross_products(c, lints);
    }
}

fn name_of(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
    }
}

/// Projected columns no ancestor reads: top-down needed-set analysis.
/// `needed` holds the output ordinals of `plan` some ancestor consumes.
fn lint_unused_columns(
    plan: &LogicalPlan,
    needed: &std::collections::BTreeSet<usize>,
    lints: &mut Vec<Lint>,
) {
    use std::collections::BTreeSet;
    match plan {
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            for (i, _) in exprs.iter().enumerate() {
                if !needed.contains(&i) {
                    let label = schema
                        .column(i)
                        .map(|c| c.name.clone())
                        .unwrap_or_else(|| format!("#{i}"));
                    lints.push(Lint {
                        code: "unused-column",
                        message: format!("projected column `{label}` is never used"),
                    });
                }
            }
            let mut child_needed = BTreeSet::new();
            for &i in needed {
                if let Some(e) = exprs.get(i) {
                    child_needed.extend(e.referenced_columns());
                }
            }
            lint_unused_columns(input, &child_needed, lints);
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut n = needed.clone();
            n.extend(predicate.referenced_columns());
            lint_unused_columns(input, &n, lints);
        }
        LogicalPlan::Sort { input, keys } => {
            let mut n = needed.clone();
            n.extend(keys.iter().map(|k| k.column));
            lint_unused_columns(input, &n, lints);
        }
        LogicalPlan::Limit { input, .. } => lint_unused_columns(input, needed, lints),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let mut n: BTreeSet<usize> = group_by.iter().copied().collect();
            for a in aggs {
                if let Some(e) = &a.arg {
                    n.extend(e.referenced_columns());
                }
            }
            lint_unused_columns(input, &n, lints);
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
        } => {
            let lcols = left.schema().len();
            let mut ln = BTreeSet::new();
            let mut rn = BTreeSet::new();
            let mut all: BTreeSet<usize> = needed.clone();
            if let Some(p) = predicate {
                all.extend(p.referenced_columns());
            }
            for &c in &all {
                if c < lcols {
                    ln.insert(c);
                } else {
                    rn.insert(c - lcols);
                }
            }
            lint_unused_columns(left, &ln, lints);
            lint_unused_columns(right, &rn, lints);
        }
        LogicalPlan::Scan { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use evopt_common::expr::{col, lit};
    use evopt_common::{BinOp, Column, Schema, Tuple};
    use evopt_plan::SortKey;

    fn int_schema(names: &[&str]) -> Schema {
        Schema::new(
            names
                .iter()
                .map(|n| Column::new(*n, DataType::Int))
                .collect(),
        )
    }

    fn leaf(table: &str, cols: &[&str]) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysOp::SeqScan {
                table: table.into(),
                cols: None,
                filter: None,
            },
            schema: int_schema(cols),
            est_rows: 100.0,
            est_cost: Cost::new(10.0, 100.0),
            output_order: None,
        }
    }

    #[test]
    fn clean_physical_plan_verifies() {
        let l = leaf("t", &["a", "b"]);
        let r = leaf("u", &["c"]);
        let join = PhysicalPlan {
            schema: l.schema.join(&r.schema),
            est_rows: 100.0,
            est_cost: Cost::new(30.0, 400.0),
            output_order: None,
            op: PhysOp::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                left_key: 0,
                right_key: 0,
                residual: None,
            },
        };
        let report = verify_physical(&join, None, VerifyPhase::PostPhysical);
        assert!(report.ok(), "{:?}", report.issues);
        assert_eq!(report.nodes_checked, 3);
    }

    #[test]
    fn out_of_range_column_is_caught() {
        let scan = leaf("t", &["a"]);
        let filter = PhysicalPlan {
            schema: scan.schema.clone(),
            est_rows: 50.0,
            est_cost: Cost::new(10.0, 200.0),
            output_order: None,
            op: PhysOp::Filter {
                input: Box::new(scan),
                predicate: Expr::eq(col(7), lit(1i64)),
            },
        };
        let report = verify_physical(&filter, None, VerifyPhase::PostPhysical);
        assert!(report.issues.iter().any(|i| i.rule == "schema/column-ref"));
    }

    #[test]
    fn non_boolean_predicate_is_caught() {
        let scan = leaf("t", &["a"]);
        let filter = PhysicalPlan {
            schema: scan.schema.clone(),
            est_rows: 50.0,
            est_cost: Cost::new(10.0, 200.0),
            output_order: None,
            op: PhysOp::Filter {
                input: Box::new(scan),
                predicate: Expr::binary(BinOp::Add, col(0), lit(1i64)),
            },
        };
        let report = verify_physical(&filter, None, VerifyPhase::PostPhysical);
        assert!(report.issues.iter().any(|i| i.rule == "expr/type"));
    }

    #[test]
    fn negative_and_nonfinite_estimates_are_caught() {
        let mut scan = leaf("t", &["a"]);
        scan.est_rows = -5.0;
        let report = verify_physical(&scan, None, VerifyPhase::PostPhysical);
        assert!(report.issues.iter().any(|i| i.rule == "est/rows"));

        let mut scan = leaf("t", &["a"]);
        scan.est_cost = Cost::new(f64::NAN, 1.0);
        let report = verify_physical(&scan, None, VerifyPhase::PostPhysical);
        assert!(report.issues.iter().any(|i| i.rule == "est/cost"));
    }

    #[test]
    fn filter_monotonicity_is_enforced() {
        let scan = leaf("t", &["a"]);
        let filter = PhysicalPlan {
            schema: scan.schema.clone(),
            est_rows: 5_000.0, // input is only 100
            est_cost: Cost::new(10.0, 200.0),
            output_order: None,
            op: PhysOp::Filter {
                input: Box::new(scan),
                predicate: Expr::eq(col(0), lit(1i64)),
            },
        };
        let report = verify_physical(&filter, None, VerifyPhase::PostPhysical);
        assert!(report
            .issues
            .iter()
            .any(|i| i.rule == "est/filter-monotone"));
    }

    #[test]
    fn merge_join_without_sorted_inputs_is_caught() {
        // Sort only the left input; leave the right raw. Without a catalog
        // the left leaf's order is unknown, but the right's Sort-lessness is
        // provable… actually a bare SeqScan is Unknown without a catalog, so
        // wrap the right in a Sort on the *wrong* key to get a Known order.
        let l = leaf("t", &["a"]);
        let sorted_l = PhysicalPlan {
            schema: l.schema.clone(),
            est_rows: l.est_rows,
            est_cost: Cost::new(20.0, 300.0),
            output_order: Some(0),
            op: PhysOp::Sort {
                input: Box::new(l),
                keys: vec![(0, true)],
            },
        };
        let r = leaf("u", &["c", "d"]);
        let sorted_r_wrong = PhysicalPlan {
            schema: r.schema.clone(),
            est_rows: r.est_rows,
            est_cost: Cost::new(20.0, 300.0),
            output_order: Some(1),
            op: PhysOp::Sort {
                input: Box::new(r),
                keys: vec![(1, true)],
            },
        };
        let join = PhysicalPlan {
            schema: sorted_l.schema.join(&sorted_r_wrong.schema),
            est_rows: 100.0,
            est_cost: Cost::new(60.0, 900.0),
            output_order: Some(0),
            op: PhysOp::SortMergeJoin {
                left: Box::new(sorted_l),
                right: Box::new(sorted_r_wrong),
                left_key: 0,
                right_key: 0, // but the right is sorted on #1
                residual: None,
            },
        };
        let report = verify_physical(&join, None, VerifyPhase::PostPhysical);
        assert!(
            report.issues.iter().any(|i| i.rule == "order/merge-input"),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn logical_plan_checks_projection_types() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a", "b"]),
        };
        // Declared STRING output for an INT expression.
        let bad = LogicalPlan::Project {
            input: Box::new(scan),
            exprs: vec![col(0)],
            schema: Schema::new(vec![Column::new("a", DataType::Str)]),
        };
        let report = verify_logical(&bad, VerifyPhase::PostBind);
        assert!(report.issues.iter().any(|i| i.rule == "expr/type"));
    }

    #[test]
    fn contradiction_lint_fires() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a"]),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Gt, col(0), lit(5i64)),
                Expr::binary(BinOp::Lt, col(0), lit(3i64)),
            ),
        };
        let lints = lint_logical(&plan);
        assert!(lints.iter().any(|l| l.code == "contradiction"), "{lints:?}");

        // A satisfiable range must not fire.
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a"]),
        };
        let ok = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Gt, col(0), lit(3i64)),
                Expr::binary(BinOp::Lt, col(0), lit(5i64)),
            ),
        };
        assert!(lint_logical(&ok).iter().all(|l| l.code != "contradiction"));
    }

    #[test]
    fn cross_product_lint_fires_only_when_unconnected() {
        let t = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a"]),
        };
        let u = LogicalPlan::Scan {
            table: "u".into(),
            schema: int_schema(&["b"]),
        };
        let cross = LogicalPlan::Join {
            left: Box::new(t.clone()),
            right: Box::new(u.clone()),
            predicate: None,
        };
        assert!(lint_logical(&cross)
            .iter()
            .any(|l| l.code == "cross-product"));

        // Same shape, but a WHERE conjunct connects them: no lint.
        let connected = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(t),
                right: Box::new(u),
                predicate: None,
            }),
            predicate: Expr::eq(col(0), col(1)),
        };
        assert!(lint_logical(&connected)
            .iter()
            .all(|l| l.code != "cross-product"));
    }

    #[test]
    fn unused_column_lint_fires() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a", "b"]),
        };
        let proj = LogicalPlan::project(scan, vec![col(0), col(1)], vec![None, None]).unwrap();
        // Aggregate over the projection only touches column 0; column 1 of
        // the projection is dead weight.
        let agg = LogicalPlan::aggregate(proj, vec![0], vec![]).unwrap();
        let lints = lint_logical(&agg);
        assert!(lints.iter().any(|l| l.code == "unused-column"), "{lints:?}");
    }

    #[test]
    fn always_false_constant_predicate_lints() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a"]),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::binary(BinOp::Gt, lit(1i64), lit(5i64)),
        };
        assert!(lint_logical(&plan)
            .iter()
            .any(|l| l.code == "contradiction"));
        let _ = Tuple::new(vec![]); // keep the import exercised
    }

    #[test]
    fn sort_keys_out_of_range_logical() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: int_schema(&["a"]),
        };
        let plan = LogicalPlan::Sort {
            input: Box::new(scan),
            keys: vec![SortKey {
                column: 9,
                ascending: true,
            }],
        };
        let report = verify_logical(&plan, VerifyPhase::PostBind);
        assert!(report.issues.iter().any(|i| i.rule == "schema/column-ref"));
    }

    #[test]
    fn report_renders_and_errors() {
        let mut scan = leaf("t", &["a"]);
        scan.est_rows = f64::INFINITY;
        let report = verify_physical(&scan, None, VerifyPhase::PostEnumeration);
        assert!(!report.ok());
        assert!(report.render().contains("post-enumeration"));
        let err = report.into_result().unwrap_err();
        assert!(err.message().contains("est/rows"), "{}", err.message());
    }
}
