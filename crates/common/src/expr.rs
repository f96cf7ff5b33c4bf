//! Bound scalar expressions.
//!
//! An [`Expr`] refers to its input row by **column ordinal** — the SQL
//! binder resolves names to ordinals, and everything downstream (rewrites,
//! selectivity estimation, execution) works on ordinals. Three-valued SQL
//! logic is implemented throughout: comparisons with NULL yield NULL, and
//! `AND`/`OR` use Kleene semantics.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use crate::error::{EvoptError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The mirrored comparison (`a < b` ⇔ `b > a`); identity for symmetric
    /// operators. Used to normalise predicates to `col OP const` form.
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    /// `COUNT(*)` — counts rows, ignores the argument entirely.
    CountStar,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Result type given the argument type.
    pub fn result_type(self, arg: DataType) -> Result<DataType> {
        match self {
            AggFunc::Count | AggFunc::CountStar => Ok(DataType::Int),
            AggFunc::Sum => {
                if arg.is_numeric() {
                    Ok(arg)
                } else {
                    Err(EvoptError::Bind(format!(
                        "SUM requires a numeric argument, got {arg}"
                    )))
                }
            }
            AggFunc::Avg => {
                if arg.is_numeric() {
                    Ok(DataType::Float)
                } else {
                    Err(EvoptError::Bind(format!(
                        "AVG requires a numeric argument, got {arg}"
                    )))
                }
            }
            AggFunc::Min | AggFunc::Max => Ok(arg),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A bound scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Ordinal reference into the input row.
    Column(usize),
    /// Constant.
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        input: Box<Expr>,
    },
    /// `input [NOT] LIKE pattern` with `%` and `_` wildcards.
    Like {
        input: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `input [NOT] IN (v1, v2, ...)` — list elements are constants.
    InList {
        input: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `input [NOT] BETWEEN low AND high` (inclusive).
    Between {
        input: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
}

// ---- constructors ---------------------------------------------------------

/// `Expr::Column(i)` shorthand.
pub fn col(i: usize) -> Expr {
    Expr::Column(i)
}

/// `Expr::Literal` shorthand.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

impl Expr {
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Or, left, right)
    }

    #[allow(clippy::should_implement_trait)] // deliberate DSL constructor
    pub fn not(input: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            input: Box::new(input),
        }
    }

    /// AND together a list of conjuncts; `TRUE` for an empty list.
    pub fn conjunction(conjuncts: Vec<Expr>) -> Expr {
        let mut it = conjuncts.into_iter();
        match it.next() {
            None => lit(true),
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// Split a predicate into its top-level AND conjuncts.
    pub fn split_conjuncts(&self) -> Vec<Expr> {
        let mut out = Vec::new();
        fn walk(e: &Expr, out: &mut Vec<Expr>) {
            if let Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e.clone());
            }
        }
        walk(self, &mut out);
        out
    }

    /// The set of column ordinals this expression reads.
    pub fn referenced_columns(&self) -> BTreeSet<usize> {
        let mut set = BTreeSet::new();
        self.visit_columns(&mut |i| {
            set.insert(i);
        });
        set
    }

    /// Visit every column ordinal in the tree.
    pub fn visit_columns(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Column(i) => f(*i),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Unary { input, .. } => input.visit_columns(f),
            Expr::Like { input, .. } => input.visit_columns(f),
            Expr::InList { input, .. } => input.visit_columns(f),
            Expr::Between {
                input, low, high, ..
            } => {
                input.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
        }
    }

    /// Rewrite every column ordinal through `map` (e.g. when predicates move
    /// across a projection or from a join schema to one side's schema).
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(map(*i)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(map)),
                right: Box::new(right.remap_columns(map)),
            },
            Expr::Unary { op, input } => Expr::Unary {
                op: *op,
                input: Box::new(input.remap_columns(map)),
            },
            Expr::Like {
                input,
                pattern,
                negated,
            } => Expr::Like {
                input: Box::new(input.remap_columns(map)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList {
                input,
                list,
                negated,
            } => Expr::InList {
                input: Box::new(input.remap_columns(map)),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between {
                input,
                low,
                high,
                negated,
            } => Expr::Between {
                input: Box::new(input.remap_columns(map)),
                low: Box::new(low.remap_columns(map)),
                high: Box::new(high.remap_columns(map)),
                negated: *negated,
            },
        }
    }

    /// Fallible [`remap_columns`](Expr::remap_columns): errors on the first
    /// ordinal `map` cannot translate instead of requiring callers to
    /// pre-validate (and then unwrap) in a separate pass.
    pub fn try_remap_columns(&self, map: &impl Fn(usize) -> Option<usize>) -> Result<Expr> {
        let mut missing = None;
        self.visit_columns(&mut |i| {
            if map(i).is_none() && missing.is_none() {
                missing = Some(i);
            }
        });
        if let Some(i) = missing {
            return Err(EvoptError::Plan(format!(
                "column ordinal {i} has no target under the remapping"
            )));
        }
        Ok(self.remap_columns(&|i| map(i).unwrap_or(i)))
    }

    /// True when the expression reads no columns (a constant expression).
    pub fn is_constant(&self) -> bool {
        let mut any = false;
        self.visit_columns(&mut |_| any = true);
        !any
    }

    /// Infer the result type against `schema`, validating operand types.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(i) => schema
                .column(*i)
                .map(|c| c.dtype)
                .ok_or_else(|| EvoptError::Plan(format!("column ordinal {i} out of range"))),
            Expr::Literal(v) => Ok(v.data_type().unwrap_or(DataType::Int)),
            Expr::Binary { op, left, right } => {
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                if op.is_logical() {
                    for (side, t) in [("left", lt), ("right", rt)] {
                        if t != DataType::Bool {
                            return Err(EvoptError::Bind(format!(
                                "{} operand of {} must be BOOL, got {t}",
                                side,
                                op.symbol()
                            )));
                        }
                    }
                    Ok(DataType::Bool)
                } else if op.is_comparison() {
                    lt.unify(rt).ok_or_else(|| {
                        EvoptError::Bind(format!("cannot compare {lt} with {rt}"))
                    })?;
                    Ok(DataType::Bool)
                } else {
                    let t = lt.unify(rt).filter(|t| t.is_numeric()).ok_or_else(|| {
                        EvoptError::Bind(format!("cannot apply {} to {lt} and {rt}", op.symbol()))
                    })?;
                    if *op == BinOp::Div && t == DataType::Int {
                        Ok(DataType::Int)
                    } else {
                        Ok(t)
                    }
                }
            }
            Expr::Unary { op, input } => {
                let t = input.data_type(schema)?;
                match op {
                    UnOp::Not => {
                        if t != DataType::Bool {
                            return Err(EvoptError::Bind(format!("NOT requires BOOL, got {t}")));
                        }
                        Ok(DataType::Bool)
                    }
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            return Err(EvoptError::Bind(format!(
                                "unary minus requires numeric, got {t}"
                            )));
                        }
                        Ok(t)
                    }
                    UnOp::IsNull | UnOp::IsNotNull => Ok(DataType::Bool),
                }
            }
            Expr::Like { input, .. } => {
                let t = input.data_type(schema)?;
                if t != DataType::Str {
                    return Err(EvoptError::Bind(format!("LIKE requires STRING, got {t}")));
                }
                Ok(DataType::Bool)
            }
            Expr::InList { input, list, .. } => {
                let t = input.data_type(schema)?;
                for v in list {
                    if let Some(vt) = v.data_type() {
                        if t.unify(vt).is_none() {
                            return Err(EvoptError::Bind(format!(
                                "IN list element {v} is not comparable with {t}"
                            )));
                        }
                    }
                }
                Ok(DataType::Bool)
            }
            Expr::Between {
                input, low, high, ..
            } => {
                let t = input.data_type(schema)?;
                for bound in [low, high] {
                    let bt = bound.data_type(schema)?;
                    if t.unify(bt).is_none() {
                        return Err(EvoptError::Bind(format!(
                            "BETWEEN bound type {bt} not comparable with {t}"
                        )));
                    }
                }
                Ok(DataType::Bool)
            }
        }
    }

    /// Evaluate against a tuple. A boolean node (comparison, AND/OR/NOT,
    /// IS [NOT] NULL, IN, BETWEEN, LIKE) is decided by
    /// [`truth`](Expr::truth) and returned as `Bool`, or `Null` for
    /// unknown; only arithmetic and negation compute here.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Column(i) => tuple.value(*i).cloned(),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } if !op.is_comparison() && !op.is_logical() => {
                eval_arithmetic(*op, &*left.operand(tuple)?, &*right.operand(tuple)?)
            }
            Expr::Unary {
                op: UnOp::Neg,
                input,
            } => input.operand(tuple)?.neg(),
            _ => Ok(self.truth(tuple)?.map_or(Value::Null, Value::Bool)),
        }
    }

    /// The three-valued test: `Some(true)`, `Some(false)` or unknown
    /// (`None`). The one place the comparisons, AND/OR/NOT (Kleene, with
    /// `FALSE AND x` and `TRUE OR x` short-circuiting `x`), IS [NOT] NULL,
    /// IN, BETWEEN and LIKE are decided. Operands are borrowed from the row
    /// or the literal, so deciding a node builds no `Value` unless an
    /// operand is computed. Any other node is read as a boolean: `BOOL`,
    /// NULL (unknown), or an error.
    pub fn truth(&self, tuple: &Tuple) -> Result<Option<bool>> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let l = left.truth(tuple)?;
                if l == Some(false) {
                    return Ok(l);
                }
                Ok(match (l, right.truth(tuple)?) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                })
            }
            Expr::Binary {
                op: BinOp::Or,
                left,
                right,
            } => {
                let l = left.truth(tuple)?;
                if l == Some(true) {
                    return Ok(l);
                }
                Ok(match (l, right.truth(tuple)?) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (l, r) = (left.operand(tuple)?, right.operand(tuple)?);
                Ok(l.sql_cmp(&r).map(|ord| match op {
                    BinOp::Eq => ord.is_eq(),
                    BinOp::NotEq => ord.is_ne(),
                    BinOp::Lt => ord.is_lt(),
                    BinOp::LtEq => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    _ => ord.is_ge(), // GtEq
                }))
            }
            Expr::Unary { op, input } if *op != UnOp::Neg => match op {
                UnOp::Not => Ok(input.truth(tuple)?.map(|b| !b)),
                UnOp::IsNull => Ok(Some(input.operand(tuple)?.is_null())),
                _ => Ok(Some(!input.operand(tuple)?.is_null())), // IS NOT NULL
            },
            Expr::Like {
                input,
                pattern,
                negated,
            } => match &*input.operand(tuple)? {
                Value::Null => Ok(None),
                Value::Str(s) => Ok(Some(like_match(s, pattern) != *negated)),
                other => Err(EvoptError::Execution(format!(
                    "LIKE applied to non-string {other:?}"
                ))),
            },
            Expr::InList {
                input,
                list,
                negated,
            } => {
                let v = input.operand(tuple)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(item) {
                        Some(true) => return Ok(Some(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok((!saw_null).then_some(*negated))
            }
            Expr::Between {
                input,
                low,
                high,
                negated,
            } => {
                let v = input.operand(tuple)?;
                let (lo, hi) = (low.operand(tuple)?, high.operand(tuple)?);
                let ge = v.sql_cmp(&lo).map(Ordering::is_ge);
                let le = v.sql_cmp(&hi).map(Ordering::is_le);
                let within = match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                Ok(within.map(|b| b != *negated))
            }
            _ => match &*self.operand(tuple)? {
                Value::Null => Ok(None),
                Value::Bool(b) => Ok(Some(*b)),
                other => Err(EvoptError::Execution(format!(
                    "expected a boolean, got {other:?}"
                ))),
            },
        }
    }

    /// Evaluate as a filter predicate: only TRUE keeps the row; FALSE and
    /// unknown reject it.
    pub fn eval_predicate(&self, tuple: &Tuple) -> Result<bool> {
        Ok(self.truth(tuple)? == Some(true))
    }

    /// This expression's value on `tuple`, borrowed when it is a column or
    /// a literal and built only when it has to be computed.
    fn operand<'a>(&'a self, tuple: &'a Tuple) -> Result<Cow<'a, Value>> {
        match self {
            Expr::Column(i) => tuple.value(*i).map(Cow::Borrowed),
            Expr::Literal(v) => Ok(Cow::Borrowed(v)),
            _ => self.eval(tuple).map(Cow::Owned),
        }
    }

    /// Fold constant sub-expressions bottom-up. Expressions whose evaluation
    /// would error at runtime (e.g. `1/0`) are left unfolded so the error
    /// surfaces only if the row is actually evaluated.
    pub fn fold_constants(&self) -> Expr {
        let folded = match self {
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.fold_constants()),
                right: Box::new(right.fold_constants()),
            },
            Expr::Unary { op, input } => Expr::Unary {
                op: *op,
                input: Box::new(input.fold_constants()),
            },
            Expr::Like {
                input,
                pattern,
                negated,
            } => Expr::Like {
                input: Box::new(input.fold_constants()),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList {
                input,
                list,
                negated,
            } => Expr::InList {
                input: Box::new(input.fold_constants()),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between {
                input,
                low,
                high,
                negated,
            } => Expr::Between {
                input: Box::new(input.fold_constants()),
                low: Box::new(low.fold_constants()),
                high: Box::new(high.fold_constants()),
                negated: *negated,
            },
        };
        // Identity simplifications on boolean connectives.
        if let Expr::Binary { op, left, right } = &folded {
            match op {
                BinOp::And => {
                    if **left == lit(true) {
                        return (**right).clone();
                    }
                    if **right == lit(true) {
                        return (**left).clone();
                    }
                    if **left == lit(false) || **right == lit(false) {
                        return lit(false);
                    }
                }
                BinOp::Or => {
                    if **left == lit(false) {
                        return (**right).clone();
                    }
                    if **right == lit(false) {
                        return (**left).clone();
                    }
                    if **left == lit(true) || **right == lit(true) {
                        return lit(true);
                    }
                }
                _ => {}
            }
        }
        if folded.is_constant() {
            if let Ok(v) = folded.eval(&Tuple::new(vec![])) {
                return Expr::Literal(v);
            }
        }
        folded
    }
}

/// Evaluate an arithmetic operator on two scalar values.
fn eval_arithmetic(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        BinOp::Mod => l.rem(r),
        _ => Err(EvoptError::Internal(format!(
            "{op:?} is not an arithmetic operator"
        ))),
    }
}

/// SQL `LIKE` matcher: `%` matches any run (incl. empty), `_` any single
/// character. Iterative two-pointer walk over both strings in place, with
/// backtracking to the last `%`: linear in practice, no recursion and no
/// allocation. `si` and `pi` are byte offsets, always on character
/// boundaries.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern offset after %, matched s offset)
    while let Some(c) = s[si..].chars().next() {
        match pattern[pi..].chars().next() {
            Some('%') => {
                pi += 1;
                star = Some((pi, si));
            }
            Some(p) if p == '_' || p == c => {
                si += c.len_utf8();
                pi += p.len_utf8();
            }
            _ => match star {
                Some((sp, ss)) => {
                    // The `%` swallows one more character and the rest of
                    // the pattern is tried again after it.
                    pi = sp;
                    si = ss + s[ss..].chars().next().map_or(1, char::len_utf8);
                    star = Some((sp, si));
                }
                None => return false,
            },
        }
    }
    pattern[pi..].bytes().all(|b| b == b'%')
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Unary { op, input } => match op {
                UnOp::Not => write!(f, "NOT ({input})"),
                UnOp::Neg => write!(f, "-({input})"),
                UnOp::IsNull => write!(f, "({input}) IS NULL"),
                UnOp::IsNotNull => write!(f, "({input}) IS NOT NULL"),
            },
            Expr::Like {
                input,
                pattern,
                negated,
            } => write!(
                f,
                "({input} {}LIKE '{pattern}')",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                input,
                list,
                negated,
            } => {
                write!(f, "({input} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("))")
            }
            Expr::Between {
                input,
                low,
                high,
                negated,
            } => write!(
                f,
                "({input} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn row(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn eval_column_and_literal() {
        let t = row(vec![Value::Int(7)]);
        assert_eq!(col(0).eval(&t).unwrap(), Value::Int(7));
        assert_eq!(lit(3i64).eval(&t).unwrap(), Value::Int(3));
        assert!(col(3).eval(&t).is_err());
    }

    #[test]
    fn comparisons_three_valued() {
        let t = row(vec![Value::Int(5), Value::Null]);
        let e = Expr::binary(BinOp::Lt, col(0), lit(10i64));
        assert_eq!(e.eval(&t).unwrap(), Value::Bool(true));
        let e = Expr::binary(BinOp::Lt, col(1), lit(10i64));
        assert_eq!(e.eval(&t).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&t).unwrap());
    }

    #[test]
    fn kleene_and_or() {
        let t = row(vec![Value::Null]);
        // FALSE AND NULL = FALSE
        let e = Expr::and(lit(false), col(0));
        assert_eq!(e.eval(&t).unwrap(), Value::Bool(false));
        // TRUE AND NULL = NULL
        let e = Expr::and(lit(true), col(0));
        assert_eq!(e.eval(&t).unwrap(), Value::Null);
        // TRUE OR NULL = TRUE
        let e = Expr::or(lit(true), col(0));
        assert_eq!(e.eval(&t).unwrap(), Value::Bool(true));
        // FALSE OR NULL = NULL
        let e = Expr::or(lit(false), col(0));
        assert_eq!(e.eval(&t).unwrap(), Value::Null);
        // NOT NULL = NULL
        let e = Expr::not(col(0));
        assert_eq!(e.eval(&t).unwrap(), Value::Null);
    }

    #[test]
    fn and_short_circuits_errors_on_right() {
        // FALSE AND (1/0 = 1) must not error.
        let bad = Expr::eq(Expr::binary(BinOp::Div, lit(1i64), lit(0i64)), lit(1i64));
        let e = Expr::and(lit(false), bad);
        assert_eq!(e.eval(&row(vec![])).unwrap(), Value::Bool(false));
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("hello", "h_list"));
        assert!(like_match("abcabc", "%abc"));
        assert!(like_match("a%b", "a%b")); // literal chars still match
        assert!(!like_match("hello", "HELLO")); // case-sensitive
    }

    #[test]
    fn like_null_and_negation() {
        let t = row(vec![Value::Null, Value::Str("abc".into())]);
        let e = Expr::Like {
            input: Box::new(col(0)),
            pattern: "a%".into(),
            negated: false,
        };
        assert_eq!(e.eval(&t).unwrap(), Value::Null);
        let e = Expr::Like {
            input: Box::new(col(1)),
            pattern: "b%".into(),
            negated: true,
        };
        assert_eq!(e.eval(&t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_walks_characters_in_place() {
        // `_` is one character, however many bytes it takes.
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("日本", "__"));
        assert!(!like_match("日本", "_"));
        assert!(!like_match("日本", "___"));
        assert!(like_match("a€b", "a_b"));
        assert!(like_match("naïve", "%ï%"));
        assert!(like_match("日本語", "%_語"));
        // A run of `%` is one `%`.
        assert!(like_match("abc", "a%%%c"));
        assert!(like_match("abc", "%%"));
        assert!(like_match("", "%%%"));
        assert!(!like_match("abc", "a%%%d"));
        // The empty pattern matches only the empty string.
        assert!(like_match("", ""));
        assert!(!like_match("a", ""));
        // A trailing `%` matches any rest, the empty one included.
        assert!(like_match("abc", "abc%"));
        assert!(like_match("abcdef", "abc%"));
        assert!(!like_match("ab", "abc%"));
        // A `%` in the subject does not stop a pattern `%` being a wildcard.
        assert!(like_match("%xb", "%b"));
        assert!(like_match("a%%b", "a%b"));
    }

    #[test]
    fn in_list_three_valued() {
        let t = row(vec![Value::Int(2)]);
        let e = Expr::InList {
            input: Box::new(col(0)),
            list: vec![Value::Int(1), Value::Int(2)],
            negated: false,
        };
        assert_eq!(e.eval(&t).unwrap(), Value::Bool(true));
        // 3 NOT IN (1, NULL): unknown because NULL might equal 3.
        let e = Expr::InList {
            input: Box::new(lit(3i64)),
            list: vec![Value::Int(1), Value::Null],
            negated: true,
        };
        assert_eq!(e.eval(&t).unwrap(), Value::Null);
    }

    #[test]
    fn between_inclusive_and_null() {
        let t = row(vec![Value::Int(5)]);
        let between = |lo: i64, hi: i64, neg: bool| Expr::Between {
            input: Box::new(col(0)),
            low: Box::new(lit(lo)),
            high: Box::new(lit(hi)),
            negated: neg,
        };
        assert_eq!(between(5, 10, false).eval(&t).unwrap(), Value::Bool(true));
        assert_eq!(between(1, 5, false).eval(&t).unwrap(), Value::Bool(true));
        assert_eq!(between(6, 10, false).eval(&t).unwrap(), Value::Bool(false));
        assert_eq!(between(6, 10, true).eval(&t).unwrap(), Value::Bool(true));
        // 5 BETWEEN NULL AND 3 = FALSE (5 > 3 decides regardless of NULL).
        let e = Expr::Between {
            input: Box::new(col(0)),
            low: Box::new(lit(Value::Null)),
            high: Box::new(lit(3i64)),
            negated: false,
        };
        assert_eq!(e.eval(&t).unwrap(), Value::Bool(false));
    }

    #[test]
    fn split_and_rebuild_conjuncts() {
        let e = Expr::and(
            Expr::and(Expr::eq(col(0), lit(1i64)), Expr::eq(col(1), lit(2i64))),
            Expr::eq(col(2), lit(3i64)),
        );
        let parts = e.split_conjuncts();
        assert_eq!(parts.len(), 3);
        let rebuilt = Expr::conjunction(parts);
        assert_eq!(rebuilt.split_conjuncts().len(), 3);
        assert_eq!(Expr::conjunction(vec![]), lit(true));
    }

    #[test]
    fn referenced_and_remapped_columns() {
        let e = Expr::and(Expr::eq(col(3), lit(1i64)), Expr::eq(col(5), col(3)));
        assert_eq!(
            e.referenced_columns().into_iter().collect::<Vec<_>>(),
            vec![3, 5]
        );
        let r = e.remap_columns(&|i| i - 3);
        assert_eq!(
            r.referenced_columns().into_iter().collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn type_inference() {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("b", DataType::Bool),
        ]);
        assert_eq!(
            Expr::eq(col(0), lit(1i64)).data_type(&schema).unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::binary(BinOp::Add, col(0), lit(1.5))
                .data_type(&schema)
                .unwrap(),
            DataType::Float
        );
        assert!(Expr::eq(col(0), col(1)).data_type(&schema).is_err());
        assert!(Expr::and(col(0), col(2)).data_type(&schema).is_err());
        assert!(Expr::not(col(2)).data_type(&schema).is_ok());
        assert!(Expr::binary(BinOp::Add, col(1), col(1))
            .data_type(&schema)
            .is_err());
    }

    #[test]
    fn constant_folding() {
        // (1 + 2) < 5 folds to TRUE
        let e = Expr::binary(
            BinOp::Lt,
            Expr::binary(BinOp::Add, lit(1i64), lit(2i64)),
            lit(5i64),
        );
        assert_eq!(e.fold_constants(), lit(true));
        // col0 = (2*3) folds the right side only
        let e = Expr::eq(col(0), Expr::binary(BinOp::Mul, lit(2i64), lit(3i64)));
        assert_eq!(e.fold_constants(), Expr::eq(col(0), lit(6i64)));
        // TRUE AND p folds to p
        let p = Expr::eq(col(0), lit(1i64));
        assert_eq!(Expr::and(lit(true), p.clone()).fold_constants(), p);
        // p AND FALSE folds to FALSE
        assert_eq!(
            Expr::and(p.clone(), lit(false)).fold_constants(),
            lit(false)
        );
        // 1/0 stays unfolded (errors only at runtime)
        let e = Expr::binary(BinOp::Div, lit(1i64), lit(0i64));
        assert_eq!(e.fold_constants(), e);
    }

    mod fold_props {
        use super::*;
        use proptest::prelude::*;

        /// Random expression trees over a 3-column INT row.
        fn arb_expr() -> impl Strategy<Value = Expr> {
            let leaf = prop_oneof![
                (0usize..3).prop_map(Expr::Column),
                (-20i64..20).prop_map(lit),
                any::<bool>().prop_map(lit),
            ];
            leaf.prop_recursive(4, 64, 3, |inner| {
                prop_oneof![
                    (
                        prop_oneof![
                            Just(BinOp::Add),
                            Just(BinOp::Sub),
                            Just(BinOp::Mul),
                            Just(BinOp::Eq),
                            Just(BinOp::Lt),
                            Just(BinOp::And),
                            Just(BinOp::Or),
                        ],
                        inner.clone(),
                        inner.clone()
                    )
                        .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                    inner.clone().prop_map(|e| Expr::Unary {
                        op: UnOp::IsNull,
                        input: Box::new(e)
                    }),
                    inner.prop_map(Expr::not),
                ]
            })
        }

        proptest! {
            /// Folding never changes evaluation results (including which
            /// inputs error — modulo the fold's right to *remove* errors by
            /// short-circuiting, so we only compare Ok results).
            #[test]
            fn prop_fold_preserves_semantics(
                e in arb_expr(),
                a in -20i64..20, b in -20i64..20, c in -20i64..20) {
                let t = Tuple::new(vec![Value::Int(a), Value::Int(b), Value::Int(c)]);
                let folded = e.fold_constants();
                match (e.eval(&t), folded.eval(&t)) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "expr {} vs {}", e, folded),
                    (Err(_), _) => {} // original errors: fold may or may not
                    (Ok(x), Err(err)) => {
                        prop_assert!(false, "fold introduced error {err} for {} -> {} (value {x})", e, folded)
                    }
                }
            }

            /// Folding is idempotent.
            #[test]
            fn prop_fold_idempotent(e in arb_expr()) {
                let once = e.fold_constants();
                let twice = once.fold_constants();
                prop_assert_eq!(once, twice);
            }
        }
    }

    mod truth_props {
        use super::*;
        use proptest::prelude::*;

        /// The reference: every node evaluated to a `Value` under Kleene
        /// logic, NULL standing for unknown, with no borrowed operands and
        /// no three-valued test.
        fn kleene(e: &Expr, t: &Tuple) -> Result<Value> {
            let tri = |v: Value| match v {
                Value::Null => Ok(None),
                Value::Bool(b) => Ok(Some(b)),
                other => Err(EvoptError::Execution(format!("non-boolean {other:?}"))),
            };
            let three = |b: Option<bool>| b.map_or(Value::Null, Value::Bool);
            let within = |v: &Value, lo: &Value, hi: &Value| {
                let ge = v.sql_cmp(lo).map(|o| o != Ordering::Less);
                let le = v.sql_cmp(hi).map(|o| o != Ordering::Greater);
                match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }
            };
            Ok(match e {
                Expr::Column(i) => t.value(*i)?.clone(),
                Expr::Literal(v) => v.clone(),
                Expr::Binary { op, left, right } if op.is_logical() => {
                    let decisive = *op == BinOp::Or; // FALSE decides AND, TRUE decides OR
                    let l = kleene(left, t)?;
                    if l == Value::Bool(decisive) {
                        return Ok(l);
                    }
                    let r = kleene(right, t)?;
                    match (tri(l)?, tri(r)?) {
                        (l, r) if l == Some(decisive) || r == Some(decisive) => {
                            Value::Bool(decisive)
                        }
                        (Some(_), Some(_)) => Value::Bool(!decisive),
                        _ => Value::Null,
                    }
                }
                Expr::Binary { op, left, right } => {
                    let (l, r) = (kleene(left, t)?, kleene(right, t)?);
                    match op {
                        BinOp::Add => l.add(&r)?,
                        BinOp::Sub => l.sub(&r)?,
                        BinOp::Mul => l.mul(&r)?,
                        BinOp::Div => l.div(&r)?,
                        BinOp::Mod => l.rem(&r)?,
                        BinOp::Eq => three(l.sql_eq(&r)),
                        BinOp::NotEq => three(l.sql_eq(&r).map(|b| !b)),
                        BinOp::Lt => three(l.sql_cmp(&r).map(|o| o == Ordering::Less)),
                        BinOp::LtEq => three(l.sql_cmp(&r).map(|o| o != Ordering::Greater)),
                        BinOp::Gt => three(l.sql_cmp(&r).map(|o| o == Ordering::Greater)),
                        BinOp::GtEq => three(l.sql_cmp(&r).map(|o| o != Ordering::Less)),
                        BinOp::And | BinOp::Or => unreachable!("logical operators are above"),
                    }
                }
                Expr::Unary { op, input } => {
                    let v = kleene(input, t)?;
                    match op {
                        UnOp::Not => three(tri(v)?.map(|b| !b)),
                        UnOp::Neg => v.neg()?,
                        UnOp::IsNull => Value::Bool(v.is_null()),
                        UnOp::IsNotNull => Value::Bool(!v.is_null()),
                    }
                }
                Expr::Like {
                    input,
                    pattern,
                    negated,
                } => match kleene(input, t)? {
                    Value::Null => Value::Null,
                    Value::Str(s) => Value::Bool(like_match(&s, pattern) != *negated),
                    other => return Err(EvoptError::Execution(format!("LIKE on {other:?}"))),
                },
                Expr::InList {
                    input,
                    list,
                    negated,
                } => {
                    let v = kleene(input, t)?;
                    let hits: Vec<_> = list.iter().map(|item| v.sql_eq(item)).collect();
                    match () {
                        _ if v.is_null() => Value::Null,
                        _ if hits.contains(&Some(true)) => Value::Bool(!*negated),
                        _ if hits.contains(&None) => Value::Null,
                        _ => Value::Bool(*negated),
                    }
                }
                Expr::Between {
                    input,
                    low,
                    high,
                    negated,
                } => {
                    let (v, lo, hi) = (kleene(input, t)?, kleene(low, t)?, kleene(high, t)?);
                    three(within(&v, &lo, &hi).map(|b| b != *negated))
                }
            })
        }

        /// NULL two times in five, else a value `some` draws.
        fn nullable(some: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
            prop_oneof![
                Just(Value::Null),
                Just(Value::Null),
                some.clone(),
                some.clone(),
                some
            ]
        }

        /// Small numbers, the `INT` extremes (for overflow) and NaN; every
        /// third one a `FLOAT`.
        fn number() -> BoxedStrategy<Value> {
            prop_oneof![
                (-3i64..4).prop_map(Value::Int),
                (-3i64..4).prop_map(Value::Int),
                prop_oneof![Just(Value::Int(i64::MAX)), Just(Value::Int(i64::MIN))],
                (-3i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
                prop_oneof![Just(Value::Float(f64::NAN)), Just(Value::Float(0.5))],
            ]
        }

        /// Short strings, multi-byte ones and one holding `%` among them.
        fn string() -> BoxedStrategy<Value> {
            let strings = ["", "a", "ab", "ba", "é", "%a", "日本"];
            (0..strings.len()).prop_map(move |i| Value::Str(strings[i].into()))
        }

        fn boolean() -> BoxedStrategy<Value> {
            any::<bool>().prop_map(Value::Bool)
        }

        /// `(i INT, x FLOAT or INT, s STRING, b BOOL, any)`, NULL-heavy.
        fn row() -> BoxedStrategy<Tuple> {
            let any_value = prop_oneof![number(), string(), boolean()];
            (
                nullable(number()),
                nullable(number()),
                nullable(string()),
                nullable(boolean()),
                nullable(any_value),
            )
                .prop_map(|(i, x, s, b, v)| Tuple::new(vec![i, x, s, b, v]))
        }

        fn op(ops: &'static [BinOp]) -> BoxedStrategy<BinOp> {
            (0..ops.len()).prop_map(move |i| ops[i])
        }

        const ARITHMETIC: &[BinOp] = &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
        const COMPARISONS: &[BinOp] = &[
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ];

        fn unary(op: UnOp, input: Expr) -> Expr {
            Expr::Unary {
                op,
                input: Box::new(input),
            }
        }

        fn compare(op: BinOp, left: Expr, right: Expr) -> Expr {
            Expr::binary(op, left, right)
        }

        /// Numeric columns (and the any-typed one), literals, arithmetic
        /// and negation.
        fn numeric() -> BoxedStrategy<Expr> {
            let leaf = prop_oneof![
                prop_oneof![
                    Just(col(0)),
                    Just(col(1)),
                    Just(col(0)),
                    Just(col(1)),
                    Just(col(4))
                ],
                nullable(number()).prop_map(Expr::Literal),
            ];
            leaf.prop_recursive(2, 8, 2, |inner| {
                prop_oneof![
                    inner.clone(),
                    inner.clone(),
                    (op(ARITHMETIC), inner.clone(), inner.clone())
                        .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                    inner.prop_map(|e| unary(UnOp::Neg, e)),
                ]
            })
        }

        fn text() -> BoxedStrategy<Expr> {
            prop_oneof![Just(col(2)), nullable(string()).prop_map(Expr::Literal)]
        }

        /// Any operand: mostly well typed, sometimes a string or boolean
        /// where a number belongs, or a column past the row's end.
        fn scalar() -> BoxedStrategy<Expr> {
            prop_oneof![
                numeric(),
                numeric(),
                numeric(),
                text(),
                text(),
                Just(col(3)),
                Just(col(5))
            ]
        }

        /// Boolean trees over every node the three-valued test decides, with
        /// comparisons of truth values and, now and then, a non-boolean
        /// operand of AND, OR or NOT.
        fn predicate() -> BoxedStrategy<Expr> {
            let patterns = ["a%", "%a", "_", "%", "", "_b%", "%é", "%%"];
            let null_test = prop_oneof![Just(UnOp::IsNull), Just(UnOp::IsNotNull)];
            let atom = prop_oneof![
                (op(COMPARISONS), numeric(), numeric()).prop_map(|(op, l, r)| compare(op, l, r)),
                (op(COMPARISONS), numeric(), numeric()).prop_map(|(op, l, r)| compare(op, l, r)),
                (op(COMPARISONS), text(), text()).prop_map(|(op, l, r)| compare(op, l, r)),
                (op(COMPARISONS), scalar(), scalar()).prop_map(|(op, l, r)| compare(op, l, r)),
                (null_test.clone(), scalar()).prop_map(|(op, e)| unary(op, e)),
                (
                    prop_oneof![text(), text(), scalar()],
                    0..patterns.len(),
                    any::<bool>()
                )
                    .prop_map(move |(e, p, negated)| Expr::Like {
                        input: Box::new(e),
                        pattern: patterns[p].into(),
                        negated,
                    }),
                (
                    numeric(),
                    prop::collection::vec(nullable(number()), 0..4),
                    any::<bool>()
                )
                    .prop_map(|(e, list, negated)| Expr::InList {
                        input: Box::new(e),
                        list,
                        negated
                    }),
                (numeric(), numeric(), numeric(), any::<bool>()).prop_map(
                    |(e, lo, hi, negated)| {
                        Expr::Between {
                            input: Box::new(e),
                            low: Box::new(lo),
                            high: Box::new(hi),
                            negated,
                        }
                    }
                ),
                prop_oneof![
                    Just(col(3)),
                    Just(col(3)),
                    nullable(boolean()).prop_map(Expr::Literal),
                    scalar()
                ],
            ];
            atom.prop_recursive(3, 32, 2, move |inner| {
                let logic = op(&[BinOp::And, BinOp::Or]);
                prop_oneof![
                    inner.clone(),
                    (logic.clone(), inner.clone(), inner.clone())
                        .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                    (logic, inner.clone(), inner.clone())
                        .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                    inner.clone().prop_map(Expr::not),
                    (op(COMPARISONS), inner.clone(), inner.clone())
                        .prop_map(|(op, l, r)| compare(op, l, r)),
                    (null_test.clone(), inner).prop_map(|(op, e)| unary(op, e)),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// `eval` and `eval_predicate` agree with the reference on every
            /// row: the same value or the same error kind.
            #[test]
            fn prop_truth_agrees_with_the_kleene_reference(
                e in predicate(),
                rows in prop::collection::vec(row(), 8),
            ) {
                for t in rows {
                    let want = kleene(&e, &t);
                    let want_pass = want.clone().and_then(|v| match v {
                        Value::Bool(b) => Ok(b),
                        Value::Null => Ok(false),
                        other => Err(EvoptError::Execution(format!("non-boolean {other:?}"))),
                    });
                    let got = e.eval(&t).map_err(|err| err.kind());
                    prop_assert_eq!(got, want.map_err(|err| err.kind()), "eval of {} on {}", e, t);
                    let got = e.eval_predicate(&t).map_err(|err| err.kind());
                    prop_assert_eq!(got, want_pass.map_err(|err| err.kind()), "predicate {} on {}", e, t);
                }
            }
        }
    }

    #[test]
    fn display_is_parsable_looking() {
        let e = Expr::and(Expr::eq(col(0), lit(1i64)), Expr::not(col(2)));
        assert_eq!(e.to_string(), "((#0 = 1) AND NOT (#2))");
    }
}
