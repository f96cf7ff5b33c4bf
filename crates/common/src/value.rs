//! Scalar values and their data types.
//!
//! [`Value`] is the engine's dynamically-typed runtime scalar. It carries a
//! **total order** (`Null` sorts first, then booleans, integers and floats in
//! one numeric class, then strings) so tuples can be sorted and B+-tree keys
//! compared without panicking, and a hash implementation consistent with
//! equality so values can key hash tables in joins and aggregation.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{EvoptError, Result};

/// The static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
}

impl DataType {
    /// True when the type participates in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The common type two operands coerce to for comparison/arithmetic, if
    /// one exists.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        match (self, other) {
            (a, b) if a == b => Some(a),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Some(DataType::Float)
            }
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares equal to itself under the *total* order (needed
    /// for sorting and grouping) but is filtered by three-valued logic in
    /// predicate evaluation.
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// The runtime type, or `None` for `Null` (which inhabits every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and histogram bucketing; integers
    /// widen losslessly (within f64 mantissa) to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank of the value's class in the total order. `Null` < `Bool` <
    /// numeric < `Str`.
    fn class_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// SQL equality under three-valued logic: any comparison with NULL is
    /// unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other) == Ordering::Equal)
    }

    /// SQL ordering comparison under three-valued logic.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }

    /// Join-key equality: SQL semantics collapsed to a boolean. NULL keys
    /// never match — including `NULL = NULL`. This is what every join
    /// family must use for key comparison; the derived `Eq` (which treats
    /// `Null == Null` as equal) is only for total-order contexts such as
    /// ORDER BY and GROUP BY.
    pub fn sql_key_eq(&self, other: &Value) -> bool {
        self.sql_eq(other) == Some(true)
    }

    /// Checked addition with Int/Float coercion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Checked subtraction with Int/Float coercion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Checked multiplication with Int/Float coercion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Division: integer division for two Ints, float otherwise. Division by
    /// zero is an execution error (by NULL it is NULL).
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(EvoptError::Execution("division by zero".into())),
            // `i64::MIN / -1` overflows: an error, not a panic.
            (Value::Int(a), Value::Int(b)) => a
                .checked_div(*b)
                .map(Value::Int)
                .ok_or_else(|| EvoptError::Execution("integer overflow in /".into())),
            _ => {
                let (a, b) = require_numeric(self, other, "/")?;
                if b == 0.0 {
                    Err(EvoptError::Execution("division by zero".into()))
                } else {
                    Ok(Value::Float(a / b))
                }
            }
        }
    }

    /// Modulo for integers.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(EvoptError::Execution("modulo by zero".into())),
            (Value::Int(a), Value::Int(b)) => a
                .checked_rem(*b)
                .map(Value::Int)
                .ok_or_else(|| EvoptError::Execution("integer overflow in %".into())),
            _ => Err(EvoptError::Execution(format!(
                "cannot apply % to {self:?} and {other:?}"
            ))),
        }
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| EvoptError::Execution("integer overflow in negation".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EvoptError::Execution(format!("cannot negate {other:?}"))),
        }
    }
}

fn require_numeric(a: &Value, b: &Value, op: &str) -> Result<(f64, f64)> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EvoptError::Execution(format!(
            "cannot apply {op} to {a:?} and {b:?}"
        ))),
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    op: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| EvoptError::Execution(format!("integer overflow in {op}"))),
        _ => {
            let (x, y) = require_numeric(a, b, op)?;
            Ok(Value::Float(float_op(x, y)))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: class rank first, then within-class comparison. Ints and
    /// floats compare numerically in one class, exactly (`2^53 + 1` is above
    /// the float `2^53`); NaN sorts above all other floats (total_cmp
    /// semantics) so sorting never panics.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.class_rank(), other.class_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Unreachable while class_rank stays in sync with the variant
            // list; Equal keeps Ord total (and sorting panic-free) even if
            // it drifts.
            _ => Ordering::Equal,
        }
    }
}

/// `a` against `b` exactly, where `a as f64` would round past 2^53. An
/// `Int` sits where `total_cmp` puts the float it converts to among NaN,
/// the infinities and the zeros: above `-0.0`, equal to `0.0` alone.
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    if !b.is_finite() || b == 0.0 {
        return (a as f64).total_cmp(&b);
    }
    // `b`'s integral part converts exactly (or saturates, far past any
    // `i64`); its fraction, signed like `b`, breaks the tie.
    let whole = i128::from(a).cmp(&(b.trunc() as i128));
    whole.then_with(|| 0.0f64.total_cmp(&b.fract()))
}

impl Hash for Value {
    /// Hash consistent with `Eq`: two floats are equal **iff** their bits
    /// are (`f64::total_cmp`), and an `Int` equals only the float holding it
    /// exactly — so hashing `to_bits` of the numeric value is consistent
    /// (`Int(7)` hashes like `Float(7.0)`, and `Int(2^53 + 1)` too).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.class_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_across_classes() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert!(matches!(vals[4], Value::Str(_)));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
    }

    #[test]
    fn int_float_compare_exactly_past_2_pow_53() {
        let two_53 = 1i64 << 53;
        let f = Value::Float(two_53 as f64);
        assert_eq!(Value::Int(two_53), f);
        assert!(Value::Int(two_53 + 1) > f);
        assert!(Value::Int(two_53 - 1) < f);
        assert!(f < Value::Int(two_53 + 1));
        assert_eq!(hash_of(&Value::Int(two_53)), hash_of(&f));
        // The ends of the `i64` range against the floats just past them.
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64)); // 2^63
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(i64::MIN) > Value::Float(-9.3e18));
        // Fractions either side of an integer, negative ones included.
        assert!(Value::Int(-2) > Value::Float(-2.5));
        assert!(Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Int(0) > Value::Float(-0.5));
        assert!(Value::Int(2) < Value::Float(2.5));
    }

    #[test]
    fn int_float_keep_the_special_floats_where_they_were() {
        // The zeros, infinities and NaNs order against an `Int` as they
        // order against the float it converts to.
        for i in [i64::MIN, -1, 0, 1, i64::MAX] {
            for f in [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
            ] {
                let want = (i as f64).total_cmp(&f);
                assert_eq!(Value::Int(i).cmp(&Value::Float(f)), want, "{i} vs {f}");
                assert_eq!(
                    Value::Float(f).cmp(&Value::Int(i)),
                    want.reverse(),
                    "{f} vs {i}"
                );
            }
        }
    }

    #[test]
    fn hash_consistent_with_eq_for_mixed_numerics() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
        // total_cmp distinguishes the zero signs; hash does too.
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_ne!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn nan_equals_itself_in_total_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn sql_eq_propagates_null() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn sql_key_eq_rejects_null_keys() {
        assert!(!Value::Null.sql_key_eq(&Value::Null));
        assert!(!Value::Null.sql_key_eq(&Value::Int(1)));
        assert!(!Value::Int(1).sql_key_eq(&Value::Null));
        assert!(Value::Int(1).sql_key_eq(&Value::Int(1)));
        assert!(Value::Int(7).sql_key_eq(&Value::Float(7.0)));
        assert!(!Value::Int(1).sql_key_eq(&Value::Int(2)));
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Float(7.0).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn arithmetic_overflow_is_error_not_panic() {
        let e = Value::Int(i64::MAX).add(&Value::Int(1)).unwrap_err();
        assert_eq!(e.kind(), "execution");
        let e = Value::Int(i64::MIN).neg().unwrap_err();
        assert_eq!(e.kind(), "execution");
        let e = Value::Int(i64::MIN).div(&Value::Int(-1)).unwrap_err();
        assert_eq!(e.kind(), "execution");
        let e = Value::Int(i64::MIN).rem(&Value::Int(-1)).unwrap_err();
        assert_eq!(e.kind(), "execution");
    }

    #[test]
    fn division_by_zero_errors_but_null_propagates() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Float(1.0).div(&Value::Float(0.0)).is_err());
        assert_eq!(Value::Null.div(&Value::Int(0)).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_on_strings_errors() {
        assert!(Value::Str("a".into()).add(&Value::Int(1)).is_err());
        assert!(Value::Bool(true).mul(&Value::Int(1)).is_err());
    }

    #[test]
    fn unify_types() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Str.unify(DataType::Str), Some(DataType::Str));
        assert_eq!(DataType::Bool.unify(DataType::Int), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }
}
