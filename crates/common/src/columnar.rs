//! Typed column vectors: what the executor's typed operators transpose the
//! columns they need into.
//!
//! A [`ColumnVector`] stores one column's values in a typed Rust vector
//! (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`, `Vec<String>`) paired with a
//! validity bitmap (one bit per slot; a cleared bit means SQL NULL and the
//! slot's payload is a don't-care default).
//!
//! Because [`Value`] is dynamically typed, a column *declared* `FLOAT` can
//! legally hold `Int` values (insertion widens `INT → FLOAT` at the type
//! level but keeps the runtime variant). Collapsing such a column to
//! `Vec<f64>` would change observable results (`SUM` over all-`Int` inputs
//! must stay `Int`), so conversion is value-driven: a column gets a typed
//! vector only when every non-null value shares one runtime variant, and
//! falls back to [`ColumnData::Any`] (a plain `Vec<Value>`) otherwise. The
//! typed operators check the representation and take the exact generic path
//! on `Any`, so they agree bit for bit with row-at-a-time evaluation.

use crate::error::Result;
use crate::tuple::Tuple;
use crate::value::Value;

/// Validity bitmap: one bit per slot, set = non-NULL.
#[derive(Debug, Clone, Default)]
pub struct Validity {
    words: Vec<u64>,
    len: usize,
}

impl Validity {
    pub fn with_capacity(capacity: usize) -> Validity {
        Validity {
            words: Vec::with_capacity(capacity.div_ceil(64)),
            len: 0,
        }
    }

    /// Append one slot's validity bit.
    pub fn push(&mut self, is_valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if is_valid {
            self.words[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Whether slot `i` is non-NULL. Out-of-range reads are NULL.
    pub fn is_valid(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// The typed payload of one column. Invalid (NULL) slots hold an arbitrary
/// default; only the validity bitmap distinguishes them.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<String>),
    /// Exactness fallback for columns whose non-null values mix runtime
    /// variants (e.g. `Int` rows stored in a declared-`FLOAT` column).
    Any(Vec<Value>),
}

/// A borrowed, non-owning view of one slot — lets operators compare and
/// accumulate without materialising a [`Value`] (no `String` clones).
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    Null,
    I(i64),
    F(f64),
    B(bool),
    S(&'a str),
}

impl<'a> Cell<'a> {
    pub fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::I(*i),
            Value::Float(f) => Cell::F(*f),
            Value::Bool(b) => Cell::B(*b),
            Value::Str(s) => Cell::S(s),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Owned [`Value`] (clones strings).
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::I(i) => Value::Int(i),
            Cell::F(f) => Value::Float(f),
            Cell::B(b) => Value::Bool(b),
            Cell::S(s) => Value::Str(s.to_owned()),
        }
    }

    /// Rank of the cell's class in the engine's total order; mirrors
    /// `Value`'s class ranking (`Bool` < numeric < `Str`). NULL has no rank.
    fn class_rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::B(_) => 1,
            Cell::I(_) | Cell::F(_) => 2,
            Cell::S(_) => 3,
        }
    }
}

/// Total-order comparison of two non-null cells, exactly mirroring
/// `Value::cmp` (ints and floats compare numerically via `total_cmp`, class
/// rank decides across classes). Returns `None` when either side is NULL —
/// i.e. the same contract as `Value::sql_cmp`.
pub fn cell_cmp(a: Cell<'_>, b: Cell<'_>) -> Option<std::cmp::Ordering> {
    if a.is_null() || b.is_null() {
        return None;
    }
    let (ra, rb) = (a.class_rank(), b.class_rank());
    if ra != rb {
        return Some(ra.cmp(&rb));
    }
    Some(match (a, b) {
        (Cell::B(x), Cell::B(y)) => x.cmp(&y),
        (Cell::I(x), Cell::I(y)) => x.cmp(&y),
        (Cell::F(x), Cell::F(y)) => x.total_cmp(&y),
        (Cell::I(x), Cell::F(y)) => (x as f64).total_cmp(&y),
        (Cell::F(x), Cell::I(y)) => x.total_cmp(&(y as f64)),
        (Cell::S(x), Cell::S(y)) => x.cmp(y),
        // Unreachable while class_rank stays in sync with the variants.
        _ => std::cmp::Ordering::Equal,
    })
}

/// One column: typed data plus its validity bitmap.
#[derive(Debug, Clone)]
pub struct ColumnVector {
    pub data: ColumnData,
    validity: Validity,
}

impl ColumnVector {
    /// Extract column `col` from a run of rows. Picks the typed
    /// representation when every non-null value shares one runtime variant;
    /// falls back to [`ColumnData::Any`] otherwise (see module docs).
    pub fn from_rows(rows: &[Tuple], col: usize) -> Result<ColumnVector> {
        // Decide the representation in one scan over the runtime variants.
        let mut variant: Option<u8> = None; // 0=Int 1=Float 2=Bool 3=Str
        let mut mixed = false;
        for t in rows {
            let tag = match t.value(col)? {
                Value::Null => continue,
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Str(_) => 3,
            };
            match variant {
                None => variant = Some(tag),
                Some(v) if v == tag => {}
                Some(_) => {
                    mixed = true;
                    break;
                }
            }
        }
        let mut validity = Validity::with_capacity(rows.len());
        let data = if mixed {
            let mut out = Vec::with_capacity(rows.len());
            for t in rows {
                let v = t.value(col)?;
                validity.push(!v.is_null());
                out.push(v.clone());
            }
            ColumnData::Any(out)
        } else {
            match variant {
                // All-NULL columns: any typed vector works; Int is cheapest.
                None | Some(0) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for t in rows {
                        match t.value(col)? {
                            Value::Int(i) => {
                                validity.push(true);
                                out.push(*i);
                            }
                            _ => {
                                validity.push(false);
                                out.push(0);
                            }
                        }
                    }
                    ColumnData::Int(out)
                }
                Some(1) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for t in rows {
                        match t.value(col)? {
                            Value::Float(f) => {
                                validity.push(true);
                                out.push(*f);
                            }
                            _ => {
                                validity.push(false);
                                out.push(0.0);
                            }
                        }
                    }
                    ColumnData::Float(out)
                }
                Some(2) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for t in rows {
                        match t.value(col)? {
                            Value::Bool(b) => {
                                validity.push(true);
                                out.push(*b);
                            }
                            _ => {
                                validity.push(false);
                                out.push(false);
                            }
                        }
                    }
                    ColumnData::Bool(out)
                }
                _ => {
                    let mut out = Vec::with_capacity(rows.len());
                    for t in rows {
                        match t.value(col)? {
                            Value::Str(s) => {
                                validity.push(true);
                                out.push(s.clone());
                            }
                            _ => {
                                validity.push(false);
                                out.push(String::new());
                            }
                        }
                    }
                    ColumnData::Str(out)
                }
            }
        };
        Ok(ColumnVector { data, validity })
    }

    /// Borrowed view of slot `i` (NULL for invalid or out-of-range slots).
    pub fn cell(&self, i: usize) -> Cell<'_> {
        if !self.validity.is_valid(i) {
            return Cell::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Cell::I(v[i]),
            ColumnData::Float(v) => Cell::F(v[i]),
            ColumnData::Bool(v) => Cell::B(v[i]),
            ColumnData::Str(v) => Cell::S(&v[i]),
            ColumnData::Any(v) => Cell::of(&v[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::cmp::Ordering;

    fn sample_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Int(1),
                Value::Float(1.5),
                Value::Str("a".into()),
                Value::Bool(true),
            ]),
            Tuple::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
            Tuple::new(vec![
                Value::Int(-3),
                Value::Float(-0.0),
                Value::Str("".into()),
                Value::Bool(false),
            ]),
        ]
    }

    #[test]
    fn round_trip_preserves_values_and_nulls() {
        let rows = sample_rows();
        for c in 0..4 {
            let cv = ColumnVector::from_rows(&rows, c).unwrap();
            for (r, t) in rows.iter().enumerate() {
                assert_eq!(
                    &cv.cell(r).to_value(),
                    t.value(c).unwrap(),
                    "row {r} column {c}"
                );
            }
            assert!(cv.cell(rows.len()).is_null(), "past the end reads NULL");
        }
        // -0.0 must survive the round trip bit-exactly.
        let f = ColumnVector::from_rows(&rows, 1).unwrap();
        assert!(matches!(f.cell(2), Cell::F(x) if x.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn typed_representation_chosen_per_runtime_variant() {
        let rows = sample_rows();
        let data = |c| ColumnVector::from_rows(&rows, c).unwrap().data;
        assert!(matches!(data(0), ColumnData::Int(_)));
        assert!(matches!(data(1), ColumnData::Float(_)));
        assert!(matches!(data(2), ColumnData::Str(_)));
        assert!(matches!(data(3), ColumnData::Bool(_)));
    }

    #[test]
    fn mixed_int_float_column_falls_back_to_any() {
        // A declared-FLOAT column holding an Int value (legal: INT widens to
        // FLOAT at the type level) must keep the Int variant observable.
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Float(2.5)]),
        ];
        let cv = ColumnVector::from_rows(&rows, 0).unwrap();
        assert!(matches!(cv.data, ColumnData::Any(_)));
        assert_eq!(cv.cell(0).to_value(), Value::Int(1));
        assert_eq!(cv.cell(1).to_value(), Value::Float(2.5));
    }

    #[test]
    fn validity_bitmap_across_word_boundary() {
        let mut v = Validity::with_capacity(130);
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        for i in 0..130 {
            assert_eq!(v.is_valid(i), i % 3 != 0, "slot {i}");
        }
        assert!(!v.is_valid(130));
        assert!(!v.is_valid(500));
    }

    #[test]
    fn all_null_column_is_typed_with_empty_validity() {
        let rows = vec![Tuple::new(vec![Value::Null]), Tuple::new(vec![Value::Null])];
        let cv = ColumnVector::from_rows(&rows, 0).unwrap();
        assert!(matches!(cv.data, ColumnData::Int(_)));
        assert!(cv.cell(0).is_null());
        assert_eq!(cv.cell(1).to_value(), Value::Null);
    }

    #[test]
    fn cell_cmp_mirrors_value_total_order() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(7),
            Value::Float(7.0),
            Value::Float(f64::NAN),
            Value::Str("a".into()),
        ];
        for a in &vals {
            for b in &vals {
                let expect = a.sql_cmp(b);
                assert_eq!(
                    cell_cmp(Cell::of(a), Cell::of(b)),
                    expect,
                    "cell_cmp({a:?}, {b:?})"
                );
            }
        }
        // Int/Float cross-class numeric equality.
        assert_eq!(cell_cmp(Cell::I(7), Cell::F(7.0)), Some(Ordering::Equal));
        assert_eq!(
            cell_cmp(Cell::F(0.0), Cell::F(-0.0)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn out_of_range_column_errors() {
        assert!(ColumnVector::from_rows(&sample_rows(), 9).is_err());
    }
}
