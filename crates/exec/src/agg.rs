//! Aggregation: hash and streaming.
//!
//! [`HashAggregateExec`] groups into an in-memory table of typed
//! accumulators fed from each row's values; [`SortAggregateExec`] streams over
//! an input sorted by the group columns with row-at-a-time accumulators.
//! The two share no accumulation code, which is what makes each the other's
//! differential reference. SQL semantics: aggregates ignore NULL arguments
//! (`COUNT(*)` counts rows); an ungrouped aggregate over an empty input
//! emits one row (COUNT = 0, others NULL); a grouped one emits nothing.
//! GROUP BY uses total-order equality — all NULL keys form one group —
//! unlike join keys (`Value::sql_key_eq`).

use std::collections::HashMap;

use evopt_common::{AggFunc, Batch, EvoptError, Expr, Result, Schema, Tuple, Value};
use evopt_core::physical::PhysAgg;

use crate::executor::{invariant, BatchBuilder, BatchCursor, Executor};

/// One running aggregate over `Value`s: [`SortAggregateExec`]'s state.
#[derive(Debug, Clone)]
enum Accumulator {
    Count(i64),
    Sum { total: Value, seen: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { total: f64, count: i64 },
}

impl Accumulator {
    fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count | AggFunc::CountStar => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum {
                total: Value::Int(0),
                seen: false,
            },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg {
                total: 0.0,
                count: 0,
            },
        }
    }

    /// Feed one argument value (already `Value::Null` for COUNT(*) rows —
    /// the caller passes a marker; see `update`).
    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Accumulator::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::Sum { total, seen } => {
                if !v.is_null() {
                    *total = total.add(v)?;
                    *seen = true;
                }
            }
            Accumulator::Min(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            Accumulator::Max(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
            Accumulator::Avg { total, count } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    fn count_row(&mut self) {
        if let Accumulator::Count(n) = self {
            *n += 1;
        }
    }

    fn finish(&self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(*n),
            Accumulator::Sum { total, seen } => {
                if *seen {
                    total.clone()
                } else {
                    Value::Null
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
            Accumulator::Avg { total, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*total / *count as f64)
                }
            }
        }
    }
}

/// Running SUM total: stays `I` (exact, overflow-checked) until the first
/// `Float` input promotes it, mirroring `Value::add` coercion.
#[derive(Debug, Clone, Copy)]
enum SumState {
    I(i64),
    F(f64),
}

impl SumState {
    fn as_value(&self) -> Value {
        match self {
            SumState::I(x) => Value::Int(*x),
            SumState::F(x) => Value::Float(*x),
        }
    }
}

/// Running MIN/MAX champion: typed fast states for the numeric common
/// case, `V` for the rest (Bool/Str), `Empty` before any non-null input.
#[derive(Debug, Clone)]
enum MinMaxState {
    Empty,
    I(i64),
    F(f64),
    V(Value),
}

impl MinMaxState {
    /// Whether non-null `v` replaces the champion: it is the first input,
    /// or `Value::sql_cmp` puts it on the `wins` side of the champion.
    fn beaten_by(&self, v: &Value, wins: std::cmp::Ordering) -> bool {
        match self {
            MinMaxState::Empty => true,
            MinMaxState::I(x) => v.sql_cmp(&Value::Int(*x)) == Some(wins),
            MinMaxState::F(x) => v.sql_cmp(&Value::Float(*x)) == Some(wins),
            MinMaxState::V(c) => v.sql_cmp(c) == Some(wins),
        }
    }

    fn set(&mut self, v: &Value) {
        *self = match v {
            Value::Int(x) => MinMaxState::I(*x),
            Value::Float(x) => MinMaxState::F(*x),
            other => MinMaxState::V(other.clone()),
        };
    }

    fn finish(&self) -> Value {
        match self {
            MinMaxState::Empty => Value::Null,
            MinMaxState::I(x) => Value::Int(*x),
            MinMaxState::F(x) => Value::Float(*x),
            MinMaxState::V(v) => v.clone(),
        }
    }
}

/// One running aggregate with typed state: the mirror of [`Accumulator`],
/// with native `i64`/`f64` hot paths. Semantics are identical, including
/// `SUM`'s `Int`-until-a-`Float`-appears result type, integer-overflow
/// errors, and total-order MIN/MAX.
#[derive(Debug, Clone)]
enum TypedAcc {
    Count(i64),
    Sum { state: SumState, seen: bool },
    Min(MinMaxState),
    Max(MinMaxState),
    Avg { total: f64, count: i64 },
}

impl TypedAcc {
    fn new(func: AggFunc) -> TypedAcc {
        match func {
            AggFunc::Count | AggFunc::CountStar => TypedAcc::Count(0),
            // SUM starts at Int(0) like the row accumulator: the result
            // stays Int while every input is Int.
            AggFunc::Sum => TypedAcc::Sum {
                state: SumState::I(0),
                seen: false,
            },
            AggFunc::Min => TypedAcc::Min(MinMaxState::Empty),
            AggFunc::Max => TypedAcc::Max(MinMaxState::Empty),
            AggFunc::Avg => TypedAcc::Avg {
                total: 0.0,
                count: 0,
            },
        }
    }

    /// Feed one argument value. NULLs are ignored (SQL aggregate semantics).
    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            TypedAcc::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            TypedAcc::Sum { state, seen } => match (*state, v) {
                (_, Value::Null) => {}
                (SumState::I(a), Value::Int(b)) => {
                    *state =
                        SumState::I(a.checked_add(*b).ok_or_else(|| {
                            EvoptError::Execution("integer overflow in +".into())
                        })?);
                    *seen = true;
                }
                (SumState::I(a), Value::Float(b)) => {
                    *state = SumState::F(a as f64 + b);
                    *seen = true;
                }
                (SumState::F(a), Value::Int(b)) => {
                    *state = SumState::F(a + *b as f64);
                    *seen = true;
                }
                (SumState::F(a), Value::Float(b)) => {
                    *state = SumState::F(a + b);
                    *seen = true;
                }
                (cur, other) => {
                    // Same error [`Accumulator`]'s `Value::add` raises.
                    return Err(EvoptError::Execution(format!(
                        "cannot apply + to {:?} and {other:?}",
                        cur.as_value(),
                    )));
                }
            },
            TypedAcc::Min(cur) => {
                if !v.is_null() && cur.beaten_by(v, std::cmp::Ordering::Less) {
                    cur.set(v);
                }
            }
            TypedAcc::Max(cur) => {
                if !v.is_null() && cur.beaten_by(v, std::cmp::Ordering::Greater) {
                    cur.set(v);
                }
            }
            // Non-numeric (and NULL) arguments are skipped, like the row
            // accumulator.
            TypedAcc::Avg { total, count } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    /// Count one row regardless of argument (COUNT(*)).
    fn count_row(&mut self) {
        if let TypedAcc::Count(n) = self {
            *n += 1;
        }
    }

    fn finish(&self) -> Value {
        match self {
            TypedAcc::Count(n) => Value::Int(*n),
            TypedAcc::Sum { state, seen } => {
                if *seen {
                    state.as_value()
                } else {
                    Value::Null
                }
            }
            TypedAcc::Min(s) | TypedAcc::Max(s) => s.finish(),
            TypedAcc::Avg { total, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*total / *count as f64)
                }
            }
        }
    }
}

/// Group-key index. GROUP BY deliberately uses total-order equality —
/// `Null == Null` groups all NULL keys into one group, which is SQL's
/// grouping rule (unlike join keys; see `Value::sql_key_eq`). The typed
/// fast path keys a single `Int` group column as `Option<i64>` (`None` =
/// the NULL group) and degrades to the generic `Vec<Value>` map at the
/// first row whose group value is any other variant.
enum GroupKeys {
    Int(HashMap<Option<i64>, u32>),
    Generic(HashMap<Vec<Value>, u32>),
}

/// Hash aggregation into [`TypedAcc`] accumulators, fed from the rows. The
/// differential reference is [`SortAggregateExec`] over the same input
/// sorted, which accumulates row at a time into [`Accumulator`]s.
pub struct HashAggregateExec {
    input: Option<Box<dyn Executor>>,
    group_by: Vec<usize>,
    aggs: Vec<PhysAgg>,
    schema: Schema,
    batch_rows: usize,
    results: Option<std::vec::IntoIter<Tuple>>,
}

impl HashAggregateExec {
    pub fn new(
        input: Box<dyn Executor>,
        group_by: Vec<usize>,
        aggs: Vec<PhysAgg>,
        schema: Schema,
        batch_rows: usize,
    ) -> Self {
        HashAggregateExec {
            input: Some(input),
            group_by,
            aggs,
            schema,
            batch_rows: batch_rows.max(1),
            results: None,
        }
    }

    fn compute(&mut self) -> Result<()> {
        let mut input = invariant(self.input.take(), "aggregate computed only once")?;
        let mut keys = if self.group_by.len() == 1 {
            GroupKeys::Int(HashMap::new())
        } else {
            GroupKeys::Generic(HashMap::new())
        };
        // First-seen group order; `group_values` doubles as the output key
        // prefix of each result row.
        let mut group_values: Vec<Vec<Value>> = Vec::new();
        let mut accs: Vec<Vec<TypedAcc>> = Vec::new();
        let fresh = |aggs: &[PhysAgg]| -> Vec<TypedAcc> {
            aggs.iter().map(|a| TypedAcc::new(a.func)).collect()
        };

        while let Some(batch) = input.next_batch()? {
            for t in batch.rows() {
                // The typed key: `Some(None)` is the NULL group.
                let typed = match (&keys, self.group_by.first()) {
                    (GroupKeys::Int(_), Some(&g)) => match t.value(g)? {
                        Value::Int(i) => Some(Some(*i)),
                        Value::Null => Some(None),
                        _ => None,
                    },
                    _ => None,
                };
                // A group value neither `Int` nor NULL ends the typed path:
                // the groups so far move to the generic map.
                if let (GroupKeys::Int(_), None) = (&keys, typed) {
                    keys = GroupKeys::Generic(group_values.iter().cloned().zip(0..).collect());
                }
                let mut new_group = |key: Vec<Value>| {
                    group_values.push(key);
                    accs.push(fresh(&self.aggs));
                    group_values.len() as u32 - 1
                };
                let gidx = match (&mut keys, typed) {
                    (GroupKeys::Int(map), Some(k)) => *map
                        .entry(k)
                        .or_insert_with(|| new_group(vec![k.map_or(Value::Null, Value::Int)])),
                    (GroupKeys::Generic(map), _) => {
                        let key: Vec<Value> = self
                            .group_by
                            .iter()
                            .map(|&g| t.value(g).cloned())
                            .collect::<Result<_>>()?;
                        match map.get(&key) {
                            Some(&idx) => idx,
                            None => {
                                let idx = new_group(key.clone());
                                map.insert(key, idx);
                                idx
                            }
                        }
                    }
                    (GroupKeys::Int(_), None) => {
                        return Err(EvoptError::Internal("typed group keys not migrated".into()))
                    }
                } as usize;
                for (acc, spec) in accs[gidx].iter_mut().zip(&self.aggs) {
                    match (&spec.func, &spec.arg) {
                        (AggFunc::CountStar, _) => acc.count_row(),
                        (_, Some(Expr::Column(c))) => acc.update(t.value(*c)?)?,
                        (_, Some(arg)) => acc.update(&arg.eval(t)?)?,
                        (f, None) => {
                            return Err(EvoptError::Execution(format!("{f} requires an argument")))
                        }
                    }
                }
            }
        }

        let mut rows = Vec::with_capacity(group_values.len().max(1));
        if group_values.is_empty() && self.group_by.is_empty() {
            // Ungrouped aggregate over empty input: one default row.
            let values: Vec<Value> = self
                .aggs
                .iter()
                .map(|a| TypedAcc::new(a.func).finish())
                .collect();
            rows.push(Tuple::new(values));
        } else {
            for (key, group_accs) in group_values.into_iter().zip(&accs) {
                let mut values = key;
                values.extend(group_accs.iter().map(TypedAcc::finish));
                rows.push(Tuple::new(values));
            }
        }
        self.results = Some(rows.into_iter());
        Ok(())
    }
}

impl Executor for HashAggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.results.is_none() {
            self.compute()?;
        }
        let iter = invariant(self.results.as_mut(), "aggregate results computed")?;
        let rows: Vec<Tuple> = iter.by_ref().take(self.batch_rows).collect();
        Ok(if rows.is_empty() {
            None
        } else {
            Some(Batch::new(self.schema.clone(), rows))
        })
    }
}

/// Streaming aggregation over an input sorted by the group columns:
/// accumulate while the key repeats, emit the finished group on change.
/// O(1) state; output arrives in group-key order.
pub struct SortAggregateExec {
    input: BatchCursor,
    group_by: Vec<usize>,
    aggs: Vec<PhysAgg>,
    schema: Schema,
    current_key: Option<Vec<Value>>,
    accs: Vec<Accumulator>,
    done: bool,
    out: BatchBuilder,
}

impl SortAggregateExec {
    pub fn new(
        input: Box<dyn Executor>,
        group_by: Vec<usize>,
        aggs: Vec<PhysAgg>,
        schema: Schema,
        batch_rows: usize,
    ) -> Self {
        SortAggregateExec {
            input: BatchCursor::new(input),
            group_by,
            aggs,
            out: BatchBuilder::new(schema.clone(), batch_rows),
            schema,
            current_key: None,
            accs: Vec::new(),
            done: false,
        }
    }

    fn fresh_accs(&self) -> Vec<Accumulator> {
        self.aggs.iter().map(|a| Accumulator::new(a.func)).collect()
    }

    fn feed(&mut self, t: &Tuple) -> Result<()> {
        for (i, spec) in self.aggs.iter().enumerate() {
            match (&spec.func, &spec.arg) {
                (AggFunc::CountStar, _) => self.accs[i].count_row(),
                (_, Some(arg)) => self.accs[i].update(&arg.eval(t)?)?,
                (f, None) => {
                    return Err(EvoptError::Execution(format!("{f} requires an argument")))
                }
            }
        }
        Ok(())
    }

    fn emit(&mut self) -> Result<Tuple> {
        let key = invariant(self.current_key.take(), "group open at emit")?;
        let mut values = key;
        values.extend(self.accs.iter().map(|a| a.finish()));
        Ok(Tuple::new(values))
    }
}

impl Executor for SortAggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if self.out.full() || self.done {
                return Ok(self.out.flush());
            }
            match self.input.next_row()? {
                None => {
                    self.done = true;
                    if self.current_key.is_some() {
                        let finished = self.emit()?;
                        self.out.push(finished);
                    } else if self.group_by.is_empty() {
                        // Ungrouped aggregate over empty input: one default
                        // row.
                        let values: Vec<Value> = self
                            .aggs
                            .iter()
                            .map(|a| Accumulator::new(a.func).finish())
                            .collect();
                        self.out.push(Tuple::new(values));
                    }
                }
                Some(t) => {
                    let key: Vec<Value> = self
                        .group_by
                        .iter()
                        .map(|&g| t.value(g).cloned())
                        .collect::<Result<_>>()?;
                    match &self.current_key {
                        // Group-change test uses derived (total-order)
                        // equality, like the hash variant's map: NULL keys
                        // continue the same group, as GROUP BY requires.
                        Some(cur) if *cur == key => {
                            self.feed(&t)?;
                        }
                        Some(_) => {
                            let finished = self.emit()?;
                            self.out.push(finished);
                            self.current_key = Some(key);
                            self.accs = self.fresh_accs();
                            self.feed(&t)?;
                        }
                        None => {
                            self.current_key = Some(key);
                            self.accs = self.fresh_accs();
                            self.feed(&t)?;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn typed_sum_mirrors_row_accumulator() {
        let mut acc = TypedAcc::new(AggFunc::Sum);
        acc.update(&Value::Int(2)).unwrap();
        acc.update(&Value::Null).unwrap();
        acc.update(&Value::Int(3)).unwrap();
        assert_eq!(acc.finish(), Value::Int(5));
        // A float input promotes the running total to Float.
        acc.update(&Value::Float(0.5)).unwrap();
        assert_eq!(acc.finish(), Value::Float(5.5));
        acc.update(&Value::Int(1)).unwrap();
        assert_eq!(acc.finish(), Value::Float(6.5));
        // Overflow errors instead of wrapping.
        let mut acc = TypedAcc::new(AggFunc::Sum);
        acc.update(&Value::Int(i64::MAX)).unwrap();
        assert!(acc.update(&Value::Int(1)).is_err());
        // Non-numeric input errors like Value::add.
        let mut acc = TypedAcc::new(AggFunc::Sum);
        assert!(acc.update(&Value::Str("x".into())).is_err());
        // No inputs → NULL.
        assert_eq!(TypedAcc::new(AggFunc::Sum).finish(), Value::Null);
    }

    #[test]
    fn typed_min_max_use_total_order() {
        let mut mn = TypedAcc::new(AggFunc::Min);
        let mut mx = TypedAcc::new(AggFunc::Max);
        for v in [Value::Int(3), Value::Float(2.5), Value::Null, Value::Int(7)] {
            mn.update(&v).unwrap();
            mx.update(&v).unwrap();
        }
        assert_eq!(mn.finish(), Value::Float(2.5));
        assert_eq!(mx.finish(), Value::Int(7));
        // Ties keep the first-seen value (like [`Accumulator`]'s strict `<`).
        let mut mn = TypedAcc::new(AggFunc::Min);
        mn.update(&Value::Int(2)).unwrap();
        mn.update(&Value::Float(2.0)).unwrap();
        assert_eq!(mn.finish(), Value::Int(2));
        // Strings via the generic state.
        let mut mx = TypedAcc::new(AggFunc::Max);
        mx.update(&Value::Str("a".into())).unwrap();
        mx.update(&Value::Str("c".into())).unwrap();
        mx.update(&Value::Str("b".into())).unwrap();
        assert_eq!(mx.finish(), Value::Str("c".into()));
    }

    #[test]
    fn typed_count_and_avg() {
        let mut c = TypedAcc::new(AggFunc::Count);
        let mut a = TypedAcc::new(AggFunc::Avg);
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            c.update(&v).unwrap();
            a.update(&v).unwrap();
        }
        assert_eq!(c.finish(), Value::Int(2));
        assert_eq!(a.finish(), Value::Float(2.0));
        assert_eq!(TypedAcc::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(TypedAcc::new(AggFunc::Count).finish(), Value::Int(0));
    }
}
