//! Aggregation: hash and streaming.
//!
//! [`HashAggregateExec`] groups through one map keyed on the group columns'
//! `Value`s; [`SortAggregateExec`] streams over an input sorted by the group
//! columns. Both accumulate into the same [`Accumulator`]s, whose semantics
//! the unit tests below pin with expected values; each operator is the
//! other's differential reference for grouping. SQL semantics: aggregates
//! ignore NULL arguments (`COUNT(*)` counts rows); an ungrouped aggregate
//! over an empty input emits one row (COUNT = 0, others NULL); a grouped
//! one emits nothing. GROUP BY uses total-order equality — all NULL keys
//! form one group — unlike join keys (`Value::sql_key_eq`). A group key is
//! copied only when the group opens.

use evopt_common::{AggFunc, Batch, EvoptError, Expr, Result, Schema, Tuple, Value};
use evopt_core::physical::PhysAgg;

use crate::executor::{invariant, BatchBuilder, BatchCursor, Executor};
use crate::join_key::KeyMap;

/// One running aggregate over `Value`s: the state of both aggregates.
#[derive(Debug)]
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

    /// Feed one argument value. NULLs are ignored (SQL aggregate
    /// semantics); `COUNT(*)` counts rows through `count_row` instead.
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

/// A fresh accumulator per aggregate: the state of one new group.
fn fresh(aggs: &[PhysAgg]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func)).collect()
}

/// Feed row `t` to a group's accumulators. A bare column argument is read
/// by reference; any other argument is evaluated.
fn feed(accs: &mut [Accumulator], aggs: &[PhysAgg], t: &Tuple) -> Result<()> {
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match (&spec.func, &spec.arg) {
            (AggFunc::CountStar, _) => acc.count_row(),
            (_, Some(Expr::Column(c))) => acc.update(t.value(*c)?)?,
            (_, Some(arg)) => acc.update(&arg.eval(t)?)?,
            (f, None) => return Err(EvoptError::Execution(format!("{f} requires an argument"))),
        }
    }
    Ok(())
}

/// The one row an ungrouped aggregate emits over an empty input.
fn empty_input_row(aggs: &[PhysAgg]) -> Tuple {
    Tuple::new(fresh(aggs).iter().map(Accumulator::finish).collect())
}

/// Hash aggregation: one map from the group key to the group's index,
/// groups emitted in first-seen order. GROUP BY deliberately uses
/// total-order equality — `Null == Null` groups all NULL keys into one
/// group, which is SQL's grouping rule (unlike join keys; see
/// `Value::sql_key_eq`). The differential reference is
/// [`SortAggregateExec`] over the same input sorted.
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
        let mut index: KeyMap<Vec<Value>, u32> = KeyMap::default();
        // One entry per group, in first-seen order.
        let mut accs: Vec<Vec<Accumulator>> = Vec::new();
        // The probe key, refilled for every row; a copy is kept only when
        // it opens a group.
        let mut key: Vec<Value> = Vec::with_capacity(self.group_by.len());
        while let Some(batch) = input.next_batch()? {
            for t in batch.rows() {
                key.clear();
                for &g in &self.group_by {
                    key.push(t.value(g)?.clone());
                }
                let gidx = match index.get(key.as_slice()) {
                    Some(&i) => i as usize,
                    None => {
                        index.insert(key.clone(), accs.len() as u32);
                        accs.push(fresh(&self.aggs));
                        accs.len() - 1
                    }
                };
                feed(&mut accs[gidx], &self.aggs, t)?;
            }
        }

        let rows = if accs.is_empty() && self.group_by.is_empty() {
            vec![empty_input_row(&self.aggs)]
        } else {
            let mut keys = vec![Vec::new(); accs.len()];
            for (k, i) in index {
                keys[i as usize] = k;
            }
            keys.into_iter()
                .zip(&accs)
                .map(|(mut values, group_accs)| {
                    values.extend(group_accs.iter().map(Accumulator::finish));
                    Tuple::new(values)
                })
                .collect()
        };
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

    /// Whether `t` continues the open group. The test uses total-order
    /// equality, like the hash variant's map: NULL keys continue the same
    /// group, as GROUP BY requires.
    fn continues_group(&self, t: &Tuple) -> Result<bool> {
        let Some(cur) = &self.current_key else {
            return Ok(false);
        };
        for (k, &g) in cur.iter().zip(&self.group_by) {
            if k != t.value(g)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn emit(&mut self) -> Result<Tuple> {
        let mut values = invariant(self.current_key.take(), "group open at emit")?;
        values.extend(self.accs.iter().map(Accumulator::finish));
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
                        self.out.push(empty_input_row(&self.aggs));
                    }
                }
                Some(t) => {
                    if !self.continues_group(&t)? {
                        if self.current_key.is_some() {
                            let finished = self.emit()?;
                            self.out.push(finished);
                        }
                        let key = self
                            .group_by
                            .iter()
                            .map(|&g| t.value(g).cloned())
                            .collect::<Result<_>>()?;
                        self.current_key = Some(key);
                        self.accs = fresh(&self.aggs);
                    }
                    feed(&mut self.accs, &self.aggs, &t)?;
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
    fn sum_stays_int_until_a_float_and_checks_overflow() {
        let mut acc = Accumulator::new(AggFunc::Sum);
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
        let mut acc = Accumulator::new(AggFunc::Sum);
        acc.update(&Value::Int(i64::MAX)).unwrap();
        assert!(acc.update(&Value::Int(1)).is_err());
        // Non-numeric input raises Value::add's error.
        let mut acc = Accumulator::new(AggFunc::Sum);
        assert!(acc.update(&Value::Str("x".into())).is_err());
        // No inputs → NULL.
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Value::Null);
    }

    #[test]
    fn min_max_use_total_order() {
        let mut mn = Accumulator::new(AggFunc::Min);
        let mut mx = Accumulator::new(AggFunc::Max);
        for v in [Value::Int(3), Value::Float(2.5), Value::Null, Value::Int(7)] {
            mn.update(&v).unwrap();
            mx.update(&v).unwrap();
        }
        assert_eq!(mn.finish(), Value::Float(2.5));
        assert_eq!(mx.finish(), Value::Int(7));
        // Ties keep the first-seen value (a strict `<`).
        let mut mn = Accumulator::new(AggFunc::Min);
        mn.update(&Value::Int(2)).unwrap();
        mn.update(&Value::Float(2.0)).unwrap();
        assert_eq!(mn.finish(), Value::Int(2));
        // Strings.
        let mut mx = Accumulator::new(AggFunc::Max);
        mx.update(&Value::Str("a".into())).unwrap();
        mx.update(&Value::Str("c".into())).unwrap();
        mx.update(&Value::Str("b".into())).unwrap();
        assert_eq!(mx.finish(), Value::Str("c".into()));
    }

    #[test]
    fn count_and_avg_ignore_nulls() {
        let mut c = Accumulator::new(AggFunc::Count);
        let mut a = Accumulator::new(AggFunc::Avg);
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            c.update(&v).unwrap();
            a.update(&v).unwrap();
        }
        assert_eq!(c.finish(), Value::Int(2));
        assert_eq!(a.finish(), Value::Float(2.0));
        assert_eq!(Accumulator::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Count).finish(), Value::Int(0));
    }
}
