//! Base-relation access: sequential and index scans.

use std::ops::Bound;
use std::sync::Arc;

use evopt_catalog::TableInfo;
use evopt_common::{Batch, EvoptError, Expr, Result, Schema, Tuple};
use evopt_core::physical::KeyRange;
use evopt_storage::btree::BTreeRangeScan;
use evopt_storage::heap::HeapScan;
use evopt_storage::Rid;

use crate::executor::{ExecEnv, Executor};

/// A base-table access path: hands back each surviving row together with
/// its address. `next_batch` keeps the tuple; the row-finding half of
/// UPDATE/DELETE ([`crate::run_collect_rids`]) keeps both.
pub(crate) trait RidScan: Executor {
    fn next_match(&mut self) -> Result<Option<(Rid, Tuple)>>;

    /// One batch of up to `batch_rows` surviving rows.
    fn fill_batch(&mut self, batch_rows: usize) -> Result<Option<Batch>> {
        let mut batch = Batch::with_capacity(self.schema().clone(), batch_rows);
        while batch.len() < batch_rows {
            match self.next_match()? {
                Some((_, tuple)) => batch.push(tuple),
                None => break,
            }
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

/// Full heap scan with an optional pushed-down filter; fills one batch of
/// surviving rows per `next_batch()` call.
pub struct SeqScanExec {
    schema: Schema,
    scan: HeapScan,
    filter: Option<Expr>,
    batch_rows: usize,
}

impl SeqScanExec {
    pub fn new(
        env: &ExecEnv,
        table: &str,
        filter: Option<Expr>,
        schema: Schema,
    ) -> Result<SeqScanExec> {
        let info = env.catalog.table(table)?;
        Ok(SeqScanExec {
            schema,
            scan: info.heap.scan(),
            filter,
            batch_rows: env.batch_rows,
        })
    }
}

impl RidScan for SeqScanExec {
    fn next_match(&mut self) -> Result<Option<(Rid, Tuple)>> {
        for item in self.scan.by_ref() {
            let (rid, tuple) = item?;
            if let Some(f) = &self.filter {
                if !f.eval_predicate(&tuple)? {
                    continue;
                }
            }
            return Ok(Some((rid, tuple)));
        }
        Ok(None)
    }
}

impl Executor for SeqScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.fill_batch(self.batch_rows)
    }
}

/// Index-driven scan: walk the B+-tree range, fetch heap tuples, apply the
/// residual filter. I/O = tree descent + leaf pages + heap fetches — the
/// exact pattern the cost model prices.
pub struct IndexScanExec {
    schema: Schema,
    heap: Arc<TableInfo>,
    range_scan: BTreeRangeScan,
    /// The indexed column's ordinal in a heap row.
    key_column: usize,
    residual: Option<Expr>,
    batch_rows: usize,
}

impl IndexScanExec {
    pub fn new(
        env: &ExecEnv,
        table: &str,
        index: &str,
        range: KeyRange,
        residual: Option<Expr>,
        schema: Schema,
    ) -> Result<IndexScanExec> {
        let info = env.catalog.table(table)?;
        let idx = info
            .indexes()
            .iter()
            .find(|i| i.name == index)
            .ok_or_else(|| {
                EvoptError::Execution(format!("unknown index '{index}' on '{table}'"))
            })?;
        let low = bound_ref(&range.low);
        let high = bound_ref(&range.high);
        let range_scan = idx.btree.range(low, high)?;
        let key_column = idx.column;
        Ok(IndexScanExec {
            schema,
            heap: info,
            range_scan,
            key_column,
            residual,
            batch_rows: env.batch_rows,
        })
    }
}

fn bound_ref(b: &Bound<evopt_common::Value>) -> Bound<&evopt_common::Value> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
    }
}

impl RidScan for IndexScanExec {
    fn next_match(&mut self) -> Result<Option<(Rid, Tuple)>> {
        for item in self.range_scan.by_ref() {
            let (key, rid) = item?;
            let tuple = self.heap.heap.get(rid)?.ok_or_else(|| {
                EvoptError::Execution(format!("index points at deleted rid {rid}"))
            })?;
            // An UPDATE running beside this read rewrites the row in its
            // slot before it re-keys the index: a row that no longer holds
            // the entry's key is not a match.
            if tuple.value(self.key_column)? != &key {
                continue;
            }
            if let Some(f) = &self.residual {
                if !f.eval_predicate(&tuple)? {
                    continue;
                }
            }
            return Ok(Some((rid, tuple)));
        }
        Ok(None)
    }
}

impl Executor for IndexScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.fill_batch(self.batch_rows)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A small shared world for executor tests.

    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use evopt_catalog::{analyze_table, AnalyzeConfig, Catalog};
    use evopt_common::{Column, DataType, Tuple, Value};
    use evopt_core::cost::Cost;
    use evopt_core::physical::{PhysOp, PhysicalPlan};
    use evopt_storage::{BufferPool, DiskManager};

    /// Catalog with `nums(k INT, v INT, s STRING)`: k = 0..n unique
    /// (indexed), v = k % 10, s = "row-k".
    pub fn setup(n: i64, pool_pages: usize) -> ExecEnv {
        let disk = Arc::new(DiskManager::new());
        let pool = BufferPool::new(disk, pool_pages);
        let cat = Arc::new(Catalog::new(pool));
        let t = cat
            .create_table(
                "nums",
                Schema::new(vec![
                    Column::new("k", DataType::Int).not_null(),
                    Column::new("v", DataType::Int),
                    Column::new("s", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..n {
            t.heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Str(format!("row-{i}")),
                ]))
                .unwrap();
        }
        cat.create_index("nums_k", "nums", "k", true, false)
            .unwrap();
        analyze_table(&cat, "nums", &AnalyzeConfig::default()).unwrap();
        ExecEnv::new(cat, 16)
    }

    pub fn seq_plan(env: &ExecEnv, table: &str, filter: Option<Expr>) -> PhysicalPlan {
        let schema = env.catalog.table(table).unwrap().schema.clone();
        PhysicalPlan {
            op: PhysOp::SeqScan {
                table: table.into(),
                filter,
            },
            schema,
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
        }
    }

    pub fn index_plan(
        env: &ExecEnv,
        table: &str,
        index: &str,
        range: KeyRange,
        residual: Option<Expr>,
    ) -> PhysicalPlan {
        let schema = env.catalog.table(table).unwrap().schema.clone();
        PhysicalPlan {
            op: PhysOp::IndexScan {
                table: table.into(),
                index: index.into(),
                range,
                residual,
                clustered: false,
            },
            schema,
            est_rows: 0.0,
            est_cost: Cost::ZERO,
            output_order: None,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::test_support::*;
    use crate::executor::run_collect;
    use evopt_common::expr::{col, lit};
    use evopt_common::{BinOp, Expr, Tuple, Value};
    use evopt_core::physical::KeyRange;

    #[test]
    fn seq_scan_returns_all_rows() {
        let env = setup(500, 16);
        let rows = run_collect(&seq_plan(&env, "nums", None), &env).unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0].value(0).unwrap(), &Value::Int(0));
        assert_eq!(rows[499].value(2).unwrap(), &Value::Str("row-499".into()));
    }

    #[test]
    fn seq_scan_filters() {
        let env = setup(500, 16);
        let plan = seq_plan(&env, "nums", Some(Expr::eq(col(1), lit(3i64))));
        let rows = run_collect(&plan, &env).unwrap();
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|t| t.value(1).unwrap() == &Value::Int(3)));
    }

    #[test]
    fn index_scan_point_and_range() {
        let env = setup(1000, 16);
        let rows = run_collect(
            &index_plan(&env, "nums", "nums_k", KeyRange::eq(Value::Int(42)), None),
            &env,
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(2).unwrap(), &Value::Str("row-42".into()));

        let range = KeyRange {
            low: std::ops::Bound::Included(Value::Int(10)),
            high: std::ops::Bound::Excluded(Value::Int(20)),
        };
        let rows = run_collect(&index_plan(&env, "nums", "nums_k", range, None), &env).unwrap();
        assert_eq!(rows.len(), 10);
        // Index order: ascending by k.
        let ks: Vec<i64> = rows
            .iter()
            .map(|t| t.value(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ks, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn index_scan_residual_filters() {
        let env = setup(1000, 16);
        let range = KeyRange {
            low: std::ops::Bound::Included(Value::Int(0)),
            high: std::ops::Bound::Excluded(Value::Int(100)),
        };
        let residual = Some(Expr::binary(BinOp::Eq, col(1), lit(7i64)));
        let rows = run_collect(&index_plan(&env, "nums", "nums_k", range, residual), &env).unwrap();
        assert_eq!(rows.len(), 10); // k in 0..100 with k % 10 == 7
    }

    /// The moment inside an UPDATE of `k` that a concurrent reader can
    /// meet: the row is rewritten in its slot, the index not yet re-keyed.
    #[test]
    fn index_scan_skips_an_entry_whose_row_changed_key() {
        let env = setup(100, 16);
        let info = env.catalog.table("nums").unwrap();
        let rid = info.indexes()[0].btree.search_eq(&Value::Int(42)).unwrap()[0];
        let rekeyed = Tuple::new(vec![
            Value::Int(5042),
            Value::Int(2),
            Value::Str("row-42".into()),
        ]);
        assert!(info.heap.update(rid, &rekeyed).unwrap());
        let plan = index_plan(&env, "nums", "nums_k", KeyRange::eq(Value::Int(42)), None);
        assert_eq!(run_collect(&plan, &env).unwrap(), vec![]);
        let rows = run_collect(
            &index_plan(&env, "nums", "nums_k", KeyRange::all(), None),
            &env,
        );
        assert_eq!(rows.unwrap().len(), 99);
    }

    #[test]
    fn unknown_index_is_execution_error() {
        let env = setup(10, 16);
        let plan = index_plan(&env, "nums", "nope", KeyRange::all(), None);
        let err = run_collect(&plan, &env).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }
}
