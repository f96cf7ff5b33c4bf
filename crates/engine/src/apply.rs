//! Applying a bound write to the live catalog. Everything here runs inside
//! the pipeline's execute stage with the commit lock held; the WAL commit
//! is staged by the caller afterwards.

use std::sync::Arc;

use evopt_catalog::{analyze_table, AnalyzeConfig, TableInfo};
use evopt_common::{EvoptError, Expr, Result, Schema, Tuple, Value};
use evopt_storage::Rid;

use crate::database::Database;
use crate::result::QueryResult;

/// INSERT: every row is checked before the first one touches the heap, so a
/// rejected statement leaves nothing behind — in memory or, under
/// `Durability::Wal`, as dirty pages for the next statement's commit to
/// make durable.
pub(crate) fn insert(info: &TableInfo, rows: &[Tuple]) -> Result<usize> {
    for row in rows {
        check_row(info, row)?;
    }
    for row in rows {
        insert_row(info, row)?;
    }
    Ok(rows.len())
}

/// DELETE (`sets` absent) or UPDATE of the rows the access path found.
/// The new rows are built and checked before any old one is removed, for
/// the same reason [`insert`] checks first. An UPDATE rewrites each row in
/// its own slot, keeping its `Rid`, and re-keys only the indexes whose key
/// it changed; a row that no longer fits on its page is deleted and
/// reinserted, with every index re-pointed.
pub(crate) fn modify(
    info: &TableInfo,
    found: &[(Rid, Tuple)],
    sets: Option<&[(usize, Expr)]>,
) -> Result<usize> {
    let replacements = match sets {
        Some(sets) => {
            let mut new_rows = Vec::with_capacity(found.len());
            for (_, old) in found {
                let mut values = old.values().to_vec();
                for (ordinal, expr) in sets {
                    values[*ordinal] = expr.eval(old)?;
                }
                let new = Tuple::new(values);
                check_row(info, &new)?;
                new_rows.push(new);
            }
            Some(new_rows)
        }
        None => None,
    };
    for (i, (rid, old)) in found.iter().enumerate() {
        let new = replacements.as_ref().map(|rows| &rows[i]);
        match new {
            Some(new) if info.heap.update(*rid, new)? => {
                for idx in info.indexes() {
                    let (o, n) = (old.value(idx.column)?, new.value(idx.column)?);
                    if same_key(o, n) {
                        continue;
                    }
                    if !o.is_null() {
                        idx.btree.delete(o, *rid)?;
                    }
                    if !n.is_null() {
                        idx.btree.insert(n, *rid)?;
                    }
                }
            }
            // A DELETE, or a row that no longer fits on its page.
            _ => {
                info.heap.delete(*rid)?;
                for idx in info.indexes() {
                    let key = old.value(idx.column)?;
                    if !key.is_null() {
                        idx.btree.delete(key, *rid)?;
                    }
                }
                if let Some(new) = new {
                    insert_row(info, new)?;
                }
            }
        }
    }
    Ok(found.len())
}

/// Whether an index may keep its entry: equal in type as well as value.
/// `Value`'s own equality has `Int(2) == Float(2.0)`, and an index that
/// skipped that change would keep a key of the old type.
fn same_key(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
}

/// Arity, type and NOT NULL conformance of one row against its table.
fn check_row(info: &TableInfo, tuple: &Tuple) -> Result<()> {
    if tuple.len() != info.schema.len() {
        return Err(EvoptError::Execution(format!(
            "insert arity {} does not match table '{}' ({} columns)",
            tuple.len(),
            info.name,
            info.schema.len()
        )));
    }
    for (v, col) in tuple.values().iter().zip(info.schema.columns()) {
        match v.data_type() {
            None if !col.nullable => {
                return Err(EvoptError::Execution(format!(
                    "NULL in NOT NULL column '{}'",
                    col.name
                )));
            }
            Some(dt) if dt.unify(col.dtype) != Some(col.dtype) => {
                return Err(EvoptError::Execution(format!(
                    "type mismatch for column '{}': expected {}, got {}",
                    col.name, col.dtype, dt
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

/// One checked row into the heap and every index.
fn insert_row(info: &TableInfo, tuple: &Tuple) -> Result<()> {
    let rid = info.heap.insert(tuple)?;
    for idx in info.indexes() {
        let key = tuple.value(idx.column)?;
        if !key.is_null() {
            idx.btree.insert(key, rid)?;
        }
    }
    Ok(())
}

impl Database {
    /// Log the catalog version the DDL just published. The commit lock is
    /// held, so no other DDL published after it; statistics are not logged.
    fn log_catalog(&self) -> Result<QueryResult> {
        if let Some(wal) = &self.wal {
            wal.log_ddl(&self.catalog.image())?;
        }
        Ok(QueryResult::Ok)
    }

    pub(crate) fn create_table(&self, name: &str, schema: Schema) -> Result<QueryResult> {
        self.catalog.create_table(name, schema)?;
        self.log_catalog()
    }

    pub(crate) fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        unique: bool,
        clustered: bool,
    ) -> Result<QueryResult> {
        if clustered {
            self.verify_heap_sorted(table, column)?;
        }
        self.catalog
            .create_index(name, table, column, unique, clustered)?;
        self.log_catalog()
    }

    /// Each table's statistics publish a new catalog version: readers
    /// planning against an older one keep the estimates they started with.
    pub(crate) fn analyze(&self, table: Option<&str>, cfg: &AnalyzeConfig) -> Result<QueryResult> {
        let tables: Vec<Arc<TableInfo>> = match table {
            Some(t) => vec![self.catalog.table(t)?],
            None => self.catalog.tables(),
        };
        for t in tables {
            analyze_table(&self.catalog, &t.name, cfg)?;
        }
        Ok(QueryResult::Ok)
    }

    pub(crate) fn drop_table(&self, name: &str) -> Result<QueryResult> {
        self.catalog.drop_table(name)?;
        self.log_catalog()
    }

    /// CLUSTERED index invariant: the heap must already be physically
    /// sorted on the key column (load sorted, then create the index).
    fn verify_heap_sorted(&self, table: &str, column: &str) -> Result<()> {
        let info = self.catalog.table(table)?;
        let col = info
            .schema
            .resolve(None, column)
            .map_err(|_| EvoptError::Catalog(format!("unknown column '{column}' on '{table}'")))?;
        let mut last: Option<Value> = None;
        for item in info.heap.scan() {
            let (_, t) = item?;
            let v = t.value(col)?.clone();
            if let Some(prev) = &last {
                if v < *prev {
                    return Err(EvoptError::Catalog(format!(
                        "cannot create CLUSTERED index: heap of '{table}' is not \
                         sorted on '{column}' (load the data in key order first)"
                    )));
                }
            }
            last = Some(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::database::tests::seeded;
    use crate::{Database, QueryResult};
    use evopt_common::{Tuple, Value};
    use evopt_core::physical::PhysicalPlan;

    #[test]
    fn index_is_maintained_by_inserts() {
        let db = seeded();
        db.execute("INSERT INTO emp VALUES (999, 1, 5)").unwrap();
        // Point query should find the new row via the index.
        let (_, physical) = db
            .plan_sql("SELECT salary FROM emp WHERE id = 999")
            .unwrap();
        fn has_index_scan(p: &PhysicalPlan) -> bool {
            p.op_name() == "IndexScan" || p.children().iter().any(|c| has_index_scan(c))
        }
        assert!(has_index_scan(&physical), "{physical}");
        let rows = db.query("SELECT salary FROM emp WHERE id = 999").unwrap();
        assert_eq!(rows, vec![Tuple::new(vec![Value::Int(5)])]);
    }

    #[test]
    fn insert_type_and_null_enforcement() {
        let db = seeded();
        let e = db
            .execute("INSERT INTO dept VALUES (NULL, 'x')")
            .unwrap_err();
        assert!(e.message().contains("NOT NULL"));
        let e = db
            .execute("INSERT INTO dept VALUES ('str', 'x')")
            .unwrap_err();
        assert!(e.message().contains("type mismatch"));
        let e = db.execute("INSERT INTO dept VALUES (1)").unwrap_err();
        assert!(e.message().contains("arity"));
    }

    #[test]
    fn arithmetic_in_insert_values() {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE c (x INT, y FLOAT)").unwrap();
        db.execute("INSERT INTO c VALUES (2 + 3 * 4, -1.5)")
            .unwrap();
        let rows = db.query("SELECT x, y FROM c").unwrap();
        assert_eq!(rows[0].value(0).unwrap(), &Value::Int(14));
        assert_eq!(rows[0].value(1).unwrap(), &Value::Float(-1.5));
    }

    #[test]
    fn clustered_index_requires_sorted_heap() {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.execute("INSERT INTO s VALUES (3), (1), (2)").unwrap();
        let e = db
            .execute("CREATE CLUSTERED INDEX s_k ON s (k)")
            .unwrap_err();
        assert!(e.message().contains("not"), "{e}");
        // Sorted data is accepted.
        db.execute("CREATE TABLE s2 (k INT)").unwrap();
        db.execute("INSERT INTO s2 VALUES (1), (2), (3)").unwrap();
        db.execute("CREATE CLUSTERED INDEX s2_k ON s2 (k)").unwrap();
    }

    #[test]
    fn drop_table_then_queries_fail() {
        let db = seeded();
        db.execute("DROP TABLE dept").unwrap();
        assert!(db.query("SELECT * FROM dept").is_err());
    }

    #[test]
    fn delete_with_predicate_updates_heap_and_indexes() {
        let db = seeded();
        match db.execute("DELETE FROM emp WHERE salary < 1500").unwrap() {
            QueryResult::Affected(n) => assert_eq!(n, 50),
            other => panic!("{other:?}"),
        }
        let n = db.query("SELECT COUNT(*) FROM emp").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 250);
        // Index no longer returns deleted rows.
        assert!(db
            .query("SELECT * FROM emp WHERE id = 10")
            .unwrap()
            .is_empty());
        assert_eq!(
            db.query("SELECT * FROM emp WHERE id = 100").unwrap().len(),
            1
        );
        // DELETE without predicate empties the table.
        db.execute("DELETE FROM emp").unwrap();
        assert!(db.query("SELECT * FROM emp").unwrap().is_empty());
    }

    #[test]
    fn update_rewrites_rows_and_indexes() {
        let db = seeded();
        match db
            .execute("UPDATE emp SET salary = salary + 10000, id = id + 1000 WHERE id < 3")
            .unwrap()
        {
            QueryResult::Affected(n) => assert_eq!(n, 3),
            other => panic!("{other:?}"),
        }
        // Old ids are gone from the index path; new ids are findable.
        assert!(db
            .query("SELECT * FROM emp WHERE id = 1")
            .unwrap()
            .is_empty());
        let rows = db.query("SELECT salary FROM emp WHERE id = 1001").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(0).unwrap(), &Value::Int(1000 + 10 + 10000));
        // Row count unchanged.
        let n = db.query("SELECT COUNT(*) FROM emp").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 300);
        // Constraint enforcement still applies through UPDATE.
        assert!(db
            .execute("UPDATE emp SET id = NULL WHERE id = 1001")
            .is_err());
    }
}
