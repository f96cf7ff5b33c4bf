//! ANALYZE: build table statistics by scanning the heap.
//!
//! The pass makes one sequential scan, collecting per-column: null count,
//! exact NDV (hash set — exact, not sketched, at our laptop scale), min/max,
//! the most-common-value list, and a histogram for numeric columns.
//!
//! `tests/estimates.rs` runs this with varying [`AnalyzeConfig`]s (bucket
//! counts, histogram kinds) against skewed data to bound estimation error.

use std::collections::HashMap;
use std::sync::Arc;

use evopt_common::{Result, Value};

use crate::catalog::{Catalog, TableInfo};
use crate::histogram::Histogram;
use crate::stats::{ColumnStats, TableStats};

/// Which histogram variant ANALYZE builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramKind {
    /// No histogram: estimation falls back to uniform 1/NDV and min–max
    /// interpolation — the pure 1977 rule set.
    None,
    EquiWidth,
    EquiDepth,
}

/// Tuning for the ANALYZE pass.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeConfig {
    pub histogram: HistogramKind,
    /// Buckets per histogram.
    pub buckets: usize,
    /// How many most-common values to keep per column (0 disables MCVs).
    pub mcv_count: usize,
    /// Keep an MCV only if it covers at least this fraction of rows.
    pub mcv_min_fraction: f64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            histogram: HistogramKind::EquiDepth,
            buckets: 32,
            mcv_count: 8,
            mcv_min_fraction: 0.01,
        }
    }
}

/// ANALYZE one table: scan its heap, build fresh [`TableStats`] and publish
/// them through the catalog. Snapshots cut before the call keep planning
/// with the old ones. Returns the statistics installed.
pub fn analyze_table(
    catalog: &Catalog,
    name: &str,
    config: &AnalyzeConfig,
) -> Result<Arc<TableStats>> {
    let stats = Arc::new(compute_stats(&*catalog.table(name)?, config)?);
    catalog.install_stats(name, Arc::clone(&stats))?;
    Ok(stats)
}

/// Scan `table`'s heap and build fresh [`TableStats`].
fn compute_stats(table: &TableInfo, config: &AnalyzeConfig) -> Result<TableStats> {
    let ncols = table.schema.len();
    let mut row_count = 0u64;
    let mut total_bytes = 0u64;
    // Per-column accumulators.
    let mut nulls = vec![0u64; ncols];
    let mut freqs: Vec<HashMap<Value, u64>> = vec![HashMap::new(); ncols];
    let mut mins: Vec<Option<Value>> = vec![None; ncols];
    let mut maxs: Vec<Option<Value>> = vec![None; ncols];
    let mut numerics: Vec<Vec<f64>> = vec![Vec::new(); ncols];

    for item in table.heap.scan() {
        let (_, tuple) = item?;
        row_count += 1;
        total_bytes += tuple.encoded_len() as u64;
        for (i, v) in tuple.values().iter().enumerate() {
            if v.is_null() {
                nulls[i] += 1;
                continue;
            }
            *freqs[i].entry(v.clone()).or_insert(0) += 1;
            match &mins[i] {
                Some(m) if v >= m => {}
                _ => mins[i] = Some(v.clone()),
            }
            match &maxs[i] {
                Some(m) if v <= m => {}
                _ => maxs[i] = Some(v.clone()),
            }
            if let Some(x) = v.as_f64() {
                numerics[i].push(x);
            }
        }
    }

    let mut columns = Vec::with_capacity(ncols);
    for i in 0..ncols {
        let ndv = freqs[i].len() as u64;
        // MCVs: top-k by frequency above the threshold.
        let mut mcvs: Vec<(Value, f64)> = Vec::new();
        if config.mcv_count > 0 && row_count > 0 {
            let mut by_freq: Vec<(&Value, &u64)> = freqs[i].iter().collect();
            by_freq.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (v, &count) in by_freq.into_iter().take(config.mcv_count) {
                let frac = count as f64 / row_count as f64;
                if frac >= config.mcv_min_fraction {
                    mcvs.push((v.clone(), frac));
                }
            }
        }
        let histogram = match config.histogram {
            HistogramKind::None => None,
            HistogramKind::EquiWidth => Histogram::equi_width(&numerics[i], config.buckets),
            HistogramKind::EquiDepth => Histogram::equi_depth(&numerics[i], config.buckets),
        };
        columns.push(ColumnStats {
            null_count: nulls[i],
            ndv,
            min: mins[i].take(),
            max: maxs[i].take(),
            mcvs,
            histogram,
        });
    }

    let stats = TableStats {
        row_count,
        page_count: table.heap.page_count(),
        avg_tuple_bytes: if row_count == 0 {
            0.0
        } else {
            total_bytes as f64 / row_count as f64
        },
        columns,
    };
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_common::{Column, DataType, Schema, Tuple};
    use evopt_storage::{BufferPool, DiskManager};

    /// A catalog holding `t(a INT, s STRING)` with `rows` in it.
    fn setup(rows: impl IntoIterator<Item = Tuple>) -> Catalog {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 64);
        let cat = Catalog::new(pool);
        let t = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("s", DataType::Str),
                ]),
            )
            .unwrap();
        for r in rows {
            t.heap.insert(&r).unwrap();
        }
        cat
    }

    fn row(a: Value, s: &str) -> Tuple {
        Tuple::new(vec![a, Value::Str(s.into())])
    }

    #[test]
    fn basic_counts_min_max_ndv() {
        let cat = setup((0..100).map(|i| row(Value::Int(i % 10), "x")));
        let stats = analyze_table(&cat, "t", &AnalyzeConfig::default()).unwrap();
        assert_eq!(stats.row_count, 100);
        assert!(stats.page_count >= 1);
        assert!(stats.avg_tuple_bytes > 0.0);
        let a = &stats.columns[0];
        assert_eq!(a.ndv, 10);
        assert_eq!(a.min, Some(Value::Int(0)));
        assert_eq!(a.max, Some(Value::Int(9)));
        assert_eq!(a.null_count, 0);
        let s = &stats.columns[1];
        assert_eq!(s.ndv, 1);
        assert!(s.histogram.is_none(), "strings get no histogram");
        // Stats installed on the table.
        assert!(Arc::ptr_eq(
            cat.table("t").unwrap().stats().unwrap(),
            &stats
        ));
    }

    #[test]
    fn null_counting_excludes_from_ndv_and_minmax() {
        let cat = setup([
            row(Value::Null, "a"),
            row(Value::Int(5), "b"),
            row(Value::Null, "c"),
        ]);
        let stats = analyze_table(&cat, "t", &AnalyzeConfig::default()).unwrap();
        let a = &stats.columns[0];
        assert_eq!(a.null_count, 2);
        assert_eq!(a.ndv, 1);
        assert_eq!(a.min, Some(Value::Int(5)));
        assert_eq!(a.max, Some(Value::Int(5)));
        assert!((a.null_fraction(stats.row_count) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn mcvs_capture_heavy_hitters_in_order() {
        // 60% value 1, 30% value 2, 10% spread.
        let rows = (0..100).map(|i| {
            let v = if i < 60 {
                1
            } else if i < 90 {
                2
            } else {
                10 + i
            };
            row(Value::Int(v), "x")
        });
        let cat = setup(rows);
        let cfg = AnalyzeConfig {
            mcv_count: 2,
            mcv_min_fraction: 0.05,
            ..Default::default()
        };
        let stats = analyze_table(&cat, "t", &cfg).unwrap();
        let mcvs = &stats.columns[0].mcvs;
        assert_eq!(mcvs.len(), 2);
        assert_eq!(mcvs[0].0, Value::Int(1));
        assert!((mcvs[0].1 - 0.6).abs() < 1e-9);
        assert_eq!(mcvs[1].0, Value::Int(2));
    }

    #[test]
    fn mcv_threshold_filters_rare_values() {
        let cat = setup((0..100).map(|i| row(Value::Int(i), "x")));
        let cfg = AnalyzeConfig {
            mcv_count: 8,
            mcv_min_fraction: 0.05, // every value is 1% — below threshold
            ..Default::default()
        };
        let stats = analyze_table(&cat, "t", &cfg).unwrap();
        assert!(stats.columns[0].mcvs.is_empty());
    }

    #[test]
    fn histogram_kinds() {
        let cat = setup((0..1000).map(|i| row(Value::Int(i), "x")));
        for (kind, expect_some) in [
            (HistogramKind::None, false),
            (HistogramKind::EquiWidth, true),
            (HistogramKind::EquiDepth, true),
        ] {
            let cfg = AnalyzeConfig {
                histogram: kind,
                buckets: 16,
                ..Default::default()
            };
            let stats = analyze_table(&cat, "t", &cfg).unwrap();
            assert_eq!(stats.columns[0].histogram.is_some(), expect_some);
            if let Some(h) = &stats.columns[0].histogram {
                assert_eq!(h.total(), 1000);
            }
        }
    }

    #[test]
    fn empty_table() {
        let cat = setup([]);
        let stats = analyze_table(&cat, "t", &AnalyzeConfig::default()).unwrap();
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.avg_tuple_bytes, 0.0);
        assert_eq!(stats.columns[0].ndv, 0);
        assert!(stats.columns[0].min.is_none());
    }

    #[test]
    fn tuples_per_page_sane() {
        let cat = setup((0..5000).map(|i| row(Value::Int(i), "some name here")));
        let stats = analyze_table(&cat, "t", &AnalyzeConfig::default()).unwrap();
        let tpp = stats.tuples_per_page();
        // ~40-byte tuples in 4 KiB pages: expect on the order of 100/page.
        assert!(tpp > 20.0 && tpp < 400.0, "tuples/page = {tpp}");
    }
}
