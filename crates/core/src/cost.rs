//! The cost model.
//!
//! Every formula charges two currencies: **page I/Os** and **tuple
//! touches**. The scalar objective is `w_io · io + w_cpu · cpu`, I/O
//! dominant by default (`w_io = 1.0`, `w_cpu = 0.01`) — the 1977 balance,
//! where one disk access bought thousands of instructions. The weights are
//! exposed so ablations can explore other regimes.
//!
//! Formula inventory (per DESIGN.md §3.1):
//!
//! | operator | I/O | CPU |
//! |---|---|---|
//! | SeqScan(R) | `P(R)` | `|R|` |
//! | IndexScan clustered | `h + ⌈sel·P(R)⌉` | matches |
//! | IndexScan unclustered | `h + ⌈sel·P(I)⌉ + matches` | matches |
//! | BNL(L, R) | `write P(R) + ⌈P(L)/(B−2)⌉·P(R)` | `|L|·|R|` |
//! | INL(L, r) | `|L| · (h + match-pages)` | `|L| · matches` |
//! | SMJ | sort passes | merge `|L|+|R|` |
//! | HJ(probe L, build R) | 0, or `2(P(L)+P(R))` Grace | `2·|R| + |L|` |
//! | Sort(N pages) | `2·N·passes` | `|R|·log|R|` |
//!
//! All charges are for work **above** producing the inputs; enumeration sums
//! them bottom-up.

/// Two-currency cost. Additive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    pub io: f64,
    pub cpu: f64,
}

impl Cost {
    pub const ZERO: Cost = Cost { io: 0.0, cpu: 0.0 };

    pub fn new(io: f64, cpu: f64) -> Cost {
        Cost { io, cpu }
    }

    #[allow(clippy::should_implement_trait)] // also exposed via ops::Add below
    pub fn add(self, other: Cost) -> Cost {
        Cost {
            io: self.io + other.io,
            cpu: self.cpu + other.cpu,
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost::add(self, rhs)
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::add)
    }
}

/// Cost-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Weight of one page I/O in the scalar objective.
    pub w_io: f64,
    /// Weight of one tuple touch.
    pub w_cpu: f64,
    /// Pages each memory-hungry operator may hold: the BNL block, the
    /// sort's runs and fan-in, and the in-memory hash-join threshold. The
    /// executor is handed the same number (`ExecEnv::buffer_pages`), so
    /// what is priced as fitting is run in memory. An engine session's
    /// grant is a quarter of its buffer pool, never below the default 64
    /// (`DatabaseConfig::session`).
    pub buffer_pages: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            w_io: 1.0,
            w_cpu: 0.01,
            buffer_pages: 64,
        }
    }
}

impl CostModel {
    /// Scalarise a cost for comparison.
    pub fn total(&self, c: Cost) -> f64 {
        self.w_io * c.io + self.w_cpu * c.cpu
    }

    /// Sequential scan of a base relation.
    pub fn seq_scan(&self, pages: f64, rows: f64) -> Cost {
        Cost::new(pages.max(1.0), rows)
    }

    /// Index scan fetching `match_rows` of `rows` via a tree of `height`
    /// pages, where the heap spans `heap_pages` and the leaf level
    /// `index_pages`.
    pub fn index_scan(
        &self,
        clustered: bool,
        key_sel: f64,
        heap_pages: f64,
        index_pages: f64,
        height: f64,
        match_rows: f64,
    ) -> Cost {
        let leaf_io = (key_sel * index_pages).ceil().max(1.0);
        let heap_io = if clustered {
            (key_sel * heap_pages).ceil().max(1.0)
        } else {
            // Unclustered: up to one heap page per match, capped at touching
            // every page once per... the classic pessimistic bound is one
            // fetch per match (no cap — revisits cost real I/O with a small
            // pool).
            match_rows
        };
        Cost::new(height + leaf_io + heap_io, match_rows)
    }

    /// Tuple nested loops: the right plan (already costed per execution at
    /// `inner_cost`) re-runs once per outer row.
    pub fn nl_join(&self, outer_rows: f64, inner_cost: Cost, inner_rows: f64) -> Cost {
        Cost::new(
            outer_rows * inner_cost.io,
            outer_rows * (inner_cost.cpu + inner_rows),
        )
    }

    /// Block nested loops with a materialised inner of `inner_pages`.
    /// Charges the materialisation write plus one inner read per outer
    /// block. (Reading the inputs was already charged when producing them.)
    pub fn bnl_join(
        &self,
        outer_rows: f64,
        outer_pages: f64,
        inner_rows: f64,
        inner_pages: f64,
    ) -> Cost {
        let block = (self.buffer_pages.saturating_sub(2)).max(1) as f64;
        let blocks = (outer_pages.max(1.0) / block).ceil().max(1.0);
        let io = inner_pages + blocks * inner_pages;
        Cost::new(io, outer_rows * inner_rows)
    }

    /// Index nested loops: one probe per outer row.
    pub fn inl_join(
        &self,
        outer_rows: f64,
        height: f64,
        matches_per_probe: f64,
        clustered: bool,
        inner_heap_pages: f64,
        inner_rows: f64,
    ) -> Cost {
        let heap_per_probe = if clustered {
            (matches_per_probe / (inner_rows / inner_heap_pages).max(1.0))
                .ceil()
                .max(1.0)
        } else {
            matches_per_probe.max(1.0)
        };
        Cost::new(
            outer_rows * (height + heap_per_probe),
            outer_rows * matches_per_probe.max(1.0),
        )
    }

    /// External merge sort of `pages` pages / `rows` rows: read+write per
    /// pass, `⌈log_{B-1}(pages/B)⌉` merge passes after run formation.
    pub fn sort(&self, rows: f64, pages: f64) -> Cost {
        let b = self.buffer_pages.max(3) as f64;
        let pages = pages.max(1.0);
        let runs = (pages / b).ceil().max(1.0);
        let passes = if runs <= 1.0 {
            0.0
        } else {
            (runs.ln() / (b - 1.0).ln()).ceil().max(1.0)
        };
        // Run formation (1 read + 1 write) happens only when spilling.
        let io = if pages <= b {
            0.0 // fits in memory: no extra I/O beyond producing the input
        } else {
            2.0 * pages * (1.0 + passes)
        };
        let cpu = rows * (rows.max(2.0)).log2();
        Cost::new(io, cpu)
    }

    /// Merge phase of a sort-merge join (inputs already sorted).
    pub fn merge_join(&self, left_rows: f64, right_rows: f64) -> Cost {
        Cost::new(0.0, left_rows + right_rows)
    }

    /// Hash join, building on the right input. A build row is charged
    /// twice a probe row (it is hashed, copied and inserted, where a probe
    /// is hashed and looked up), so the smaller input builds.
    pub fn hash_join(
        &self,
        left_rows: f64,
        left_pages: f64,
        right_rows: f64,
        right_pages: f64,
    ) -> Cost {
        let io = if right_pages <= self.buffer_pages as f64 {
            0.0 // in-memory build
        } else {
            // Grace: partition both sides to disk and read back.
            2.0 * (left_pages + right_pages)
        };
        Cost::new(io, 2.0 * right_rows + left_rows)
    }

    /// Hash aggregation.
    pub fn hash_aggregate(&self, input_rows: f64) -> Cost {
        Cost::new(0.0, input_rows)
    }

    /// Row filter / projection.
    pub fn per_tuple(&self, rows: f64) -> Cost {
        Cost::new(0.0, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn total_weighs_io_over_cpu() {
        let c = Cost::new(10.0, 100.0);
        assert!((m().total(c) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn seq_scan_charges_pages() {
        let c = m().seq_scan(100.0, 5000.0);
        assert_eq!(c.io, 100.0);
        assert_eq!(c.cpu, 5000.0);
        // Empty tables still cost one page peek.
        assert_eq!(m().seq_scan(0.0, 0.0).io, 1.0);
    }

    #[test]
    fn clustered_index_beats_unclustered_at_same_selectivity() {
        // 1% of a 1000-page, 100k-row table = 1000 matches.
        let cl = m().index_scan(true, 0.01, 1000.0, 200.0, 3.0, 1000.0);
        let uncl = m().index_scan(false, 0.01, 1000.0, 200.0, 3.0, 1000.0);
        assert!(
            cl.io < uncl.io,
            "clustered {} vs unclustered {}",
            cl.io,
            uncl.io
        );
        // Clustered reads ~1% of heap pages.
        assert!(cl.io < 20.0);
        // Unclustered pays ~one page per match.
        assert!(uncl.io > 900.0);
    }

    #[test]
    fn index_scan_crossover_vs_seq_scan() {
        // The T2 shape: unclustered index wins at tiny selectivity, loses
        // past roughly 1/tuples-per-page.
        let (pages, rows) = (1000.0, 100_000.0); // 100 tuples/page
        let seq = m().total(m().seq_scan(pages, rows));
        let probe = |sel: f64| m().total(m().index_scan(false, sel, pages, 200.0, 3.0, sel * rows));
        assert!(probe(0.0001) < seq, "0.01% should favour the index");
        assert!(probe(0.5) > seq, "50% should favour the scan");
    }

    #[test]
    fn bnl_scales_with_outer_blocks() {
        let small_pool = CostModel {
            buffer_pages: 10,
            ..Default::default()
        };
        let big_pool = CostModel {
            buffer_pages: 1000,
            ..Default::default()
        };
        let small = small_pool.bnl_join(10_000.0, 100.0, 10_000.0, 100.0);
        let big = big_pool.bnl_join(10_000.0, 100.0, 10_000.0, 100.0);
        assert!(small.io > big.io, "more buffers, less I/O");
        // With everything resident: materialise (100) + one pass (100).
        assert_eq!(big.io, 200.0);
    }

    #[test]
    fn sort_free_when_fits_in_memory() {
        let c = m().sort(1000.0, 10.0);
        assert_eq!(c.io, 0.0);
        let c = m().sort(1_000_000.0, 10_000.0);
        assert!(c.io > 2.0 * 10_000.0);
    }

    #[test]
    fn hash_join_grace_threshold() {
        let inmem = m().hash_join(1000.0, 10.0, 1000.0, 10.0);
        assert_eq!(inmem.io, 0.0);
        let grace = m().hash_join(100_000.0, 1000.0, 100_000.0, 1000.0);
        assert_eq!(grace.io, 4000.0);
    }

    #[test]
    fn hash_join_is_cheaper_building_on_the_smaller_input() {
        // WiscSelfJoin's shape: 1 000 filtered rows against 100 000.
        let small_build = m().hash_join(100_000.0, 40.0, 1_000.0, 1.0);
        let large_build = m().hash_join(1_000.0, 1.0, 100_000.0, 40.0);
        assert!(m().total(small_build) < m().total(large_build));
        assert_eq!(small_build.cpu, 102_000.0);
    }

    #[test]
    fn nl_join_multiplies_inner_cost() {
        let c = m().nl_join(100.0, Cost::new(5.0, 50.0), 10.0);
        assert_eq!(c.io, 500.0);
        assert_eq!(c.cpu, 100.0 * 60.0);
    }

    #[test]
    fn cost_sum_and_add() {
        let total: Cost = [Cost::new(1.0, 2.0), Cost::new(3.0, 4.0)].into_iter().sum();
        assert_eq!(total, Cost::new(4.0, 6.0));
        assert_eq!(total + Cost::ZERO, total);
    }
}
