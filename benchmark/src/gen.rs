//! Workloads and their statement streams. Everything the engine sees is SQL
//! text made here from `--seed`; each statement carries what the oracle
//! needs to check its answer.

use std::collections::HashMap;

/// Wisconsin rows behind the indexed workloads (`point_*`,
/// `larger_than_pool`): 40 000 rows = 770 heap pages plus two B+-trees.
/// Two 100 000-row index builds take ≈5 s on the seed commit, and set-up
/// runs three times per run, so the indexed table is kept at this size.
pub const WISC_INDEXED_ROWS: usize = 40_000;
/// Wisconsin rows behind `analytic` (no index needed, so loading is cheap).
pub const WISC_ANALYTIC_ROWS: usize = 100_000;
pub const TPCH_SCALE: f64 = 5.0;
pub const KV_PRELOAD_ROWS: usize = 20_000;
/// Pool that holds every table of the four pool-fits workloads.
pub const POOL_FITS_PAGES: usize = 8_192;
/// The engine's default pool; the indexed Wisconsin heap alone is 3× larger.
pub const POOL_SMALL_PAGES: usize = 256;
/// Simulated device latency on `larger_than_pool`, switched on after load:
/// every page transfer takes at least this long.
pub const IO_LATENCY_MICROS: u64 = 50;
/// `write_mix` checkpoints after this many write statements of client 0.
pub const CHECKPOINT_EVERY_WRITES: u64 = 400;
/// `write_mix` runs a fixed number of statements per client and second of
/// `--seconds`: the heap is append-only, so equal work needs equal
/// statements, not equal time. Calibrated on the seed commit so that a run
/// takes about `--seconds`.
pub const WRITE_MIX_STMTS_PER_CLIENT_SECOND: u64 = 1_000;
/// `larger_than_pool` likewise runs a fixed number of its 20-statement
/// cycles per second of `--seconds`, so that `disk_reads_per_stmt` is an
/// exact count.
pub const LTP_STMTS_PER_SECOND: u64 = 110;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    PointInproc,
    PointWire,
    Analytic,
    LargerThanPool,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PointInproc,
        Workload::PointWire,
        Workload::Analytic,
        Workload::LargerThanPool,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointInproc => "point_inproc",
            Workload::PointWire => "point_wire",
            Workload::Analytic => "analytic",
            Workload::LargerThanPool => "larger_than_pool",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients: one everywhere. The issue asked for two on
    /// `point_*` and `write_mix`, and the loop, the key ownership of
    /// `write_mix` and the reports still take any number. But two client
    /// threads on the sandbox's two shared cores contend for the
    /// buffer-pool mutex: `point_inproc` then ran at either 61 or 92 µs a
    /// statement from one run to the next, and `write_mix` spread its rate
    /// and p95 by 15 to 18 % with outliers at +50 %. A spread like that
    /// resolves nothing, so concurrency is not measured here.
    pub fn clients(self) -> usize {
        1
    }

    pub fn buffer_pages(self) -> usize {
        match self {
            Workload::LargerThanPool => POOL_SMALL_PAGES,
            _ => POOL_FITS_PAGES,
        }
    }

    /// Where the end-to-end times of this workload are reported at the
    /// machine's usual pace (see `pace`): the median of the client's own
    /// work after a statement at that pace, in ns, measured on the commit
    /// the benchmark was written on. Only ratios to it are used: it sets
    /// the scale of the paced times and no run's place among other runs.
    /// `None` where the statements wait on timers (`point_wire`,
    /// `larger_than_pool`): the client's work does not track those, and
    /// dividing by it would add its noise to theirs.
    pub fn usual_think_ns(self) -> Option<f64> {
        match self {
            Workload::PointInproc => Some(470.0),
            Workload::WriteMix => Some(1_600.0),
            Workload::Analytic => Some(2_100_000.0),
            Workload::PointWire | Workload::LargerThanPool => None,
        }
    }

    /// The two statement classes whose medians are this workload's
    /// `light_p50_us` and `heavy_p50_us`.
    pub fn headline_classes(self) -> (Class, Class) {
        match self {
            Workload::PointInproc | Workload::PointWire | Workload::LargerThanPool => {
                (Class::Point, Class::Range)
            }
            Workload::Analytic => (Class::Scan, Class::Join),
            Workload::WriteMix => (Class::Insert, Class::Modify),
        }
    }
}

/// Statement classes; each has its own median in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Point,
    Range,
    Scan,
    Join,
    Insert,
    Modify,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Point,
        Class::Range,
        Class::Scan,
        Class::Join,
        Class::Insert,
        Class::Modify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Range => "range",
            Class::Scan => "scan",
            Class::Join => "join",
            Class::Insert => "insert",
            Class::Modify => "modify",
        }
    }

    /// The class's end-to-end median.
    pub fn metric(self) -> &'static str {
        match self {
            Class::Point => "point_p50_us",
            Class::Range => "range_p50_us",
            Class::Scan => "scan_p50_us",
            Class::Join => "join_p50_us",
            Class::Insert => "insert_p50_us",
            Class::Modify => "modify_p50_us",
        }
    }

    /// The same median in the traced slices, among the per-layer metrics.
    pub fn traced_metric(self) -> &'static str {
        match self {
            Class::Point => "class.point_p50_us",
            Class::Range => "class.range_p50_us",
            Class::Scan => "class.scan_p50_us",
            Class::Join => "class.join_p50_us",
            Class::Insert => "class.insert_p50_us",
            Class::Modify => "class.modify_p50_us",
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Class::Insert | Class::Modify)
    }
}

/// The analytic battery, with the literals drawn from the seed so that no
/// two statements need share their text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    RevenuePerNation,
    ShippedBigOrders { status: &'static str, balance: i64 },
    CustomerOrders { customer: i64 },
    WiscAggregate { odd: i64 },
    WiscSelfJoin { one_pct: i64 },
    WiscTopK { ten_pct: i64 },
}

impl Query {
    pub fn sql(&self) -> String {
        match self {
            Query::RevenuePerNation => {
                evopt_workload::tpch_lite::queries::REVENUE_PER_NATION.to_string()
            }
            Query::ShippedBigOrders { status, balance } => format!(
                "SELECT o.o_key, c.c_name FROM orders o \
                 JOIN customer c ON o.o_customer = c.c_key \
                 WHERE o.o_status = '{status}' AND c.c_balance > {balance}"
            ),
            Query::CustomerOrders { customer } => format!(
                "SELECT o.o_key, l.l_price FROM orders o \
                 JOIN lineitem l ON l.l_order = o.o_key \
                 WHERE o.o_customer = {customer}"
            ),
            Query::WiscAggregate { odd } => format!(
                "SELECT ten_pct, COUNT(*), SUM(unique2) FROM wisc \
                 WHERE odd = {odd} GROUP BY ten_pct"
            ),
            Query::WiscSelfJoin { one_pct } => format!(
                "SELECT a.unique1, b.unique1 FROM wisc a \
                 JOIN wisc b ON a.unique1 = b.unique2 WHERE a.one_pct = {one_pct}"
            ),
            Query::WiscTopK { ten_pct } => {
                format!("SELECT * FROM wisc WHERE ten_pct = {ten_pct} ORDER BY stringu1 LIMIT 10")
            }
        }
    }

    fn class(&self) -> Class {
        match self {
            // An index range scan driving index nested-loop probes: no
            // table is scanned, so it is grouped with the range class.
            Query::CustomerOrders { .. } => Class::Range,
            Query::RevenuePerNation
            | Query::ShippedBigOrders { .. }
            | Query::WiscSelfJoin { .. } => Class::Join,
            Query::WiscAggregate { .. } | Query::WiscTopK { .. } => Class::Scan,
        }
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// One Wisconsin row with this `unique1`.
    WiscPoint(i64),
    /// Exactly the Wisconsin rows whose column `col` (0 = `unique1`,
    /// 1 = `unique2`) lies in `lo..hi`.
    WiscRange {
        col: usize,
        lo: i64,
        hi: i64,
    },
    Analytic(Query),
    /// One `kv` row `(k, v, kv_s(k))`.
    KvRow {
        k: i64,
        v: i64,
    },
    Affected(usize),
}

#[derive(Debug, Clone)]
pub struct Stmt {
    pub sql: String,
    pub class: Class,
    pub expect: Expect,
}

/// splitmix64: small, seedable, and its output pins the stream hash.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is below 2^-40 here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `s` column of `kv` is a function of the key.
pub fn kv_s(k: i64) -> String {
    format!("s{k:07}")
}

/// The preloaded value of key `k`.
pub fn kv_preload_v(k: i64) -> i64 {
    k * 7 % 1000
}

/// One client's view of its own keys in `kv`. Clients own disjoint keys,
/// so the model of acknowledged statements is the union of these.
#[derive(Debug, Clone)]
pub struct KvModel {
    /// Live keys in an order that depends only on the stream.
    live: Vec<i64>,
    pub values: HashMap<i64, i64>,
    next_new: i64,
}

impl KvModel {
    fn new(client: usize, clients: usize) -> KvModel {
        let live: Vec<i64> = (0..KV_PRELOAD_ROWS as i64)
            .filter(|k| *k as usize % clients == client)
            .collect();
        let values = live.iter().map(|&k| (k, kv_preload_v(k))).collect();
        KvModel {
            live,
            values,
            next_new: 1_000_000 + client as i64,
        }
    }

    fn fresh_key(&mut self, clients: usize) -> i64 {
        let k = self.next_new;
        self.next_new += clients as i64;
        self.live.push(k);
        self.values.insert(k, k % 1000);
        k
    }
}

/// One closed-loop client's statement stream.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    issued: u64,
    /// Write statements made so far, over all phases of a run.
    pub writes: u64,
    clients: usize,
    pub kv: KvModel,
}

/// `larger_than_pool` repeats this 20-statement pattern: 11 point lookups,
/// 3 unclustered 0.1 % ranges, 2 unclustered 1 % ranges, 2 clustered 1 %
/// ranges, 2 20 % ranges. With 11 of 20 the overall median lies inside the
/// point class, and the 20 % ranges occupy the top tenth, so p95 lies
/// inside them; the range class's median is an unclustered 0.1 % range.
const LTP_PATTERN: [LtpSlot; 20] = {
    use LtpSlot::*;
    [
        Point,
        Unclustered01,
        Point,
        Clustered1,
        Point,
        Unclustered1,
        Point,
        Scan20,
        Point,
        Unclustered01,
        Point,
        Point,
        Clustered1,
        Point,
        Unclustered1,
        Point,
        Scan20,
        Point,
        Unclustered01,
        Point,
    ]
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LtpSlot {
    Point,
    Unclustered01,
    Unclustered1,
    Clustered1,
    Scan20,
}

/// `analytic` repeats this battery. Seven slots, so the overall median
/// lies inside the aggregate scans, p95 inside the 5-way join, the scan
/// class's median is an aggregate and the join class's the self-join.
const ANALYTIC_SLOTS: usize = 7;

impl Generator {
    /// The stream of client `client` of `clients`.
    pub fn new(workload: Workload, seed: u64, client: usize, clients: usize) -> Generator {
        // Distinct streams per client and workload from one seed, except
        // that `point_wire` sends exactly the stream of `point_inproc`.
        let stream = match workload {
            Workload::PointWire => Workload::PointInproc,
            w => w,
        };
        let mut mix = Rng::new(seed ^ ((client as u64 + 1) << 32) ^ stream as u64);
        Generator {
            workload,
            rng: Rng::new(mix.next_u64()),
            issued: 0,
            writes: 0,
            clients,
            kv: KvModel::new(client, clients),
        }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::PointInproc | Workload::PointWire => self.point_mix(),
            Workload::LargerThanPool => self.larger_than_pool(i),
            Workload::Analytic => self.analytic(i),
            Workload::WriteMix => self.write_mix(),
        }
    }

    /// A point read that changes nothing: warm-up for `write_mix`, whose
    /// measured statements must start from the preloaded table.
    pub fn read_only_stmt(&mut self) -> Stmt {
        match self.workload {
            Workload::WriteMix => self.kv_read(),
            _ => self.next_stmt(),
        }
    }

    fn wisc_point(&mut self) -> Stmt {
        let k = self.rng.below(WISC_INDEXED_ROWS as u64) as i64;
        Stmt {
            sql: format!("SELECT * FROM wisc WHERE unique1 = {k}"),
            class: Class::Point,
            expect: Expect::WiscPoint(k),
        }
    }

    fn wisc_range(&mut self, col: usize, len: usize, class: Class) -> Stmt {
        let lo = self.rng.below((WISC_INDEXED_ROWS - len + 1) as u64) as i64;
        let hi = lo + len as i64;
        let name = ["unique1", "unique2"][col];
        Stmt {
            sql: format!("SELECT * FROM wisc WHERE {name} >= {lo} AND {name} < {hi}"),
            class,
            expect: Expect::WiscRange { col, lo, hi },
        }
    }

    /// 70 % point lookups on `unique1`, 30 % 100-row ranges on `unique2`:
    /// the median lies inside the points, p95 inside the ranges.
    fn point_mix(&mut self) -> Stmt {
        if self.rng.below(100) < 70 {
            self.wisc_point()
        } else {
            self.wisc_range(1, 100, Class::Range)
        }
    }

    fn larger_than_pool(&mut self, i: u64) -> Stmt {
        let n = WISC_INDEXED_ROWS;
        match LTP_PATTERN[(i % 20) as usize] {
            LtpSlot::Point => self.wisc_point(),
            LtpSlot::Unclustered01 => self.wisc_range(0, n / 1000, Class::Range),
            LtpSlot::Unclustered1 => self.wisc_range(0, n / 100, Class::Range),
            LtpSlot::Clustered1 => self.wisc_range(1, n / 100, Class::Range),
            LtpSlot::Scan20 => self.wisc_range(0, n / 5, Class::Scan),
        }
    }

    fn analytic(&mut self, i: u64) -> Stmt {
        let customers = (150.0 * TPCH_SCALE) as u64;
        let query = match i % ANALYTIC_SLOTS as u64 {
            0 => Query::RevenuePerNation,
            1 | 4 => Query::WiscAggregate {
                odd: self.rng.below(2) as i64,
            },
            2 => Query::WiscSelfJoin {
                one_pct: self.rng.below(100) as i64,
            },
            3 => Query::CustomerOrders {
                customer: self.rng.below(customers) as i64,
            },
            5 => Query::ShippedBigOrders {
                status: ["open", "shipped", "done"][self.rng.below(3) as usize],
                balance: 4_000 + self.rng.below(2_000) as i64,
            },
            _ => Query::WiscTopK {
                ten_pct: self.rng.below(10) as i64,
            },
        };
        Stmt {
            sql: query.sql(),
            class: query.class(),
            expect: Expect::Analytic(query),
        }
    }

    fn kv_read(&mut self) -> Stmt {
        let k = self.kv.live[self.rng.below(self.kv.live.len() as u64) as usize];
        Stmt {
            sql: format!("SELECT * FROM kv WHERE k = {k}"),
            class: Class::Point,
            expect: Expect::KvRow {
                k,
                v: self.kv.values[&k],
            },
        }
    }

    /// 55 % point reads, 22 % single-row inserts, 3 % 10-row inserts, 11 %
    /// updates by key, 9 % deletes by key: the overall median lies inside
    /// the reads, p95 inside the modifies, the insert class's median is a
    /// single-row insert and the modify class's an update.
    fn write_mix(&mut self) -> Stmt {
        let values = |keys: &[i64]| -> String {
            keys.iter()
                .map(|k| format!("({k}, {}, '{}')", k % 1000, kv_s(*k)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let clients = self.clients;
        let roll = self.rng.below(100);
        if roll >= 55 {
            self.writes += 1;
        }
        match roll {
            0..=54 => self.kv_read(),
            55..=76 => {
                let k = self.kv.fresh_key(clients);
                Stmt {
                    sql: format!("INSERT INTO kv VALUES {}", values(&[k])),
                    class: Class::Insert,
                    expect: Expect::Affected(1),
                }
            }
            77..=79 => {
                let keys: Vec<i64> = (0..10).map(|_| self.kv.fresh_key(clients)).collect();
                Stmt {
                    sql: format!("INSERT INTO kv VALUES {}", values(&keys)),
                    class: Class::Insert,
                    expect: Expect::Affected(10),
                }
            }
            80..=90 => {
                let k = self.kv.live[self.rng.below(self.kv.live.len() as u64) as usize];
                *self.kv.values.get_mut(&k).expect("live key has a value") += 1;
                Stmt {
                    sql: format!("UPDATE kv SET v = v + 1 WHERE k = {k}"),
                    class: Class::Modify,
                    expect: Expect::Affected(1),
                }
            }
            _ => {
                let at = self.rng.below(self.kv.live.len() as u64) as usize;
                let k = self.kv.live.swap_remove(at);
                self.kv.values.remove(&k);
                Stmt {
                    sql: format!("DELETE FROM kv WHERE k = {k}"),
                    class: Class::Modify,
                    expect: Expect::Affected(1),
                }
            }
        }
    }
}

/// FNV-1a over the first 1 000 statements of every client: two runs that
/// print the same hash sent the engine the same statements.
pub fn stream_hash(workload: Workload, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for client in 0..workload.clients() {
        let mut g = Generator::new(workload, seed, client, workload.clients());
        for _ in 0..1_000 {
            for b in g.next_stmt().sql.bytes().chain([b'\n']) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        for w in Workload::ALL {
            assert_eq!(stream_hash(w, 7), stream_hash(w, 7), "{}", w.name());
            assert_ne!(stream_hash(w, 7), stream_hash(w, 8), "{}", w.name());
        }
        // `point_wire − point_inproc` isolates the server only if both
        // send the same statements.
        assert_eq!(
            stream_hash(Workload::PointInproc, 7),
            stream_hash(Workload::PointWire, 7)
        );
    }

    #[test]
    fn clients_of_one_workload_get_different_streams() {
        let mut a = Generator::new(Workload::PointInproc, 3, 0, 2);
        let mut b = Generator::new(Workload::PointInproc, 3, 1, 2);
        assert_ne!(a.next_stmt().sql, b.next_stmt().sql);
    }

    fn shares(w: Workload, n: usize) -> HashMap<Class, f64> {
        let mut g = Generator::new(w, 11, 0, 1);
        let mut counts: HashMap<Class, f64> = HashMap::new();
        for _ in 0..n {
            *counts.entry(g.next_stmt().class).or_default() += 1.0 / n as f64;
        }
        counts
    }

    #[test]
    fn mixes_have_the_stated_proportions() {
        let p = shares(Workload::PointInproc, 20_000);
        assert!((p[&Class::Point] - 0.70).abs() < 0.02, "{p:?}");
        assert!((p[&Class::Range] - 0.30).abs() < 0.02, "{p:?}");

        let l = shares(Workload::LargerThanPool, 2_000);
        assert!((l[&Class::Point] - 0.55).abs() < 1e-9, "{l:?}");
        assert!((l[&Class::Range] - 0.35).abs() < 1e-9, "{l:?}");
        assert!((l[&Class::Scan] - 0.10).abs() < 1e-9, "{l:?}");

        let a = shares(Workload::Analytic, 7_000);
        assert!((a[&Class::Join] - 3.0 / 7.0).abs() < 1e-9, "{a:?}");
        assert!((a[&Class::Scan] - 3.0 / 7.0).abs() < 1e-9, "{a:?}");
        assert!((a[&Class::Range] - 1.0 / 7.0).abs() < 1e-9, "{a:?}");

        let w = shares(Workload::WriteMix, 20_000);
        assert!((w[&Class::Point] - 0.55).abs() < 0.02, "{w:?}");
        assert!((w[&Class::Insert] - 0.25).abs() < 0.02, "{w:?}");
        assert!((w[&Class::Modify] - 0.20).abs() < 0.02, "{w:?}");
    }

    #[test]
    fn write_mix_clients_own_disjoint_keys_and_the_model_follows_the_stream() {
        let mut a = Generator::new(Workload::WriteMix, 5, 0, 2);
        let mut b = Generator::new(Workload::WriteMix, 5, 1, 2);
        for _ in 0..5_000 {
            a.next_stmt();
            b.next_stmt();
        }
        assert!(a.kv.values.keys().all(|k| !b.kv.values.contains_key(k)));
        assert_eq!(a.kv.live.len(), a.kv.values.len());
        // Inserts outnumber deletes, so a client never runs out of keys.
        assert!(a.kv.live.len() > KV_PRELOAD_ROWS / 2);
    }
}
