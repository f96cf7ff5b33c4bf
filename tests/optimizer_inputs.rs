//! What the optimizer reads to choose a plan, and what the plan digest
//! hashes.
//!
//! * Planning fetches no page. The optimizer prices from the statistics of
//!   the catalog version it was handed and from each B+-tree's shape, which
//!   the tree keeps in memory, so the buffer pool's counters stand still
//!   across `Optimizer::optimize`, before ANALYZE and after it.
//! * `PhysicalPlan::digest` streams each operator's detail line into the
//!   hasher. It must equal the value of the definition the query log,
//!   EXPLAIN and recorded benchmark runs were made with: `DefaultHasher`
//!   over each pre-order node's `(depth, op_detail())`.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use evopt::core::physical::PhysicalPlan;
use evopt::workload::tpch_lite::queries::{
    CUSTOMER_ORDERS, REVENUE_PER_NATION, SHIPPED_BIG_ORDERS,
};
use evopt::workload::{load_tpch_lite, load_wisconsin, JoinWorkload, Topology};
use evopt::{Database, Optimizer, Strategy};

const STRATEGIES: [Strategy; 7] = [
    Strategy::SystemR,
    Strategy::BushyDp,
    Strategy::DpCcp,
    Strategy::Greedy,
    Strategy::Goo,
    Strategy::QuickPick {
        samples: 8,
        seed: 1,
    },
    Strategy::Syntactic,
];

/// Wisconsin with the benchmark's two indexes, not analyzed.
fn wisconsin(db: &Database) {
    load_wisconsin(db, "wisc", 4_000, 1).unwrap();
    db.execute("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX wisc_u2 ON wisc (unique2)")
        .unwrap();
}

/// Re-optimize `sql`'s bound plan and hold the pool's counters, and the
/// plan, to what they were.
fn assert_plans_without_fetching(db: &Database, sql: &str) {
    let (logical, chosen) = db.plan_sql(sql).unwrap();
    let optimizer = Optimizer::new(db.optimizer_config());
    let before = db.pool().stats();
    let replanned = optimizer.optimize(&logical, db.catalog()).unwrap();
    assert_eq!(db.pool().stats(), before, "planning fetched a page: {sql}");
    assert_eq!(replanned.digest(), chosen.digest(), "{sql}");
}

#[test]
fn the_optimizer_fetches_no_page() {
    let db = Database::with_defaults();
    wisconsin(&db);
    // Three TPC-H-lite tables, copied from a loaded set so that they start
    // without statistics.
    let source = Database::with_defaults();
    load_tpch_lite(&source, 1.0, 1).unwrap();
    for (table, ddl) in [
        (
            "customer",
            "CREATE TABLE customer (c_key INT NOT NULL, c_nation INT NOT NULL, \
             c_name STRING NOT NULL, c_balance INT NOT NULL)",
        ),
        (
            "orders",
            "CREATE TABLE orders (o_key INT NOT NULL, o_customer INT NOT NULL, \
             o_status STRING NOT NULL, o_total INT NOT NULL)",
        ),
        (
            "lineitem",
            "CREATE TABLE lineitem (l_order INT NOT NULL, l_line INT NOT NULL, \
             l_quantity INT NOT NULL, l_price INT NOT NULL, l_flag STRING NOT NULL)",
        ),
    ] {
        db.execute(ddl).unwrap();
        let rows = source.query(&format!("SELECT * FROM {table}")).unwrap();
        db.insert_tuples(table, &rows).unwrap();
    }
    for ddl in [
        "CREATE UNIQUE INDEX pk_customer ON customer (c_key)",
        "CREATE UNIQUE INDEX pk_orders ON orders (o_key)",
        "CREATE INDEX ix_orders_customer ON orders (o_customer)",
        "CREATE INDEX ix_lineitem_order ON lineitem (l_order)",
    ] {
        db.execute(ddl).unwrap();
    }
    let statements = [
        "SELECT * FROM wisc WHERE unique1 = 1234",
        "SELECT * FROM wisc WHERE unique2 >= 500 AND unique2 < 600",
        // An UPDATE's plan is the one that finds its rows.
        "UPDATE wisc SET odd = odd + 1 WHERE unique1 = 77",
        "SELECT c.c_name, o.o_key, l.l_price FROM customer c \
         JOIN orders o ON o.o_customer = c.c_key \
         JOIN lineitem l ON l.l_order = o.o_key WHERE c.c_balance > 5000",
    ];
    for sql in statements {
        assert_plans_without_fetching(&db, sql);
    }
    db.execute("ANALYZE").unwrap();
    for sql in statements {
        assert_plans_without_fetching(&db, sql);
    }
}

/// The digest as first defined: each pre-order node's depth and detail
/// line, hashed through `Hash`.
fn oracle_digest(plan: &PhysicalPlan) -> u64 {
    let mut h = DefaultHasher::new();
    for (depth, node) in plan.pre_order() {
        depth.hash(&mut h);
        node.op_detail().hash(&mut h);
    }
    h.finish()
}

#[test]
fn the_streamed_digest_is_the_old_digest() {
    // Operator names, and "filter"/"residual" for predicates in scans.
    let mut seen = BTreeSet::new();
    let mut check = |plan: &PhysicalPlan, what: &str| {
        assert_eq!(plan.digest(), oracle_digest(plan), "{what}:\n{plan}");
        for (_, node) in plan.pre_order() {
            seen.insert(node.op_name());
            let detail = node.op_detail();
            if detail.contains(" filter=") {
                seen.insert("filter");
            }
            if detail.contains(" residual=") {
                seen.insert("residual");
            }
        }
    };

    for (topology, n, seed) in [
        (Topology::Chain, 4, 1u64),
        (Topology::Star, 5, 2),
        (Topology::Cycle, 4, 3),
        (Topology::Clique, 4, 4),
    ] {
        let db = Database::with_defaults();
        let w = JoinWorkload::new(topology, n, 40, seed);
        w.load(&db, true).unwrap();
        for strategy in STRATEGIES {
            db.set_strategy(strategy);
            for sql in [w.count_query(), w.filtered_query(200)] {
                let (_, plan) = db.plan_sql(&sql).unwrap();
                check(&plan, &format!("{}: {sql}", strategy.name()));
            }
        }
    }

    // The statement shapes of the five benchmark workloads, then the
    // operators and predicate positions those leave out.
    let db = Database::with_defaults();
    wisconsin(&db);
    load_tpch_lite(&db, 1.0, 1).unwrap();
    for sql in [
        "CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, s STRING NOT NULL)",
        "INSERT INTO kv VALUES (1, 1, 'a'), (2, 2, 'b'), (3, 3, 'c')",
        "CREATE UNIQUE INDEX kv_k ON kv (k)",
        "ANALYZE",
    ] {
        db.execute(sql).unwrap();
    }
    let shapes = [
        // point_inproc, point_wire, larger_than_pool
        "SELECT * FROM wisc WHERE unique1 = 1234",
        "SELECT * FROM wisc WHERE unique2 >= 500 AND unique2 < 600",
        "SELECT * FROM wisc WHERE unique1 >= 500 AND unique1 < 540",
        "SELECT * FROM wisc WHERE unique1 >= 100 AND unique1 < 900",
        // analytic
        REVENUE_PER_NATION,
        SHIPPED_BIG_ORDERS,
        CUSTOMER_ORDERS,
        "SELECT ten_pct, COUNT(*), SUM(unique2) FROM wisc WHERE odd = 1 GROUP BY ten_pct",
        "SELECT a.unique1, b.unique1 FROM wisc a \
         JOIN wisc b ON a.unique1 = b.unique2 WHERE a.one_pct = 7",
        "SELECT * FROM wisc WHERE ten_pct = 3 ORDER BY stringu1 LIMIT 10",
        // write_mix
        "SELECT * FROM kv WHERE k = 2",
        "UPDATE kv SET v = v + 1 WHERE k = 2",
        "DELETE FROM kv WHERE k = 3",
        // the rest
        "SELECT unique2, COUNT(*) FROM wisc GROUP BY unique2",
        "SELECT * FROM wisc WHERE unique1 = 5 AND odd = 1",
        "SELECT ten_pct, COUNT(*) FROM wisc GROUP BY ten_pct HAVING COUNT(*) > 10",
        "SELECT unique1, stringu1 FROM wisc WHERE stringu1 LIKE 'val-0000%' \
         ORDER BY unique1 DESC",
    ];
    for strategy in STRATEGIES {
        db.set_strategy(strategy);
        for sql in shapes {
            let (_, plan) = db.plan_sql(sql).unwrap();
            check(&plan, &format!("{}: {sql}", strategy.name()));
        }
    }

    for feature in [
        "Sort",
        "HashAggregate",
        "SortAggregate",
        "Limit",
        "IndexNestedLoopJoin",
        "Filter",
        "filter",
        "residual",
    ] {
        assert!(seen.contains(feature), "no plan has {feature}: {seen:?}");
    }
}
