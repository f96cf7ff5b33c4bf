//! Cost-model validation in miniature (the plan-regret test's calibration):
//! plan a set of queries with several strategies, then compare each plan's
//! *estimated* cost against the *measured* physical page I/O of actually
//! running it on the simulated disk.
//!
//! ```text
//! cargo run --release --example cost_model_validation
//! ```

use evopt::workload::{load_wisconsin, JoinWorkload, Topology};
use evopt::{Database, DatabaseConfig, Strategy};

fn main() {
    let db = Database::new(DatabaseConfig {
        buffer_pages: 48,
        ..Default::default()
    });
    load_wisconsin(&db, "wisc", 10_000, 1).expect("wisconsin");
    db.execute("CREATE INDEX wisc_u1 ON wisc (unique1)")
        .unwrap();
    let chain = JoinWorkload::new(Topology::Chain, 3, 300, 1);
    chain.load(&db, true).expect("chain");
    db.execute("ANALYZE").unwrap();

    let queries = vec![
        (
            "full scan".to_string(),
            "SELECT COUNT(*) FROM wisc".to_string(),
        ),
        (
            "point lookup".to_string(),
            "SELECT * FROM wisc WHERE unique1 = 7777".to_string(),
        ),
        (
            "10% range".to_string(),
            "SELECT COUNT(*) FROM wisc WHERE unique2 < 1000".to_string(),
        ),
        ("3-way chain join".to_string(), chain.count_query()),
    ];

    let model = db.optimizer_config().cost_model;
    println!(
        "{:<18} {:<10} {:>14} {:>12}",
        "query", "strategy", "estimated cost", "measured io"
    );
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for (label, sql) in &queries {
        for strategy in [Strategy::SystemR, Strategy::Syntactic] {
            db.set_strategy(strategy);
            let (_, plan) = db.plan_sql(sql).expect("plan");
            let est = model.total(plan.est_cost);
            db.pool().evict_all().expect("evict");
            let before = db.disk().snapshot();
            db.run_plan(&plan).expect("run");
            let io = db.disk().snapshot().since(&before).total();
            println!("{label:<18} {:<10} {est:>14.1} {io:>12}", strategy.name());
            pairs.push((est, io as f64));
        }
    }

    // Rank correlation by hand (tiny n, no ties expected).
    let rho = spearman(&pairs);
    println!("\nSpearman rank correlation (est cost vs measured io): {rho:.3}");
    println!("The model's job is *ordering* plans correctly, not absolute accuracy.");

    // Second half of the feedback loop: cardinality estimation error. Run
    // each query instrumented and report the worst per-operator q-error —
    // how far the selectivity model drifted from the rows operators
    // actually produced.
    db.set_strategy(Strategy::SystemR);
    println!(
        "\n{:<18} {:>10} {:>12} {:>12}",
        "query", "operators", "root q-err", "max q-err"
    );
    for (label, sql) in &queries {
        let (_, metrics) = db.query_with_metrics(sql).expect("instrumented run");
        println!(
            "{label:<18} {:>10} {:>12.2} {:>12.2}",
            metrics.operators.len(),
            metrics.root().q_error(),
            metrics.max_q_error()
        );
    }
    println!("\nq-error = max(est/actual, actual/est) per operator; 1.00 is exact.");
}

fn spearman(pairs: &[(f64, f64)]) -> f64 {
    let rank = |key: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..pairs.len()).collect();
        idx.sort_by(|&i, &j| key(&pairs[i]).total_cmp(&key(&pairs[j])));
        let mut r = vec![0.0; pairs.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (ra, rb) = (rank(|p| p.0), rank(|p| p.1));
    let n = pairs.len() as f64;
    let d2: f64 = ra.iter().zip(&rb).map(|(a, b)| (a - b) * (a - b)).sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}
