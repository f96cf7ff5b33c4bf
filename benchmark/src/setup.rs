//! Set-up: the database each workload runs against, and the connections
//! its clients use.

use std::sync::Arc;
use std::time::Duration;

use evopt_common::{Tuple, Value};
use evopt_engine::{Database, DatabaseConfig, Durability, Session};
use evopt_server::{serve, Client, ServerConfig, ServerHandle};
use evopt_storage::{DiskBackend, DiskManager};
use evopt_workload::{load_tpch_lite, load_wisconsin};

use crate::gen::{
    kv_preload_v, kv_s, Workload, IO_LATENCY_MICROS, KV_PRELOAD_ROWS, TPCH_SCALE,
    WISC_ANALYTIC_ROWS, WISC_INDEXED_ROWS,
};
use crate::oracle::Outcome;
use crate::trace::TimingDisk;

pub type BenchResult<T> = std::result::Result<T, String>;

/// One client's way to the engine: an in-process session or a TCP
/// connection to the server. Both block until the reply is complete.
pub enum Conn {
    Inproc(Session),
    Wire(Client),
}

impl Conn {
    pub fn run(&mut self, sql: &str) -> Outcome {
        match self {
            Conn::Inproc(session) => match session.execute(sql) {
                Ok(evopt_engine::QueryResult::Rows { rows, .. }) => Outcome::Rows(rows),
                Ok(evopt_engine::QueryResult::Affected(n)) => Outcome::Affected(n),
                Ok(other) => Outcome::Error(format!("unexpected result {other:?}")),
                Err(e) => Outcome::Error(e.to_string()),
            },
            Conn::Wire(client) => Outcome::from_response(client.request(sql)),
        }
    }
}

pub struct Env {
    pub workload: Workload,
    pub config: DatabaseConfig,
    pub db: Arc<Database>,
    /// The disk under everything; it survives the `Database` for the
    /// crash-recovery check.
    pub base: Arc<DiskManager>,
    /// Present in the traced run and on `larger_than_pool`: the wrapper
    /// the engine does its I/O through.
    pub timing: Option<Arc<TimingDisk>>,
    /// What the database was opened on: the wrapper when there is one,
    /// the plain disk otherwise.
    backend: Arc<dyn DiskBackend>,
    pub server: Option<ServerHandle>,
}

impl Env {
    pub fn connect(&self) -> BenchResult<Conn> {
        match &self.server {
            Some(server) => Client::connect(server.addr())
                .map(Conn::Wire)
                .map_err(|e| format!("connect: {e}")),
            None => Ok(Conn::Inproc(self.db.session())),
        }
    }

    /// Stop the server (joins its accept thread) and let go of the
    /// database, keeping what it was opened on.
    pub fn shutdown(self) -> (Arc<dyn DiskBackend>, DatabaseConfig) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        (self.backend, self.config)
    }
}

/// Everything `setup_s` times: load, index, ANALYZE, and for `point_wire`
/// the server start. `traced` puts the timing disk under the engine;
/// `larger_than_pool` has it in every run, as its simulated device.
pub fn build(workload: Workload, seed: u64, traced: bool) -> BenchResult<Env> {
    let base = Arc::new(DiskManager::new());
    let timing = (traced || workload == Workload::LargerThanPool)
        .then(|| Arc::new(TimingDisk::new(Arc::clone(&base))));
    let config = DatabaseConfig {
        buffer_pages: workload.buffer_pages(),
        durability: match workload {
            Workload::WriteMix => Durability::Wal,
            _ => Durability::Off,
        },
        ..Default::default()
    };
    let backend: Arc<dyn DiskBackend> = match &timing {
        Some(t) => Arc::clone(t) as Arc<dyn DiskBackend>,
        None => Arc::clone(&base) as Arc<dyn DiskBackend>,
    };
    let db =
        Arc::new(Database::create_on(Arc::clone(&backend), config).map_err(|e| e.to_string())?);
    let sql = |text: &str| {
        db.execute(text)
            .map(|_| ())
            .map_err(|e| format!("{text}: {e}"))
    };
    match workload {
        Workload::PointInproc | Workload::PointWire | Workload::LargerThanPool => {
            load_wisconsin(&db, "wisc", WISC_INDEXED_ROWS, seed).map_err(|e| e.to_string())?;
            sql("CREATE UNIQUE INDEX wisc_u1 ON wisc (unique1)")?;
            sql("CREATE CLUSTERED INDEX wisc_u2 ON wisc (unique2)")?;
            sql("ANALYZE")?;
        }
        Workload::Analytic => {
            load_wisconsin(&db, "wisc", WISC_ANALYTIC_ROWS, seed).map_err(|e| e.to_string())?;
            // Creates its indexes and ends with a database-wide ANALYZE.
            load_tpch_lite(&db, TPCH_SCALE, seed).map_err(|e| e.to_string())?;
        }
        Workload::WriteMix => {
            sql("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, s STRING NOT NULL)")?;
            let rows: Vec<Tuple> = (0..KV_PRELOAD_ROWS as i64)
                .map(|k| {
                    Tuple::new(vec![
                        Value::Int(k),
                        Value::Int(kv_preload_v(k)),
                        Value::Str(kv_s(k)),
                    ])
                })
                .collect();
            db.insert_tuples("kv", &rows).map_err(|e| e.to_string())?;
            sql("CREATE UNIQUE INDEX kv_k ON kv (k)")?;
            sql("ANALYZE")?;
            db.checkpoint().map_err(|e| e.to_string())?;
        }
    }
    if let (Workload::LargerThanPool, Some(device)) = (workload, &timing) {
        // Loaded at memory speed; from here every page transfer waits.
        device.set_latency(Duration::from_micros(IO_LATENCY_MICROS));
    }
    let server = match workload {
        Workload::PointWire => Some(
            serve(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    Ok(Env {
        workload,
        config,
        db,
        base,
        timing,
        backend,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `larger_than_pool` must really exceed its pool, and the other four
    /// must really fit theirs, or the hit-rate predictions mean nothing.
    #[test]
    fn only_larger_than_pool_exceeds_its_pool() {
        for w in Workload::ALL {
            let env = build(w, 1, false).unwrap();
            let pages = env.db.disk().page_count() as usize;
            if w == Workload::LargerThanPool {
                let heap = env.db.catalog().table("wisc").unwrap().heap.page_count() as usize;
                assert!(heap > 2 * w.buffer_pages(), "{heap} heap pages");
                assert!(pages > 4 * w.buffer_pages(), "{pages} pages");
            } else {
                assert!(pages < w.buffer_pages(), "{}: {pages} pages", w.name());
            }
            env.shutdown();
        }
    }
}
