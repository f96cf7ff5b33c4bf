//! The closed loop: each client sends its next statement only after the
//! reply to the previous one is complete and checked.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::gen::{Class, Generator, Workload, CHECKPOINT_EVERY_WRITES};
use crate::oracle::{Oracle, Outcome};
use crate::pace::Pace;
use crate::setup::{BenchResult, Conn, Env};
use crate::{stats, trace};

/// When a phase ends: after `per_client` statements or at `deadline`,
/// whichever comes first. Workloads whose counts must repeat exactly run a
/// fixed number of statements; their deadline only stops a run that a
/// slower engine would stretch past the driver's time limit.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub per_client: u64,
    pub deadline: Duration,
}

impl Limit {
    /// As many statements as fit into `duration`.
    pub fn time(duration: Duration) -> Limit {
        Limit {
            per_client: u64::MAX,
            deadline: duration,
        }
    }
}

/// The clients of one workload: each has a connection and its own
/// statement stream; all check their answers with one oracle.
pub struct Clients {
    pub oracle: Oracle,
    pub conns: Vec<Conn>,
    pub gens: Vec<Generator>,
}

impl Clients {
    pub fn connect(env: &Env, seed: u64) -> BenchResult<Clients> {
        let oracle = match env.workload {
            Workload::Analytic => Oracle::with_dumps(&env.db)?,
            _ => Oracle::implied(),
        };
        let n = env.workload.clients();
        Ok(Clients {
            oracle,
            conns: (0..n).map(|_| env.connect()).collect::<BenchResult<_>>()?,
            gens: (0..n)
                .map(|c| Generator::new(env.workload, seed, c, n))
                .collect(),
        })
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseOpts {
    /// Record a root span per statement (the traced run).
    pub traced: bool,
    /// Send only statements that change nothing (warm-up).
    pub read_only: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// When it was sent, since the phase began.
    pub at_ns: u64,
    pub ns: u64,
    /// The client's own work between this statement's reply and the next
    /// send: checking the answer, freeing it, making the next statement.
    /// 0 after the last statement of a phase.
    pub think_ns: u64,
}

#[derive(Debug, Default)]
pub struct ClientSamples {
    /// In the order sent.
    pub latencies: Vec<Sample>,
    pub failed: u64,
    pub first_failures: Vec<String>,
    pub checkpoint_ms: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub clients: Vec<ClientSamples>,
    pub wall: Duration,
}

impl PhaseResult {
    /// Several phases of the same clients as one: samples appended client
    /// by client as if each phase began when the one before ended, wall
    /// times added.
    pub fn merge(phases: Vec<PhaseResult>) -> PhaseResult {
        let mut merged = PhaseResult::default();
        for phase in phases {
            let before = merged.wall.as_nanos() as u64;
            merged.wall += phase.wall;
            merged
                .clients
                .resize_with(phase.clients.len(), Default::default);
            for (into, from) in merged.clients.iter_mut().zip(phase.clients) {
                into.latencies
                    .extend(from.latencies.into_iter().map(|s| Sample {
                        at_ns: before + s.at_ns,
                        ..s
                    }));
                into.failed += from.failed;
                into.first_failures.extend(from.first_failures);
                into.checkpoint_ms.extend(from.checkpoint_ms);
            }
        }
        merged
    }

    /// The same phase as it would have gone at the machine's usual speed:
    /// every statement's time divided by the pace of the window it ran in
    /// (see `pace`), and the wall time shortened as the statements' times
    /// together were. `usual_ns` is the median of the client's work after
    /// a statement at the usual speed. Also returns the pace of the whole
    /// phase, the median over the clients'.
    pub fn at_usual_pace(mut self, usual_ns: f64) -> Option<(PhaseResult, f64)> {
        let (mut raw_ns, mut paced_ns) = (0.0, 0.0);
        let mut paces = Vec::new();
        for client in &mut self.clients {
            let pace = Pace::of(&client.latencies, usual_ns)?;
            paces.push(pace.run);
            for s in &mut client.latencies {
                let ns = s.ns as f64 / pace.at(s.at_ns);
                raw_ns += s.ns as f64;
                paced_ns += ns;
                s.ns = ns.round() as u64;
            }
        }
        self.wall = self.wall.mul_f64(paced_ns / raw_ns);
        Some((self, stats::median(&paces)?))
    }

    /// The clients' own work between a reply and the next send, in ns.
    pub fn think_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples().map(|s| s.think_ns).filter(|ns| *ns > 0)
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.latencies.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| &c.latencies)
    }

    pub fn stmts_per_s(&self) -> f64 {
        self.attempted() as f64 / self.wall.as_secs_f64()
    }

    /// Nearest-rank percentile `p` of the latencies in µs, of one class or
    /// of all, and the number of samples it rests on.
    pub fn latency_us(&self, class: Option<Class>, p: f64) -> (Option<f64>, usize) {
        let mut us: Vec<f64> = self
            .samples()
            .filter(|s| class.is_none_or(|want| want == s.class))
            .map(|s| s.ns as f64 / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        (stats::percentile(&us, p), us.len())
    }

    pub fn count_where(&self, pred: impl Fn(Class) -> bool) -> u64 {
        self.samples().filter(|s| pred(s.class)).count() as u64
    }
}

/// Run one phase on every client at once and wait for all of them.
pub fn run_phase(env: &Env, clients: &mut Clients, limit: Limit, opts: PhaseOpts) -> PhaseResult {
    let Clients {
        oracle,
        conns,
        gens,
    } = clients;
    let oracle = &*oracle;
    let barrier = Barrier::new(conns.len() + 1);
    let mut started = Instant::now();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(gens.iter_mut())
            .enumerate()
            .map(|(client, (conn, gen))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let samples = client_loop(env, client, conn, gen, oracle, limit, opts);
                    trace::flush_thread();
                    samples
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    PhaseResult {
        clients,
        wall: started.elapsed(),
    }
}

fn client_loop(
    env: &Env,
    client: usize,
    conn: &mut Conn,
    gen: &mut Generator,
    oracle: &Oracle,
    limit: Limit,
    opts: PhaseOpts,
) -> ClientSamples {
    let mut out = ClientSamples::default();
    let started = Instant::now();
    let checkpoints = env.workload == Workload::WriteMix && client == 0 && !opts.read_only;
    let mut sent = 0u64;
    let mut last_reply = Instant::now();
    while sent < limit.per_client && started.elapsed() < limit.deadline {
        let stmt = if opts.read_only {
            gen.read_only_stmt()
        } else {
            gen.next_stmt()
        };
        let send = Instant::now();
        if let Some(previous) = out.latencies.last_mut() {
            previous.think_ns = (send - last_reply).as_nanos() as u64;
        }
        let (outcome, ns) = if opts.traced {
            trace::set_stmt(((client as u64 + 1) << 40) | (sent + 1));
            trace::span("stmt", || conn.run(&stmt.sql))
        } else {
            let outcome = conn.run(&stmt.sql);
            (outcome, send.elapsed().as_nanos() as u64)
        };
        last_reply = Instant::now();
        sent += 1;
        out.latencies.push(Sample {
            class: stmt.class,
            at_ns: (send - started).as_nanos() as u64,
            ns,
            think_ns: 0,
        });
        if !oracle.check(&stmt.expect, &outcome) {
            out.failed += 1;
            if out.first_failures.len() < 3 {
                let got = match &outcome {
                    Outcome::Rows(rows) => format!("{} rows", rows.len()),
                    Outcome::Affected(n) => format!("{n} rows affected"),
                    Outcome::Error(e) => e.clone(),
                };
                out.first_failures.push(format!("{} -> {got}", stmt.sql));
            }
        }
        if checkpoints
            && stmt.class.is_write()
            && gen.writes.is_multiple_of(CHECKPOINT_EVERY_WRITES)
        {
            let run = || env.db.checkpoint();
            let (result, ns) = if opts.traced {
                trace::set_stmt(0);
                trace::span("storage.wal.checkpoint", run)
            } else {
                let t = Instant::now();
                (run(), t.elapsed().as_nanos() as u64)
            };
            out.checkpoint_ms.push(ns as f64 / 1e6);
            if let Err(e) = result {
                out.failed += 1;
                out.first_failures.push(format!("checkpoint: {e}"));
            }
            // A checkpoint is the engine's work, not the generator's.
            last_reply = Instant::now();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pace::WINDOW_NS;

    /// A phase whose second window ran at half speed reads, at the usual
    /// pace, as if it had run at full speed throughout.
    #[test]
    fn a_slow_window_is_brought_back_to_the_usual_pace() {
        let usual = 400;
        let stmt = |window: u64, slow: u64| Sample {
            class: Class::Point,
            at_ns: window * WINDOW_NS,
            ns: 20_000 * slow,
            think_ns: usual * slow,
        };
        let latencies: Vec<Sample> = (0..50)
            .map(|_| stmt(0, 1))
            .chain((0..50).map(|_| stmt(1, 2)))
            .collect();
        let raw = PhaseResult {
            clients: vec![ClientSamples {
                latencies,
                ..Default::default()
            }],
            wall: Duration::from_micros(50 * 20 + 50 * 40),
        };
        let (paced, pace) = raw.at_usual_pace(usual as f64).unwrap();
        assert!(paced.samples().all(|s| s.ns == 20_000));
        assert_eq!(paced.wall, Duration::from_micros(100 * 20));
        assert_eq!(paced.attempted(), 100);
        assert_eq!(pace, 1.5);
    }
}
