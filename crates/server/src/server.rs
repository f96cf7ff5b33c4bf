//! The TCP server: thread-per-connection over a bounded session pool.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use evopt_common::{EvoptError, Result};
use evopt_core::Strategy;
use evopt_engine::{Database, Session};

use crate::metrics::ServerMetrics;
use crate::protocol::{read_frame_into, release_excess, write_frame, FrameBuf, Response, Tag};
use crate::render;

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Connections served concurrently; one engine session each. A
    /// connection arriving when every slot is taken is refused with a
    /// `Bye` frame (never queued).
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_sessions: 32 }
    }
}

/// A running server. Dropping the handle shuts the listener down and joins
/// the accept thread; connections already being served finish their
/// current statement and then fail on their next read.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's connection counters — the same numbers a `METRICS`
    /// scrape renders as `evopt_server_*` families.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Stop accepting, wake the listener, and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve connections over `db`
/// until the returned handle is shut down or dropped.
pub fn serve(db: Arc<Database>, addr: &str, config: ServerConfig) -> Result<ServerHandle> {
    let listener =
        TcpListener::bind(addr).map_err(|e| EvoptError::Io(format!("bind {addr}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| EvoptError::Io(e.to_string()))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::default());
    let max = config.max_sessions.max(1);
    let accept = std::thread::spawn({
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        move || loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Replies are single small segments the client is blocked on:
            // never hold one back for Nagle's timer. Unconditional — there
            // is no workload on a request/response protocol that wants it
            // off. (Failure leaves a slow connection, not a broken one.)
            let _ = stream.set_nodelay(true);
            // Claim a session slot, or refuse: a full server answers
            // immediately instead of letting the connection hang.
            if !metrics.claim_slot(max) {
                metrics.connections_refused.inc();
                let mut stream = stream;
                let refuse = Response::Bye(format!("server at capacity ({max} sessions)"));
                let _ = write_frame(&mut stream, &refuse.encode());
                continue;
            }
            metrics.connections.inc();
            let slot = Slot(Arc::clone(&metrics));
            let session = db.session();
            std::thread::spawn(move || {
                serve_conn(&session, BufReader::new(&stream), &stream, &slot.0);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        metrics,
    })
}

/// One claimed session slot. Dropping it — when the connection's handler
/// returns, or unwinds — counts the connection closed and frees the slot.
struct Slot(Arc<ServerMetrics>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.connections_closed.inc();
        self.0.release_slot();
    }
}

/// One connection's request loop: read a statement frame, execute it on
/// this connection's session, write the tagged response. Exits on client
/// disconnect, any write failure, or a `Bye` (quit or protocol error).
///
/// `reader` and `writer` are the two directions of one stream. Per
/// statement the loop costs one `read` (a small request's header and
/// payload arrive together in the reader's buffer) and one `write` (the
/// reply is rendered into `reply`, behind its header, and leaves whole).
fn serve_conn(
    session: &Session,
    mut reader: impl BufRead,
    mut writer: impl Write,
    metrics: &ServerMetrics,
) {
    let mut request = Vec::new();
    let mut reply = FrameBuf::new();
    loop {
        // End of stream between frames is a disconnect; inside a frame
        // (below) it is a truncated frame.
        match reader.fill_buf() {
            Ok(buffered) if !buffered.is_empty() => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            _ => return,
        }
        reply.begin();
        if let Err(e) = read_frame_into(&mut reader, &mut request) {
            metrics.protocol_errors.inc();
            // A length over the cap came from a peer still connected:
            // tell it why it is being dropped. After a truncated frame
            // there is no one to tell.
            if e.kind() == io::ErrorKind::InvalidData {
                reply.extend(&Response::Bye(e.to_string()).encode());
                if let Ok(sent) = reply.send(&mut writer) {
                    metrics.bytes_out.add(sent as u64);
                }
            }
            return;
        }
        metrics.frames.inc();
        metrics.bytes_in.add(request.len() as u64 + 4);
        // The tag goes first on the wire but is known last.
        reply.extend(&[Tag::Error as u8]);
        let tag = match std::str::from_utf8(&request) {
            Ok(text) => match respond_into(session, text, Some(metrics), &mut reply) {
                Ok(tag) => tag,
                Err(fmt::Error) => {
                    reply.truncate(1);
                    reply.extend(b"response exceeds the frame cap");
                    Tag::Error
                }
            },
            Err(_) => {
                metrics.protocol_errors.inc();
                reply.extend(b"request is not UTF-8");
                Tag::Error
            }
        };
        reply.payload_mut()[0] = tag as u8;
        release_excess(&mut request);
        match reply.send(&mut writer) {
            Ok(sent) => metrics.bytes_out.add(sent as u64),
            Err(_) => return,
        }
        if tag == Tag::Bye {
            return;
        }
    }
}

/// Execute one line of input — SQL or a `\` meta command — on a session
/// and produce the wire response. Shared by the server and the local REPL
/// so both speak identically. (The REPL has no listener, so its scrapes
/// carry engine + session families only; see [`respond_into`].)
pub fn respond(session: &Session, line: &str) -> Response {
    let mut text = String::new();
    match respond_into(session, line, None, &mut text) {
        Ok(tag) => Response::new(tag, text),
        Err(fmt::Error) => Response::Error("response could not be rendered".into()),
    }
}

/// [`respond`], with the response text written to `out` — a connection's
/// outgoing frame, or a `String` — and its tag returned. `out` failing (a
/// frame at its cap) is the only error. With a listener, the `METRICS`
/// frame / `\metrics` command prepends the `evopt_server_*` families to
/// the engine + session scrape.
fn respond_into(
    session: &Session,
    line: &str,
    server: Option<&ServerMetrics>,
    out: &mut impl fmt::Write,
) -> std::result::Result<Tag, fmt::Error> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(Tag::Result);
    }
    let command = if trimmed == "METRICS" {
        // Bare `METRICS` frame: the scrape entry point for tooling that
        // isn't a SQL client (a Prometheus exporter sidecar sends exactly
        // this).
        Some(metrics_response(session, server))
    } else if trimmed == "TOPWAITS" {
        // Bare `TOPWAITS` frame: the contention summary for tooling (same
        // rendering as `\top-waits`).
        Some(top_waits_response(session))
    } else {
        trimmed
            .strip_prefix('\\')
            .map(|meta| meta_command(session, meta, server))
    };
    if let Some(response) = command {
        out.write_str(response.text())?;
        return Ok(response.tag());
    }
    match session.execute(trimmed) {
        Ok(result) => render::render_into(&result, out).map(|()| Tag::Result),
        Err(e) => write!(out, "{e}").map(|()| Tag::Error),
    }
}

/// One scrape: server families (when serving), then the instance-wide
/// engine families, then this session's counters labeled `session="id"`.
fn metrics_response(session: &Session, server: Option<&ServerMetrics>) -> Response {
    let mut text = match server {
        Some(m) => m.render_prometheus(),
        None => String::new(),
    };
    text.push_str(&session.metrics_text());
    Response::Result(text)
}

/// Render the instance-wide contention histograms (the wait points the
/// rank table in `crates/common/src/lockorder.rs` declares), ranked by
/// total wait time. Quantile columns are bucket upper bounds — the best a
/// fixed-bucket histogram can report.
fn top_waits_response(session: &Session) -> Response {
    let snap = session.database().metrics_snapshot();
    let mut families = [
        ("evopt_commit_lock_wait_us", snap.commit_lock_wait_us),
        ("evopt_wal_sync_wait_us", snap.wal_sync_wait_us),
        ("evopt_pool_miss_io_us", snap.pool_miss_io_us),
        ("evopt_pool_load_wait_us", snap.pool_load_wait_us),
        ("evopt_snapshot_acquire_us", snap.snapshot_acquire_us),
    ];
    families.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then(a.0.cmp(b.0)));

    let bound = |b: Option<f64>| match b {
        None => "-".to_string(),
        Some(v) if v.is_infinite() => "+Inf".to_string(),
        Some(v) => format!("<={v:.0}"),
    };
    let mut out = format!(
        "  {:<28} {:>8} {:>12} {:>9} {:>9}\n",
        "family", "waits", "total_us", "p50_us", "max_us"
    );
    for (name, h) in &families {
        out.push_str(&format!(
            "  {:<28} {:>8} {:>12} {:>9} {:>9}\n",
            name,
            h.count,
            h.sum,
            bound(h.quantile_bound(0.5)),
            bound(h.max_bound()),
        ));
    }
    Response::Result(out.trim_end().to_string())
}

const HELP: &str = "  SQL:   CREATE TABLE / CREATE [UNIQUE|CLUSTERED] INDEX / INSERT /\n\
     \x20        SELECT / DELETE / UPDATE / ANALYZE / DROP TABLE /\n\
     \x20        EXPLAIN [ANALYZE] SELECT ...   (terminate with ';')\n\
     \x20 \\tables             list tables, row counts, indexes\n\
     \x20 \\strategy <name>    system-r | bushy-dp | dpccp | greedy |\n\
     \x20                     goo | quickpick | syntactic\n\
     \x20 \\metrics            server + engine + session metrics (Prometheus text)\n\
     \x20 \\top-waits          contention histograms ranked by total wait\n\
     \x20 \\q                  quit";

fn meta_command(session: &Session, cmd: &str, server: Option<&ServerMetrics>) -> Response {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "q" | "quit" | "exit" => Response::Bye("goodbye".into()),
        "help" | "?" => Response::Result(HELP.into()),
        "tables" => {
            let mut out = String::new();
            for t in session.database().catalog().tables() {
                let indexes: Vec<String> = t.indexes().iter().map(|i| i.name.clone()).collect();
                out.push_str(&format!(
                    "  {} — {} rows, {} pages, indexes: [{}]\n",
                    t.name,
                    t.heap.tuple_count(),
                    t.heap.page_count(),
                    indexes.join(", ")
                ));
            }
            Response::Result(out.trim_end().to_string())
        }
        "strategy" => match parts.next().and_then(parse_strategy) {
            Some(s) => {
                session.set_strategy(s);
                Response::Result(format!("strategy: {}", s.name()))
            }
            None => Response::Error("unknown strategy (see \\help)".into()),
        },
        "metrics" => metrics_response(session, server),
        "top-waits" => top_waits_response(session),
        other => Response::Error(format!("unknown command '\\{other}' (see \\help)")),
    }
}

/// Parse a strategy name as accepted by `\strategy`.
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    Some(match name {
        "system-r" => Strategy::SystemR,
        "bushy-dp" => Strategy::BushyDp,
        "dpccp" => Strategy::DpCcp,
        "greedy" => Strategy::Greedy,
        "goo" => Strategy::Goo,
        "quickpick" => Strategy::QuickPick {
            samples: 16,
            seed: 1,
        },
        "syntactic" => Strategy::Syntactic,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::CountingWriter;
    use crate::protocol::{read_response, MAX_FRAME};

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            write_frame(&mut wire, p).unwrap();
        }
        wire
    }

    /// Run `serve_conn` over `wire` as the whole of a connection's input.
    fn converse(db: &Arc<Database>, wire: &[u8]) -> (CountingWriter, ServerMetrics) {
        let metrics = ServerMetrics::default();
        let mut out = CountingWriter::default();
        serve_conn(&db.session(), wire, &mut out, &metrics);
        (out, metrics)
    }

    fn responses(out: &CountingWriter) -> Vec<Response> {
        let mut wire = out.bytes.as_slice();
        let mut all = Vec::new();
        while !wire.is_empty() {
            all.push(read_response(&mut wire).unwrap());
        }
        all
    }

    #[test]
    fn every_reply_is_one_write() {
        let db = Arc::new(Database::with_defaults());
        let wire = frames(&[
            b"CREATE TABLE t (id INT NOT NULL, name STRING)",
            b"INSERT INTO t VALUES (1, 'ada'), (2, 'grace')",
            b"SELECT * FROM t",
            b"SELECT * FROM missing",
            b"\\q",
            b"SELECT 'never read: the connection ended at the Bye'",
        ]);
        let (out, metrics) = converse(&db, &wire);
        assert_eq!(out.writes, 5, "one write per reply frame");
        let replies = responses(&out);
        assert_eq!(
            replies[2],
            Response::Result("| t.id | t.name |\n| 1 | 'ada' |\n| 2 | 'grace' |\n2 row(s)".into())
        );
        assert!(matches!(&replies[3], Response::Error(e) if e.contains("missing")));
        assert_eq!(replies[4], Response::Bye("goodbye".into()));
        assert_eq!(metrics.frames.get(), 5);
        assert_eq!(metrics.bytes_out.get(), out.bytes.len() as u64);
        assert_eq!(metrics.protocol_errors.get(), 0);
    }

    #[test]
    fn an_oversized_frame_is_answered_with_bye_and_a_truncated_one_with_nothing() {
        let db = Arc::new(Database::with_defaults());
        let mut wire = frames(&[b"\\help"]);
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        wire.extend_from_slice(b"whatever follows is never read");
        let (out, metrics) = converse(&db, &wire);
        assert_eq!(out.writes, 2);
        let replies = responses(&out);
        assert!(matches!(&replies[0], Response::Result(_)));
        assert!(matches!(&replies[1], Response::Bye(why) if why.contains("cap")));
        assert_eq!(metrics.protocol_errors.get(), 1);
        assert_eq!(metrics.frames.get(), 1);
        assert_eq!(metrics.bytes_out.get(), out.bytes.len() as u64);

        let whole = frames(&[b"\\help", b"SELECT 1"]);
        let first = frames(&[b"\\help"]).len();
        for cut in first + 1..whole.len() {
            let (out, metrics) = converse(&db, &whole[..cut]);
            assert_eq!(
                out.writes, 1,
                "cut at {cut}: only the whole frame is answered"
            );
            assert_eq!(metrics.protocol_errors.get(), 1, "cut at {cut}");
        }
        // End of stream between frames is a plain disconnect.
        let (out, metrics) = converse(&db, &whole[..first]);
        assert_eq!(out.writes, 1);
        assert_eq!(metrics.protocol_errors.get(), 0);
    }

    #[test]
    fn a_request_that_is_not_utf8_is_an_error_not_a_disconnect() {
        let db = Arc::new(Database::with_defaults());
        let wire = frames(&[&[0xff, 0xfe, 0x00], b"\\help"]);
        let (out, metrics) = converse(&db, &wire);
        let replies = responses(&out);
        assert_eq!(replies[0], Response::Error("request is not UTF-8".into()));
        assert!(matches!(&replies[1], Response::Result(_)));
        assert_eq!(metrics.protocol_errors.get(), 1);
        assert_eq!(metrics.frames.get(), 2);
    }

    #[test]
    fn a_reply_over_the_cap_is_an_error_not_a_disconnect() {
        let db = Arc::new(Database::with_defaults());
        db.execute("CREATE TABLE wide (s STRING)").unwrap();
        let s = "x".repeat(1100);
        let values = vec![format!("('{s}')"); 100].join(", ");
        for _ in 0..10 {
            db.execute(&format!("INSERT INTO wide VALUES {values}"))
                .unwrap();
        }
        let wire = frames(&[b"SELECT * FROM wide", b"SELECT COUNT(*) FROM wide"]);
        let (out, _) = converse(&db, &wire);
        let replies = responses(&out);
        assert_eq!(
            replies[0],
            Response::Error("response exceeds the frame cap".into())
        );
        assert!(matches!(&replies[1], Response::Result(t) if t.contains("1000")));
        // Off the wire the same statement still renders in full.
        assert!(matches!(
            respond(&db.session(), "SELECT * FROM wide"),
            Response::Result(t) if t.len() > MAX_FRAME
        ));
    }
}
