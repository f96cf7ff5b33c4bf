//! End-to-end wire-protocol tests: a real listener on an ephemeral port,
//! real TCP clients, concurrent sessions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evopt_engine::{Database, DatabaseConfig, Durability};
use evopt_server::{
    read_frame, serve, write_frame, Client, Response, ServerConfig, ServerHandle, MAX_FRAME,
};

fn served(max_sessions: usize) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(Database::with_defaults());
    let handle = serve(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_sessions },
    )
    .unwrap();
    (db, handle)
}

fn expect_result(resp: Response) -> String {
    match resp {
        Response::Result(text) => text,
        other => panic!("expected a result, got {other:?}"),
    }
}

#[test]
fn statements_roundtrip_over_the_wire() {
    let (_db, handle) = served(4);
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(
        c.request("CREATE TABLE t (id INT NOT NULL, name STRING)")
            .unwrap(),
    );
    let text = expect_result(
        c.request("INSERT INTO t VALUES (1, 'ada'), (2, 'grace')")
            .unwrap(),
    );
    assert!(text.contains("2 row(s) affected"), "{text}");
    let text = expect_result(c.request("SELECT name FROM t WHERE id = 2").unwrap());
    assert!(text.contains("grace"), "{text}");
    // Errors come back tagged as errors, connection stays usable.
    match c.request("SELECT * FROM missing").unwrap() {
        Response::Error(e) => assert!(e.contains("missing"), "{e}"),
        other => panic!("{other:?}"),
    }
    let text = expect_result(c.request("SELECT COUNT(*) FROM t").unwrap());
    assert!(text.contains('2'), "{text}");
}

#[test]
fn writes_from_one_client_are_visible_to_another() {
    let (_db, handle) = served(4);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    expect_result(a.request("CREATE TABLE shared (x INT)").unwrap());
    expect_result(a.request("INSERT INTO shared VALUES (7)").unwrap());
    let text = expect_result(b.request("SELECT x FROM shared").unwrap());
    assert!(text.contains('7'), "{text}");
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let (_db, handle) = served(8);
    let mut setup = Client::connect(handle.addr()).unwrap();
    expect_result(setup.request("CREATE TABLE n (v INT)").unwrap());
    expect_result(
        setup
            .request("INSERT INTO n VALUES (1), (2), (3), (4), (5)")
            .unwrap(),
    );
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..10 {
                    let text = expect_result(c.request("SELECT COUNT(*) FROM n").unwrap());
                    assert!(text.contains('5'), "{text}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn capacity_overflow_is_refused_with_bye() {
    let (_db, handle) = served(1);
    let mut first = Client::connect(handle.addr()).unwrap();
    // Ensure the first connection's slot is claimed before the second
    // connects.
    expect_result(first.request("\\help").unwrap());
    let mut second = Client::connect(handle.addr()).unwrap();
    match second.request("\\help") {
        Ok(Response::Bye(text)) => assert!(text.contains("capacity"), "{text}"),
        // The refused stream may already be closed by the time we write.
        Err(_) => {}
        Ok(other) => panic!("expected Bye, got {other:?}"),
    }
    // The first connection keeps working.
    match first.request("\\help").unwrap() {
        Response::Result(_) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn meta_commands_work_over_the_wire() {
    let (_db, handle) = served(2);
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(c.request("CREATE TABLE m (x INT)").unwrap());
    let text = expect_result(c.request("\\tables").unwrap());
    assert!(text.contains('m'), "{text}");
    let text = expect_result(c.request("\\strategy greedy").unwrap());
    assert!(text.contains("greedy"), "{text}");
    match c.request("\\q").unwrap() {
        Response::Bye(_) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn metrics_frame_scrapes_prometheus_over_the_wire() {
    // A WAL-configured engine so the durability families carry real
    // observations, served over a real socket.
    let db = Arc::new(Database::new(DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    }));
    let handle = serve(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(c.request("CREATE TABLE w (x INT NOT NULL)").unwrap());
    expect_result(c.request("INSERT INTO w VALUES (1), (2), (3)").unwrap());
    expect_result(c.request("SELECT COUNT(*) FROM w").unwrap());
    // The bare METRICS frame is the scrape entry point.
    let text = expect_result(c.request("METRICS").unwrap());
    for family in [
        // Server families lead the scrape.
        "evopt_server_active_sessions 1",
        "evopt_server_connections_total 1",
        "evopt_server_frames_total ",
        "evopt_server_bytes_in_total ",
        "evopt_server_bytes_out_total ",
        // Engine contention histograms over the wire.
        "evopt_commit_lock_wait_us_bucket{le=\"+Inf\"}",
        "evopt_wal_sync_wait_us_count ",
        "evopt_pool_miss_io_us_bucket",
        // Per-session series labeled with this connection's session.
        "evopt_statements_total{session=",
    ] {
        assert!(
            text.contains(family),
            "missing {family:?} in scrape:\n{text}"
        );
    }
    // The write ran on this connection: its commit was timed.
    let commit_count = text
        .lines()
        .find(|l| l.starts_with("evopt_commit_lock_wait_us_count "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("commit wait count in scrape");
    assert!(commit_count >= 2, "CREATE + INSERT both commit: {text}");
    // `\metrics` is the same scrape.
    let meta = expect_result(c.request("\\metrics").unwrap());
    assert!(meta.contains("evopt_server_frames_total "), "{meta}");
}

#[test]
fn refused_connections_are_counted() {
    let (_db, handle) = served(1);
    let mut first = Client::connect(handle.addr()).unwrap();
    expect_result(first.request("\\help").unwrap());
    let mut second = Client::connect(handle.addr()).unwrap();
    let _ = second.request("\\help"); // refused with Bye (or reset)
                                      // The refusal is counted on the server side regardless of what the
                                      // client managed to read.
    let mut seen = 0;
    for _ in 0..50 {
        seen = handle.metrics().connections_refused.get();
        if seen >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(seen, 1, "exactly one refused connection");
    assert_eq!(handle.metrics().connections.get(), 1);
}

#[test]
fn quit_frees_the_session_slot() {
    let (_db, handle) = served(1);
    let mut first = Client::connect(handle.addr()).unwrap();
    match first.request("\\q").unwrap() {
        Response::Bye(_) => {}
        other => panic!("{other:?}"),
    }
    // The slot is released once the handler exits; retry briefly.
    let mut ok = false;
    for _ in 0..50 {
        let mut c = match Client::connect(handle.addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match c.request("\\help") {
            Ok(Response::Result(_)) => {
                ok = true;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(ok, "slot was never released after quit");
}

#[test]
fn top_waits_renders_contention_histograms_over_the_wire() {
    let (_db, handle) = served(4);
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(c.request("CREATE TABLE w (x INT)").unwrap());
    for i in 0..5 {
        expect_result(c.request(&format!("INSERT INTO w VALUES ({i})")).unwrap());
    }
    expect_result(c.request("SELECT COUNT(*) FROM w").unwrap());

    // The meta command and the bare frame render identically.
    for query in ["\\top-waits", "TOPWAITS"] {
        let text = expect_result(c.request(query).unwrap());
        assert!(text.contains("family"), "{text}");
        for family in [
            "evopt_commit_lock_wait_us",
            "evopt_wal_sync_wait_us",
            "evopt_pool_miss_io_us",
            "evopt_pool_load_wait_us",
            "evopt_snapshot_acquire_us",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // Six writes took the commit lock, so that family has waits and
        // real p50/max bucket bounds (not the empty-histogram dash).
        let commit_row = text
            .lines()
            .find(|l| l.contains("evopt_commit_lock_wait_us"))
            .unwrap();
        let cols: Vec<&str> = commit_row.split_whitespace().collect();
        let waits: u64 = cols[1].parse().unwrap();
        assert!(waits >= 6, "expected >=6 commit-lock waits, got {waits}");
        assert_ne!(cols[3], "-", "p50 should be a bucket bound: {commit_row}");
        assert_ne!(cols[4], "-", "max should be a bucket bound: {commit_row}");
    }

    // Rows are sorted by total wait, descending.
    let text = expect_result(c.request("\\top-waits").unwrap());
    let totals: Vec<u64> = text
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
        .collect();
    assert_eq!(totals.len(), 5);
    let mut sorted = totals.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(
        totals, sorted,
        "rows must be sorted by total_us desc:\n{text}"
    );
}

// -- wire abuse -------------------------------------------------------------
//
// Each case misbehaves on a raw socket, then holds the server to three
// things: it is still up and a fresh, well-behaved client gets correct
// answers; no session slot leaked; and the counters account for every
// connection (`connections == connections_closed + active_sessions`).

/// A server over a table whose contents the checks below know.
fn served_with_rows(max_sessions: usize) -> ServerHandle {
    let (db, handle) = served(max_sessions);
    db.execute("CREATE TABLE n (v INT NOT NULL)").unwrap();
    db.execute("INSERT INTO n VALUES (1), (2), (3), (4), (5)")
        .unwrap();
    handle
}

fn raw(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Wait for the server to catch up — it accepts a connection a moment
/// after `connect` returns and finishes its handler a moment after the
/// client closes — then hold the counters to the invariant: `accepted`
/// connections so far, `active` of them still open.
fn assert_accounted(handle: &ServerHandle, accepted: u64, active: u64) {
    let m = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (m.connections.get() != accepted || m.active_sessions() != active)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(m.connections.get(), accepted, "connections accepted");
    assert_eq!(m.active_sessions(), active, "a session slot leaked");
    assert_eq!(
        m.connections.get(),
        m.connections_closed.get() + m.active_sessions(),
        "connections unaccounted for"
    );
}

fn assert_still_serving(handle: &ServerHandle) {
    let mut c = Client::connect(handle.addr()).unwrap();
    let text = expect_result(c.request("SELECT COUNT(*) FROM n").unwrap());
    assert!(text.contains("| 5 |"), "{text}");
    let text = expect_result(c.request("SELECT v FROM n WHERE v = 3").unwrap());
    assert!(
        text.contains("| 3 |") && text.ends_with("1 row(s)"),
        "{text}"
    );
}

#[test]
fn abuse_header_truncated_after_one_to_three_bytes() {
    let handle = served_with_rows(4);
    for sent in 1..=3 {
        let mut s = raw(&handle);
        s.write_all(&[9, 0, 0][..sent]).unwrap();
        drop(s);
    }
    assert_accounted(&handle, 3, 0);
    assert_eq!(handle.metrics().protocol_errors.get(), 3);
    assert_eq!(handle.metrics().frames.get(), 0);
    assert_still_serving(&handle);
    assert_accounted(&handle, 4, 0);
}

#[test]
fn abuse_disconnect_mid_payload() {
    let handle = served_with_rows(2);
    let mut s = raw(&handle);
    // One good statement first: the connection is mid-conversation.
    write_frame(&mut s, b"SELECT COUNT(*) FROM n").unwrap();
    assert_eq!(read_frame(&mut s).unwrap()[0], b'R');
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(b"SELECT COU").unwrap();
    drop(s);
    assert_accounted(&handle, 1, 0);
    assert_eq!(handle.metrics().protocol_errors.get(), 1);
    assert_eq!(handle.metrics().frames.get(), 1);
    assert_still_serving(&handle);
    assert_accounted(&handle, 2, 0);
}

#[test]
fn abuse_declared_length_over_the_cap_is_told_bye() {
    let handle = served_with_rows(2);
    let mut s = raw(&handle);
    s.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
    // The server says why, then closes.
    match Response::decode(&read_frame(&mut s).unwrap()).unwrap() {
        Response::Bye(why) => assert!(why.contains("cap"), "{why}"),
        other => panic!("expected Bye, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap_or(0), 0, "closed after Bye");
    assert_accounted(&handle, 1, 0);
    assert_eq!(handle.metrics().protocol_errors.get(), 1);
    assert_still_serving(&handle);
    assert_accounted(&handle, 2, 0);
}

#[test]
fn abuse_non_utf8_payload_is_an_error_and_the_connection_lives() {
    let handle = served_with_rows(2);
    let mut s = raw(&handle);
    write_frame(&mut s, &[0xff, 0xfe, 0xfd]).unwrap();
    match Response::decode(&read_frame(&mut s).unwrap()).unwrap() {
        Response::Error(e) => assert!(e.contains("UTF-8"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // Frame boundaries were never in doubt: the same connection goes on.
    write_frame(&mut s, b"SELECT COUNT(*) FROM n").unwrap();
    let text = expect_result(Response::decode(&read_frame(&mut s).unwrap()).unwrap());
    assert!(text.contains("| 5 |"), "{text}");
    assert_accounted(&handle, 1, 1);
    assert_eq!(handle.metrics().protocol_errors.get(), 1);
    drop(s);
    assert_still_serving(&handle);
    assert_accounted(&handle, 2, 0);
}

#[test]
fn abuse_writer_that_dribbles_one_byte_per_write() {
    let handle = served_with_rows(2);
    let mut s = raw(&handle);
    for sql in ["SELECT COUNT(*) FROM n", "SELECT v FROM n WHERE v = 4"] {
        let mut frame = Vec::new();
        write_frame(&mut frame, sql.as_bytes()).unwrap();
        for (i, byte) in frame.iter().enumerate() {
            s.write_all(std::slice::from_ref(byte)).unwrap();
            if i % 8 == 0 {
                // Let the server run dry mid-frame, header included.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let text = expect_result(Response::decode(&read_frame(&mut s).unwrap()).unwrap());
        assert!(text.ends_with("1 row(s)"), "{text}");
    }
    assert_eq!(handle.metrics().protocol_errors.get(), 0);
    assert_eq!(handle.metrics().frames.get(), 2);
    assert_accounted(&handle, 1, 1);
    drop(s);
    assert_still_serving(&handle);
    assert_accounted(&handle, 2, 0);
}

#[test]
fn abuse_connect_flood_at_max_sessions() {
    const FLOOD: u64 = 40;
    let handle = served_with_rows(2);
    // Two well-behaved clients hold every slot.
    let mut holders: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).unwrap();
            expect_result(c.request("SELECT COUNT(*) FROM n").unwrap());
            c
        })
        .collect();
    let addr = handle.addr();
    let flood: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..FLOOD / 4 {
                    let mut c = Client::connect(addr).unwrap();
                    match c.request("SELECT COUNT(*) FROM n") {
                        Ok(Response::Bye(why)) => assert!(why.contains("capacity"), "{why}"),
                        // Refused and closed before the request landed.
                        Err(_) => {}
                        Ok(other) => panic!("a full server answered {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in flood {
        t.join().unwrap();
    }
    let m = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while m.connections_refused.get() < FLOOD && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(m.connections_refused.get(), FLOOD);
    assert_accounted(&handle, 2, 2); // refusals take no slot
                                     // The holders never noticed.
    for c in &mut holders {
        let text = expect_result(c.request("SELECT COUNT(*) FROM n").unwrap());
        assert!(text.contains("| 5 |"), "{text}");
    }
    drop(holders);
    assert_accounted(&handle, 2, 0);
    assert_still_serving(&handle);
    assert_accounted(&handle, 3, 0);
}

#[test]
fn active_sessions_gauge_ends_at_zero_after_connect_quit_churn() {
    const THREADS: u64 = 4;
    const CYCLES: u64 = 50;
    let handle = served_with_rows(8);
    let addr = handle.addr();
    let churn: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..CYCLES {
                    let mut c = Client::connect(addr).unwrap();
                    match c.request("\\q") {
                        // "goodbye", or refused: the slot of a connection
                        // just quit can still be on its way back.
                        Ok(Response::Bye(_)) | Err(_) => {}
                        Ok(other) => panic!("expected Bye, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in churn {
        t.join().unwrap();
    }
    let m = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while m.connections.get() + m.connections_refused.get() < THREADS * CYCLES
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        m.connections.get() + m.connections_refused.get(),
        THREADS * CYCLES
    );
    assert_accounted(&handle, m.connections.get(), 0);
    assert_eq!(
        m.active_sessions(),
        0,
        "the gauge must land on exactly zero"
    );
    let scrape = m.render_prometheus();
    assert!(
        scrape.contains("evopt_server_active_sessions 0\n"),
        "{scrape}"
    );
    assert_still_serving(&handle);
}

#[test]
fn sequential_round_trips_do_not_wait_on_timers() {
    // 300 strict request/response round trips took 26 s when each frame
    // was two writes on a socket with Nagle on (88 ms apiece); they take
    // a few tens of milliseconds when nothing waits on a delayed ACK. The
    // bound is generous: it catches a timer, not a slow machine.
    let handle = served_with_rows(2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let started = Instant::now();
    for _ in 0..300 {
        let text = expect_result(c.request("SELECT COUNT(*) FROM n").unwrap());
        assert!(text.contains("| 5 |"), "{text}");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(3),
        "300 round trips took {took:?}"
    );
}
