//! Server-side observability: what the listener and connection loops see,
//! as distinct from what the engine sees. One [`ServerMetrics`] per
//! [`crate::serve`] call, shared by the accept thread and every
//! connection thread; rendered as `evopt_server_*` Prometheus families at
//! the front of a `METRICS` / `\metrics` scrape.

use std::sync::atomic::{AtomicUsize, Ordering};

use evopt_obs::Counter;

/// Counters and gauges for one listening server. Every accepted
/// connection is accounted for: once the server is quiet,
/// `connections == connections_closed + active_sessions()`.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Session slots in use. Admission control claims and releases slots
    /// on this one counter and the `active_sessions` gauge reads it, so
    /// the gauge cannot drift from the truth the way a mirrored copy can.
    slots: AtomicUsize,
    /// Connections accepted and given a session (refused ones excluded).
    pub connections: Counter,
    /// Connections refused because every session slot was taken.
    pub connections_refused: Counter,
    /// Accepted connections whose handler has finished and whose session
    /// slot is free again.
    pub connections_closed: Counter,
    /// Malformed input from a peer: a frame truncated by a disconnect, a
    /// declared length over the cap, a payload that is not UTF-8.
    pub protocol_errors: Counter,
    /// Request frames read across all connections.
    pub frames: Counter,
    /// Bytes read off the wire (payload + 4-byte length prefix).
    pub bytes_in: Counter,
    /// Bytes written to the wire (payload + 4-byte length prefix).
    pub bytes_out: Counter,
}

impl ServerMetrics {
    /// Connections currently holding a session slot.
    pub fn active_sessions(&self) -> u64 {
        self.slots.load(Ordering::SeqCst) as u64
    }

    /// Take a session slot unless `max` are already taken.
    pub(crate) fn claim_slot(&self, max: usize) -> bool {
        self.slots
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .is_ok()
    }

    /// Give back a slot taken with [`ServerMetrics::claim_slot`].
    pub(crate) fn release_slot(&self) {
        self.slots.fetch_sub(1, Ordering::SeqCst);
    }

    /// Prometheus text exposition of every `evopt_server_*` family.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE evopt_server_active_sessions gauge\n");
        out.push_str(&format!(
            "evopt_server_active_sessions {}\n",
            self.active_sessions()
        ));
        for (name, v) in [
            ("evopt_server_connections_total", self.connections.get()),
            (
                "evopt_server_connections_refused_total",
                self.connections_refused.get(),
            ),
            (
                "evopt_server_connections_closed_total",
                self.connections_closed.get(),
            ),
            (
                "evopt_server_protocol_errors_total",
                self.protocol_errors.get(),
            ),
            ("evopt_server_frames_total", self.frames.get()),
            ("evopt_server_bytes_in_total", self.bytes_in.get()),
            ("evopt_server_bytes_out_total", self.bytes_out.get()),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_renders_with_a_type_line() {
        let m = ServerMetrics::default();
        for _ in 0..3 {
            assert!(m.claim_slot(3));
        }
        assert!(!m.claim_slot(3), "a fourth slot of three");
        m.connections.add(7);
        m.connections_refused.inc();
        m.connections_closed.add(4);
        m.protocol_errors.add(2);
        m.frames.add(42);
        m.bytes_in.add(1000);
        m.bytes_out.add(2000);
        let text = m.render_prometheus();
        for family in [
            "evopt_server_active_sessions",
            "evopt_server_connections_total",
            "evopt_server_connections_refused_total",
            "evopt_server_connections_closed_total",
            "evopt_server_protocol_errors_total",
            "evopt_server_frames_total",
            "evopt_server_bytes_in_total",
            "evopt_server_bytes_out_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing TYPE line for {family}"
            );
        }
        assert!(text.contains("evopt_server_active_sessions 3\n"));
        assert!(text.contains("evopt_server_connections_total 7\n"));
        assert!(text.contains("evopt_server_connections_closed_total 4\n"));
        assert!(text.contains("evopt_server_protocol_errors_total 2\n"));
        assert!(text.contains("evopt_server_frames_total 42\n"));
        m.release_slot();
        assert_eq!(m.active_sessions(), 2);
    }
}
