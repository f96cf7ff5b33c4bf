//! The wire-protocol client: one statement out, one response back.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{read_response, FrameBuf, Response};

/// A blocking client connection. Not thread-safe by design — the protocol
/// is strict request/response, so share a [`Client`] behind a lock or open
/// one per thread.
pub struct Client {
    /// Replies are read through the buffer (a small reply's header and
    /// payload arrive in one `read`); requests go out on the stream
    /// beneath it.
    stream: BufReader<TcpStream>,
    /// The outgoing request frame, reused from statement to statement.
    request: FrameBuf,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small segment the server must see now, not
        // when Nagle's timer or the peer's delayed ACK lets it go.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
            request: FrameBuf::new(),
        })
    }

    /// Send one statement (SQL or `\` meta command) and read its response.
    pub fn request(&mut self, statement: &str) -> io::Result<Response> {
        self.request.begin();
        self.request.extend(statement.as_bytes());
        self.request.send(self.stream.get_mut())?;
        read_response(&mut self.stream)
    }
}
