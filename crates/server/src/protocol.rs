//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is a 4-byte little-endian payload length followed by the
//! payload. Client → server payloads are UTF-8 statement text (SQL, a
//! `\`-prefixed meta command, or the bare word `METRICS` — a scrape
//! request answered with Prometheus text). Server → client payloads carry
//! a one-byte tag followed by UTF-8 text:
//!
//! | tag | meaning |
//! |-----|---------|
//! | `R` | result: rendered statement output |
//! | `E` | error: the statement failed; text is the engine error |
//! | `B` | bye: the server is closing this connection (quit acknowledged, protocol violation, or capacity refused) |
//!
//! Frames are capped at [`MAX_FRAME`] bytes in both directions: a reader
//! that sees a larger length declared knows the stream is garbage (not a
//! huge frame) and drops the connection rather than allocating.
//!
//! A frame always leaves in **one** `write_all` of header and payload
//! together. Header and payload written separately make two small TCP
//! segments, and the second waits on the peer's delayed ACK of the first
//! (Nagle): 88 ms a round trip on loopback. Both ends also set
//! `TCP_NODELAY`, so a strict request/response exchange never waits on a
//! timer. The connection loops build each frame in place in a reusable
//! [`FrameBuf`]; [`write_frame`] is the same thing for a one-off payload.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload, both directions (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of length prefix in front of every payload.
const HEADER: usize = 4;

/// Capacity a per-connection buffer keeps between frames. A frame larger
/// than this is served from a grown buffer that is given back afterwards,
/// so one 1 MiB reply does not pin 1 MiB for as long as the connection
/// then sits idle.
pub(crate) const KEEP_CAPACITY: usize = 64 << 10;

/// Drop what a large frame made `buf` grow beyond [`KEEP_CAPACITY`].
pub(crate) fn release_excess(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(KEEP_CAPACITY);
}

/// What a server → client payload's first byte says the text is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Result = b'R',
    Error = b'E',
    Bye = b'B',
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Rendered statement output.
    Result(String),
    /// The statement failed.
    Error(String),
    /// The server is closing this connection.
    Bye(String),
}

impl Response {
    pub(crate) fn new(tag: Tag, text: String) -> Response {
        match tag {
            Tag::Result => Response::Result(text),
            Tag::Error => Response::Error(text),
            Tag::Bye => Response::Bye(text),
        }
    }

    pub(crate) fn tag(&self) -> Tag {
        match self {
            Response::Result(_) => Tag::Result,
            Response::Error(_) => Tag::Error,
            Response::Bye(_) => Tag::Bye,
        }
    }

    pub(crate) fn text(&self) -> &str {
        match self {
            Response::Result(t) | Response::Error(t) | Response::Bye(t) => t,
        }
    }

    /// Serialize as a tagged payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let text = self.text().as_bytes();
        let mut out = Vec::with_capacity(1 + text.len());
        out.push(self.tag() as u8);
        out.extend_from_slice(text);
        out
    }

    /// Parse a tagged payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let (tag, rest) = payload.split_first().ok_or_else(empty_response)?;
        Response::from_wire(*tag, rest.to_vec())
    }

    /// A response from its tag byte and text bytes as they came off the
    /// wire; the text buffer becomes the `String` without a copy.
    fn from_wire(tag: u8, text: Vec<u8>) -> io::Result<Response> {
        let tag = match tag {
            b'R' => Tag::Result,
            b'E' => Tag::Error,
            b'B' => Tag::Bye,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown response tag 0x{other:02x}"),
                ))
            }
        };
        let text =
            String::from_utf8(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Response::new(tag, text))
    }
}

fn empty_response() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "empty response frame")
}

/// One outgoing frame, built in place — `[len][payload]` contiguous in a
/// buffer that is reused from frame to frame — and sent with a single
/// `write_all`. As a [`fmt::Write`] sink it takes rendered text straight
/// into the payload, and refuses (with `fmt::Error`) text that would push
/// the payload past [`MAX_FRAME`].
#[derive(Debug)]
pub(crate) struct FrameBuf {
    /// Never shorter than `HEADER`: the length prefix's slot, then the
    /// payload.
    buf: Vec<u8>,
}

impl FrameBuf {
    pub(crate) fn new() -> FrameBuf {
        FrameBuf::with_capacity(0)
    }

    fn with_capacity(payload: usize) -> FrameBuf {
        let mut buf = Vec::with_capacity(HEADER + payload);
        buf.extend_from_slice(&[0; HEADER]);
        FrameBuf { buf }
    }

    /// Start the next frame: empty the payload.
    pub(crate) fn begin(&mut self) {
        self.buf.truncate(HEADER);
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[HEADER..]
    }

    /// Cut the payload back to its first `len` bytes.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(HEADER + len);
    }

    /// Fill in the header and put the frame on the wire in one write.
    /// Returns the bytes written (payload + header).
    pub(crate) fn send(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let len = self.buf.len() - HEADER;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        self.buf[..HEADER].copy_from_slice(&(len as u32).to_le_bytes());
        w.write_all(&self.buf)?;
        w.flush()?;
        self.begin();
        self.buf.shrink_to(KEEP_CAPACITY);
        Ok(HEADER + len)
    }
}

impl fmt::Write for FrameBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.buf.len() + s.len() > HEADER + MAX_FRAME {
            return Err(fmt::Error);
        }
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Write one length-prefixed frame, header and payload in a single write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = FrameBuf::with_capacity(payload.len());
    frame.extend(payload);
    frame.send(w).map(drop)
}

/// Read a frame header: the declared payload length. A length over
/// [`MAX_FRAME`] is a protocol violation (`InvalidData`), reported before
/// anything is allocated for it.
fn read_header(r: &mut impl Read) -> io::Result<usize> {
    let mut len = [0u8; HEADER];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer declared a {len}-byte frame (cap {MAX_FRAME})"),
        ));
    }
    Ok(len)
}

/// Read one length-prefixed frame. A declared length over [`MAX_FRAME`]
/// is a protocol violation, reported before any allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// [`read_frame`] into a buffer the caller keeps across frames.
pub(crate) fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<()> {
    let len = read_header(r)?;
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)
}

/// Read one response frame. The text is read into the buffer the returned
/// `String` owns, so a reply is copied once, off the socket.
pub(crate) fn read_response(r: &mut impl Read) -> io::Result<Response> {
    let len = read_header(r)?.checked_sub(1).ok_or_else(empty_response)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut text = vec![0u8; len];
    r.read_exact(&mut text)?;
    Response::from_wire(tag[0], text)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// A sink that counts `write` calls and takes whatever it is given.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A source that yields one byte per `read`, the way a slow or hostile
    /// peer's bytes can arrive.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((byte, rest)), Some(slot)) => {
                    *slot = *byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"SELECT 1").unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave together");
        assert_eq!(w.bytes, b"\x08\0\0\0SELECT 1");
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2);

        // The reusable buffer: one write per frame, frame after frame.
        let mut frame = FrameBuf::new();
        let mut w = CountingWriter::default();
        for text in ["a", "bc"] {
            frame.begin();
            frame.extend(b"R");
            frame.write_str(text).unwrap();
            assert_eq!(frame.send(&mut w).unwrap(), 4 + 1 + text.len());
        }
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, b"\x02\0\0\0Ra\x03\0\0\0Rbc");
    }

    #[test]
    fn frames_assemble_from_single_byte_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"SELECT 1").unwrap();
        write_frame(&mut wire, &Response::Result("| 1 |".into()).encode()).unwrap();
        let mut r = Dribble(&wire);
        assert_eq!(read_frame(&mut r).unwrap(), b"SELECT 1");
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response::Result("| 1 |".into())
        );
        let e = read_frame(&mut r).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_frames_are_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"SELECT 1").unwrap();
        for cut in 1..wire.len() {
            let e = read_frame(&mut &wire[..cut]).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn responses_read_straight_off_the_wire() {
        for resp in [
            Response::Result("| a |\n".into()),
            Response::Error(String::new()),
            Response::Bye("goodbye".into()),
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &resp.encode()).unwrap();
            assert_eq!(read_response(&mut wire.as_slice()).unwrap(), resp);
        }
        for bad in [&b""[..], b"Zoops", &[b'R', 0xff, 0xfe]] {
            let mut wire = Vec::new();
            write_frame(&mut wire, bad).unwrap();
            let e = read_response(&mut wire.as_slice()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_the_buffer_grows() {
        for declared in [MAX_FRAME as u32 + 1, u32::MAX] {
            let mut wire = declared.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0; 64]);
            let mut payload = Vec::new();
            let e = read_frame_into(&mut wire.as_slice(), &mut payload).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(payload.capacity(), 0, "nothing allocated for the claim");
            let e = read_response(&mut wire.as_slice()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        }
        // Exactly at the cap is a frame like any other.
        let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
        wire.resize(4 + MAX_FRAME, b'x');
        assert_eq!(read_frame(&mut wire.as_slice()).unwrap().len(), MAX_FRAME);
    }

    #[test]
    fn a_frame_refuses_text_past_the_cap() {
        let mut frame = FrameBuf::new();
        frame.begin();
        frame.write_str(&"x".repeat(MAX_FRAME)).unwrap();
        assert_eq!(frame.write_str("y"), Err(fmt::Error));
        assert_eq!(frame.payload_mut().len(), MAX_FRAME, "refused whole");
        let mut w = CountingWriter::default();
        assert_eq!(frame.send(&mut w).unwrap(), 4 + MAX_FRAME);
        // Bytes pushed past the cap unchecked are caught at the send.
        frame.begin();
        frame.extend(&vec![b'x'; MAX_FRAME + 1]);
        let mut w = CountingWriter::default();
        assert!(frame.send(&mut w).is_err());
        assert_eq!(w.writes, 0, "nothing must hit the wire");
    }

    #[test]
    fn buffers_give_back_what_a_large_frame_took() {
        let mut frame = FrameBuf::new();
        frame.begin();
        frame.extend(&vec![b'x'; MAX_FRAME]);
        frame.send(&mut CountingWriter::default()).unwrap();
        assert!(frame.buf.capacity() <= KEEP_CAPACITY, "outgoing frame");
        // ... and a small frame after it is still served.
        frame.begin();
        frame.extend(b"ok");
        let mut w = CountingWriter::default();
        frame.send(&mut w).unwrap();
        assert_eq!(w.bytes, b"\x02\0\0\0ok");

        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![b'x'; MAX_FRAME]).unwrap();
        let mut payload = Vec::new();
        read_frame_into(&mut wire.as_slice(), &mut payload).unwrap();
        assert!(payload.capacity() >= MAX_FRAME);
        release_excess(&mut payload);
        assert!(payload.capacity() <= KEEP_CAPACITY, "incoming payload");
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"SELECT 1").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"SELECT 1");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Result("| a |\n".into()),
            Response::Error("unknown table 'x'".into()),
            Response::Bye("goodbye".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn oversized_writes_are_refused() {
        let huge = vec![b'x'; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty(), "nothing must hit the wire");
    }

    #[test]
    fn garbage_tags_are_rejected() {
        assert!(Response::decode(b"").is_err());
        assert!(Response::decode(b"Zoops").is_err());
        assert!(Response::decode(&[b'R', 0xff, 0xfe]).is_err()); // invalid UTF-8
    }
}
