//! Newline-delimited frame I/O for the scheduling service wire protocol.
//!
//! The daemon (`malsd`) and its clients exchange JSON documents one per
//! line: a *frame* is a byte sequence terminated by `\n`, and compact JSON
//! never contains a raw newline, so framing and payload never interfere.
//! [`FrameReader`] accumulates bytes from any [`Read`] into whole frames and
//! enforces a size cap so an untrusted peer cannot balloon the buffer — an
//! oversized frame is *discarded up to its terminating newline* and reported
//! as [`FrameError::Oversized`], which keeps the connection alive: the next
//! frame parses normally.
//!
//! The reader is interruption-friendly: on an [`io::ErrorKind::WouldBlock`]
//! or [`io::ErrorKind::TimedOut`] error (a socket with a read timeout — the
//! daemon's shutdown-polling pattern) the partial frame stays buffered and
//! the caller simply calls [`FrameReader::read_frame`] again later.

use std::io::{self, Read, Write};

/// Default frame-size cap: large enough for a 10⁵-task graph JSON, small
/// enough to bound per-connection memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Errors produced while reading frames.
#[derive(Debug)]
pub enum FrameError {
    /// A frame exceeded the size cap; its bytes were discarded up to (and
    /// including) the terminating newline and the connection remains
    /// usable. The payload is the cap that was exceeded.
    Oversized(usize),
    /// An underlying I/O error. `WouldBlock` / `TimedOut` are retryable:
    /// buffered partial-frame bytes are kept.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(cap) => write!(f, "frame exceeds {cap} bytes"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the error is a read timeout / would-block / interrupted
    /// condition: the frame in progress is still buffered and a later
    /// [`FrameReader::read_frame`] call will resume it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            )
        )
    }
}

/// Reads newline-delimited frames from an underlying reader.
///
/// Unlike `BufRead::read_line` this type owns the partial-frame buffer, so
/// read timeouts (used by the daemon to poll its shutdown token) never lose
/// bytes, and it enforces a frame-size cap without killing the stream.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// Bytes of the frame in progress (no newline seen yet).
    partial: Vec<u8>,
    /// Fixed-size read buffer; `buf[start..end]` is unconsumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
    /// When true, the current frame already blew the cap: discard until the
    /// next newline, then report `Oversized` once.
    discarding: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with the [`DEFAULT_MAX_FRAME_BYTES`] cap.
    pub fn new(inner: R) -> Self {
        Self::with_max_frame(inner, DEFAULT_MAX_FRAME_BYTES)
    }

    /// Wraps `inner` with an explicit frame-size cap (in bytes, excluding
    /// the newline). A cap of 0 is clamped to 1.
    pub fn with_max_frame(inner: R, max_frame: usize) -> Self {
        FrameReader {
            inner,
            partial: Vec::new(),
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            max_frame: max_frame.max(1),
            discarding: false,
        }
    }

    /// The underlying reader (e.g. to adjust socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads the next frame. Returns:
    ///
    /// * `Ok(Some(frame))` — one complete line, newline stripped (a
    ///   trailing `\r` is stripped too), decoded as UTF-8 with invalid
    ///   bytes replaced (the JSON parser rejects them downstream);
    /// * `Ok(None)` — clean end of stream (unterminated trailing bytes are
    ///   dropped: a frame is only a frame once its newline arrives);
    /// * `Err(FrameError::Oversized)` — the frame blew the cap and was
    ///   discarded; call again for the next frame;
    /// * `Err(FrameError::Io)` — underlying error; retryable kinds keep the
    ///   partial frame buffered (see [`FrameError::is_retryable`]).
    pub fn read_frame(&mut self) -> Result<Option<String>, FrameError> {
        loop {
            if let Some(result) = self.scan_buffered() {
                return result.map(Some);
            }
            // The buffered bytes held no complete frame: refill.
            let n = self.inner.read(&mut self.buf)?;
            if n == 0 {
                self.partial.clear();
                self.discarding = false;
                return Ok(None);
            }
            self.start = 0;
            self.end = n;
        }
    }

    /// Consumes `buf[start..end]`, returning a completed frame (or the
    /// deferred oversize report) if one terminates inside the buffer.
    fn scan_buffered(&mut self) -> Option<Result<String, FrameError>> {
        while self.start < self.end {
            let slice = &self.buf[self.start..self.end];
            match slice.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let (line_part, consumed) = (&slice[..nl], nl + 1);
                    if self.discarding {
                        self.start += consumed;
                        self.discarding = false;
                        self.partial.clear();
                        return Some(Err(FrameError::Oversized(self.max_frame)));
                    }
                    if self.partial.len() + line_part.len() > self.max_frame {
                        self.start += consumed;
                        self.partial.clear();
                        return Some(Err(FrameError::Oversized(self.max_frame)));
                    }
                    self.partial.extend_from_slice(line_part);
                    self.start += consumed;
                    let mut text = String::from_utf8_lossy(&self.partial).into_owned();
                    self.partial.clear();
                    if text.ends_with('\r') {
                        text.pop();
                    }
                    return Some(Ok(text));
                }
                None => {
                    if !self.discarding {
                        if self.partial.len() + slice.len() > self.max_frame {
                            self.discarding = true;
                            self.partial.clear();
                        } else {
                            self.partial.extend_from_slice(slice);
                        }
                    }
                    self.start = self.end;
                }
            }
        }
        None
    }
}

/// Writes one frame: the payload followed by `\n`, in one `write_all`,
/// then flushes, so the frame is visible to the peer immediately (the
/// daemon's per-connection writer is behind a mutex — a buffered
/// half-written frame would deadlock latency, not memory).
///
/// One write per frame matters on TCP: with Nagle's algorithm on, a
/// separate one-byte `\n` write waits for the peer's delayed ACK of the
/// payload, which capped a closed-loop client at ~23 requests/s.
///
/// The payload must not contain a raw newline (compact JSON never does);
/// embedded newlines would be read back as two frames.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> io::Result<()> {
    debug_assert!(
        !payload.contains('\n'),
        "frame payloads must be newline-free"
    );
    let mut frame = Vec::with_capacity(payload.len() + 1);
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader handing out its script one fragment per call; `None`
    /// fragments yield a `WouldBlock` error (simulating a read timeout).
    struct Script {
        parts: Vec<Option<Vec<u8>>>,
        at: usize,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.parts.len() {
                return Ok(0);
            }
            let part = self.parts[self.at].take();
            self.at += 1;
            match part {
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout")),
                Some(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    fn script(parts: &[Option<&str>]) -> Script {
        Script {
            parts: parts
                .iter()
                .map(|p| p.map(|s| s.as_bytes().to_vec()))
                .collect(),
            at: 0,
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut out = Vec::new();
        write_frame(&mut out, "{\"a\":1}").unwrap();
        write_frame(&mut out, "{\"b\":2}").unwrap();
        let mut reader = FrameReader::new(Cursor::new(out));
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("{\"b\":2}"));
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Accepts everything, counting `write` calls.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut out, "{\"a\":1}").unwrap();
        assert_eq!(out.writes, 1);
        write_frame(&mut out, "").unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(out.bytes, b"{\"a\":1}\n\n");
    }

    #[test]
    fn split_reads_reassemble_one_frame() {
        let mut reader = FrameReader::new(script(&[
            Some("{\"spl"),
            Some("it\":"),
            Some("true}\n{\"next\":1}\n"),
        ]));
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some("{\"split\":true}")
        );
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some("{\"next\":1}")
        );
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn timeouts_keep_the_partial_frame() {
        let mut reader = FrameReader::new(script(&[Some("{\"ha"), None, Some("lf\":1}\n")]));
        let err = reader.read_frame().unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some("{\"half\":1}")
        );
    }

    #[test]
    fn oversized_frames_are_discarded_without_killing_the_stream() {
        let mut input = String::new();
        input.push_str(&"x".repeat(100));
        input.push('\n');
        input.push_str("ok\n");
        let mut reader = FrameReader::with_max_frame(Cursor::new(input), 10);
        match reader.read_frame() {
            Err(FrameError::Oversized(10)) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("ok"));
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn oversized_detection_works_across_split_reads() {
        // The oversize trips while the newline is still several reads away.
        let mut reader = FrameReader::with_max_frame(
            script(&[Some("aaaaaa"), Some("bbbbbb"), Some("cc\nok\n")]),
            8,
        );
        assert!(matches!(reader.read_frame(), Err(FrameError::Oversized(8))));
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("ok"));
    }

    #[test]
    fn truncated_final_frame_is_dropped_at_eof() {
        let mut reader = FrameReader::new(Cursor::new("{\"whole\":1}\n{\"trunc"));
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some("{\"whole\":1}")
        );
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn crlf_and_empty_frames() {
        let mut reader = FrameReader::new(Cursor::new("a\r\n\nb\n"));
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("a"));
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some(""));
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("b"));
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn exact_cap_is_allowed() {
        let mut reader = FrameReader::with_max_frame(Cursor::new("12345\n"), 5);
        assert_eq!(reader.read_frame().unwrap().as_deref(), Some("12345"));
    }
}
