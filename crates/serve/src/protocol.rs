//! Wire framing in both directions, and typed error replies.
//!
//! The protocol is one JSON object per line in each direction. Framing is
//! deliberately dumb — `\n`-delimited, no length prefixes — so `nc` and a
//! shell loop are valid clients. Both ends frame through this module: the
//! daemon reads requests with [`read_frame`], and the daemon's replies and
//! `watch` lines as well as [`ServeClient`](crate::ServeClient)'s requests
//! go out through [`write_frame`], which hands the line and its `\n` to the
//! socket in one write. The subtlety lives in the *failure* paths, which
//! the protocol test suite pins:
//!
//! * an **oversized** line is drained to its newline and rejected with
//!   `frame_too_large`, leaving the connection usable for the next frame;
//! * a **truncated** line (EOF before `\n`) terminates the connection
//!   without a reply — half a frame is never parsed;
//! * reads poll in 100 ms slices so a connection blocked mid-line still
//!   observes daemon shutdown.

use std::io::{BufRead, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use mis_beeping::json::Json;

/// One read attempt from a connection.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (without its `\n`, `\r\n` accepted).
    Line(String),
    /// The line exceeded the frame cap; it was drained, the connection is
    /// still usable.
    TooLong,
    /// The line was not valid UTF-8; it was drained, the connection is
    /// still usable.
    BadUtf8,
    /// Clean end of stream at a frame boundary.
    Eof,
    /// End of stream in the middle of a frame.
    Truncated,
    /// The daemon is shutting down.
    Shutdown,
}

/// Reads one newline-delimited frame from `reader`, treating lines longer
/// than `max_bytes` as [`Frame::TooLong`] (drained, not parsed) and
/// polling `shutdown` whenever the read times out.
///
/// The reader's stream should carry a read timeout (the server uses
/// 100 ms); `WouldBlock`/`TimedOut` are treated as poll ticks, any other
/// I/O error as end of stream. While a line is over the cap its bytes are
/// discarded as they arrive, so a hostile unbounded line costs bounded
/// memory.
pub fn read_frame<R: BufRead>(reader: &mut R, max_bytes: usize, shutdown: &AtomicBool) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = false;
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Frame::Shutdown;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                return if buf.is_empty() && !dropped {
                    Frame::Eof
                } else {
                    Frame::Truncated
                };
            }
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                if dropped || buf.len() > max_bytes {
                    return Frame::TooLong;
                }
                return match String::from_utf8(buf) {
                    Ok(line) => Frame::Line(line),
                    Err(_) => Frame::BadUtf8,
                };
            }
            // Data arrived but no newline yet (partial read before a
            // timeout surfaced); fall through to the cap check below.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                return if buf.is_empty() && !dropped {
                    Frame::Eof
                } else {
                    Frame::Truncated
                };
            }
        }
        if buf.len() > max_bytes {
            buf.clear();
            dropped = true;
        }
    }
}

/// Writes `line` and its `\n` terminator as one frame, in a single
/// `write_all`.
///
/// A line written in two pieces stalls on a socket: with Nagle on, the
/// lone `\n` waits until the peer acknowledges the line, and the peer
/// holds that acknowledgement back (delayed ACK, about 40 ms on Linux)
/// because it has no reply to carry it on until the frame is complete.
/// One write per frame, on a socket with `TCP_NODELAY` set, sends the
/// frame at once.
///
/// # Errors
///
/// Propagates the writer's failure.
pub fn write_frame<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)
}

/// Builds the standard error reply `{"ok": false, "error": {...}}`.
#[must_use]
pub fn error_reply(code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        (
            "error".to_owned(),
            Json::Obj(vec![
                ("code".to_owned(), Json::Str(code.to_owned())),
                ("message".to_owned(), Json::Str(message.to_owned())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn quiet() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn reads_lines_and_strips_crlf() {
        let mut r = BufReader::new(&b"one\ntwo\r\n"[..]);
        assert_eq!(read_frame(&mut r, 64, &quiet()), Frame::Line("one".into()));
        assert_eq!(read_frame(&mut r, 64, &quiet()), Frame::Line("two".into()));
        assert_eq!(read_frame(&mut r, 64, &quiet()), Frame::Eof);
    }

    #[test]
    fn oversized_line_is_drained_and_connection_stays_usable() {
        let long = "x".repeat(100);
        let input = format!("{long}\nping\n");
        let mut r = BufReader::new(input.as_bytes());
        assert_eq!(read_frame(&mut r, 16, &quiet()), Frame::TooLong);
        assert_eq!(read_frame(&mut r, 16, &quiet()), Frame::Line("ping".into()));
    }

    #[test]
    fn truncated_line_is_not_parsed() {
        let mut r = BufReader::new(&b"no newline"[..]);
        assert_eq!(read_frame(&mut r, 64, &quiet()), Frame::Truncated);
    }

    #[test]
    fn invalid_utf8_is_rejected_not_panicked() {
        let mut r = BufReader::new(&b"\xff\xfe\nping\n"[..]);
        assert_eq!(read_frame(&mut r, 64, &quiet()), Frame::BadUtf8);
        assert_eq!(read_frame(&mut r, 64, &quiet()), Frame::Line("ping".into()));
    }

    #[test]
    fn boundary_length_is_accepted_one_past_is_not() {
        let exact = "y".repeat(16);
        let input = format!("{exact}\n{exact}z\n");
        let mut r = BufReader::new(input.as_bytes());
        assert_eq!(read_frame(&mut r, 16, &quiet()), Frame::Line(exact));
        assert_eq!(read_frame(&mut r, 16, &quiet()), Frame::TooLong);
    }

    #[test]
    fn shutdown_flag_wins_over_pending_input() {
        let stop = AtomicBool::new(true);
        let mut r = BufReader::new(&b"ping\n"[..]);
        assert_eq!(read_frame(&mut r, 64, &stop), Frame::Shutdown);
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, r#"{"cmd":"ping"}"#).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"{\"cmd\":\"ping\"}\n");
        write_frame(&mut w, "").unwrap();
        write_frame(&mut w, &"z".repeat(70_000)).unwrap();
        assert_eq!(w.writes, 3);
        assert_eq!(w.bytes.len(), 15 + 1 + 70_001);
    }

    #[test]
    fn read_frame_returns_what_write_frame_wrote() {
        let max = 32;
        let lines = [
            String::new(),
            r#"{"ok":true,"pong":true}"#.to_owned(),
            "é".repeat(max / 2),
            "m".repeat(max),
        ];
        let mut wire = Vec::new();
        for line in &lines {
            write_frame(&mut wire, line).unwrap();
        }
        let mut r = BufReader::new(&wire[..]);
        for line in &lines {
            assert_eq!(read_frame(&mut r, max, &quiet()), Frame::Line(line.clone()));
        }
        assert_eq!(read_frame(&mut r, max, &quiet()), Frame::Eof);
    }

    #[test]
    fn error_reply_shape() {
        let e = error_reply("bad_json", "oops");
        assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
        let inner = e.get("error").unwrap();
        assert_eq!(inner.get("code").and_then(Json::as_str), Some("bad_json"));
        assert_eq!(inner.get("message").and_then(Json::as_str), Some("oops"));
    }
}
