//! The blocking client: one socket, one JSON line per call.
//!
//! Each request goes out as one frame in one write, on a socket with Nagle
//! off, so a call costs one round trip and no delayed-ACK wait.
//!
//! [`ServeClient`] is what the test suites, the CI smoke job, and the
//! `mis-serve client` subcommand use. It deliberately exposes a
//! [`raw_call`](ServeClient::raw_call) escape hatch sending arbitrary
//! bytes — the protocol suite uses it to deliver malformed frames — and a
//! raw [`fetch_line`](ServeClient::fetch_line) so payload bytes can be
//! compared without a parse/re-render step in between.

use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mis_beeping::json::Json;

use crate::protocol::write_frame;

/// Maximum status polls in [`wait`](ServeClient::wait) before giving up
/// (at 5 ms per poll ≈ 100 s of queue + run time).
const MAX_WAIT_POLLS: u32 = 20_000;

/// A connected protocol client.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects to a running daemon, with Nagle off.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`connect`](Self::connect) retrying every 50 ms, for racing a
    /// daemon that is still binding (the CI smoke starts both at once).
    ///
    /// # Errors
    ///
    /// Returns the last connection failure after `attempts` tries.
    pub fn connect_retry(addr: impl ToSocketAddrs + Copy, attempts: u32) -> std::io::Result<Self> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(last.expect("at least one attempt"))
    }

    /// Sends one raw line (no trailing newline) and reads one reply line.
    /// The line is sent verbatim — including malformed JSON, which is the
    /// point for protocol tests.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; an empty reply (server closed the
    /// connection) is `UnexpectedEof`.
    pub fn raw_call(&mut self, line: &str) -> std::io::Result<String> {
        write_frame(&mut self.writer, line)?;
        self.read_reply_line()
    }

    fn read_reply_line(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Sends a command document and parses the reply.
    ///
    /// # Errors
    ///
    /// Transport failures, plus `InvalidData` if the reply is not JSON.
    pub fn call(&mut self, doc: &Json) -> std::io::Result<Json> {
        let reply = self.raw_call(&doc.render())?;
        Json::parse(&reply).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad reply: {e}"))
        })
    }

    fn cmd0(name: &str) -> Json {
        Json::Obj(vec![("cmd".to_owned(), Json::Str(name.to_owned()))])
    }

    fn cmd_job(name: &str, job: &str) -> Json {
        Json::Obj(vec![
            ("cmd".to_owned(), Json::Str(name.to_owned())),
            ("job".to_owned(), Json::Str(job.to_owned())),
        ])
    }

    /// `ping` — true iff the daemon answered `pong`.
    ///
    /// # Errors
    ///
    /// Propagates [`call`](Self::call) failures.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        Ok(self.call(&Self::cmd0("ping"))?.get("pong") == Some(&Json::Bool(true)))
    }

    /// `submit` — returns the ack (or typed error reply).
    ///
    /// # Errors
    ///
    /// Propagates [`call`](Self::call) failures.
    pub fn submit(&mut self, request: &Json) -> std::io::Result<Json> {
        self.call(&Json::Obj(vec![
            ("cmd".to_owned(), Json::Str("submit".to_owned())),
            ("request".to_owned(), request.clone()),
        ]))
    }

    /// `status` for a job id (the `job` string from a submit ack).
    ///
    /// # Errors
    ///
    /// Propagates [`call`](Self::call) failures.
    pub fn status(&mut self, job: &str) -> std::io::Result<Json> {
        self.call(&Self::cmd_job("status", job))
    }

    /// `fetch` as a raw reply line — byte-comparable across calls.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn fetch_line(&mut self, job: &str) -> std::io::Result<String> {
        self.raw_call(&Self::cmd_job("fetch", job).render())
    }

    /// `fetch` as a parsed reply.
    ///
    /// # Errors
    ///
    /// Propagates [`call`](Self::call) failures.
    pub fn fetch(&mut self, job: &str) -> std::io::Result<Json> {
        self.call(&Self::cmd_job("fetch", job))
    }

    /// `cache_stats`.
    ///
    /// # Errors
    ///
    /// Propagates [`call`](Self::call) failures.
    pub fn cache_stats(&mut self) -> std::io::Result<Json> {
        self.call(&Self::cmd0("cache_stats"))
    }

    /// Polls `status` every 5 ms until the job is `done` or `error`,
    /// returning the final status reply.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` after `MAX_WAIT_POLLS` polls.
    pub fn wait(&mut self, job: &str) -> std::io::Result<Json> {
        for _ in 0..MAX_WAIT_POLLS {
            let status = self.status(job)?;
            match status.get("state").and_then(Json::as_str) {
                Some("done" | "error") => return Ok(status),
                _ if status.get("ok") == Some(&Json::Bool(false)) => return Ok(status),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("job {job} did not finish"),
        ))
    }

    /// `submit` → [`wait`](Self::wait) → `fetch`: the full round-trip.
    /// Submit rejections and job failures come back as the daemon's
    /// `{"ok": false, ...}` reply rather than an `Err`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and wait timeouts.
    pub fn run_to_completion(&mut self, request: &Json) -> std::io::Result<Json> {
        let ack = self.submit(request)?;
        if ack.get("ok") != Some(&Json::Bool(true)) {
            return Ok(ack);
        }
        let job = ack
            .get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "ack without a job id")
            })?
            .to_owned();
        self.wait(&job)?;
        self.fetch(&job)
    }

    /// `shutdown` — the daemon stops after replying.
    ///
    /// # Errors
    ///
    /// Propagates [`call`](Self::call) failures.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.call(&Self::cmd0("shutdown"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn both_ends_of_a_connection_turn_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = ServeClient::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        crate::server::configure_accepted(&accepted).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
        assert!(accepted.nodelay().unwrap());
        assert_eq!(
            accepted.read_timeout().unwrap(),
            Some(Duration::from_millis(100))
        );
    }
}
