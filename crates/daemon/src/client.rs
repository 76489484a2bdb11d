//! A small blocking client for the daemon protocol.
//!
//! `crace submit` is built on this, and the differential tests use it to
//! drive many concurrent tenants. It deliberately exposes low-level
//! knobs — raw byte writes, arbitrary chunk sizes — because the test
//! plane needs to dribble bytes and tear streams mid-record.

use crate::server::Endpoint;
use crace_cli::frame_event;
use crace_model::Event;
use crace_spec::Spec;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

/// A connected transport, unified over the two socket families.
pub enum Transport {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Transport {
    pub(crate) fn try_clone(&self) -> std::io::Result<Transport> {
        match self {
            Transport::Unix(s) => s.try_clone().map(Transport::Unix),
            Transport::Tcp(s) => s.try_clone().map(Transport::Tcp),
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Unix(s) => s.read(buf),
            Transport::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Unix(s) => s.write(buf),
            Transport::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Unix(s) => s.flush(),
            Transport::Tcp(s) => s.flush(),
        }
    }
}

/// The final `STATS` line of a session, parsed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// `k=v` fields verbatim (values are integers on the wire).
    pub fields: BTreeMap<String, u64>,
}

impl WireStats {
    /// A named stat, or 0 if the server didn't send it.
    pub fn get(&self, key: &str) -> u64 {
        self.fields.get(key).copied().unwrap_or(0)
    }
}

/// One client connection, driving at most one session.
///
/// Dropping the client closes the socket — which, mid-session, is
/// exactly the "client died" case the torn-stream tests exercise.
pub struct Client {
    reader: BufReader<Transport>,
    writer: Transport,
}

impl Client {
    /// Connects to a daemon at `endpoint`.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let transport = match endpoint {
            Endpoint::Unix(path) => Transport::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Transport::Tcp(TcpStream::connect(addr)?),
        };
        let writer = transport.try_clone()?;
        Ok(Client {
            reader: BufReader::new(transport),
            writer,
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Opens a session. Returns the server's `OK …` line, or the `ERR`
    /// message as the error.
    ///
    /// # Errors
    ///
    /// `Err` carries the server's rejection (or an IO failure rendered
    /// as text).
    pub fn hello(
        &mut self,
        session: &str,
        spec: &str,
        workers: usize,
        faults: Option<&str>,
    ) -> Result<String, String> {
        let mut line = format!("HELLO {session} {spec}");
        if workers > 0 {
            line.push_str(&format!(" workers={workers}"));
        }
        if let Some(plan) = faults {
            line.push_str(&format!(" faults={plan}"));
        }
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        let reply = self.read_line().map_err(|e| format!("read failed: {e}"))?;
        match reply.strip_prefix("ERR ") {
            Some(message) => Err(message.to_string()),
            None => Ok(reply),
        }
    }

    /// Reopens a session on a restarted daemon. `seq` is the number of
    /// records this client already delivered. Returns the server's `OK …`
    /// line and the recovered sequence number — resend records starting
    /// there.
    ///
    /// # Errors
    ///
    /// `Err` carries the server's rejection (or an IO failure rendered
    /// as text).
    pub fn resume(
        &mut self,
        session: &str,
        seq: u64,
        spec: &str,
        workers: usize,
    ) -> Result<(String, u64), String> {
        let mut line = format!("RESUME {session} {seq} spec={spec}");
        if workers > 0 {
            line.push_str(&format!(" workers={workers}"));
        }
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        let reply = self.read_line().map_err(|e| format!("read failed: {e}"))?;
        if let Some(message) = reply.strip_prefix("ERR ") {
            return Err(message.to_string());
        }
        let recovered = reply
            .split_whitespace()
            .find_map(|w| w.strip_prefix("seq="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("resume reply carries no seq: `{reply}`"))?;
        Ok((reply, recovered))
    }

    /// Streams one event as a framed record.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_event(&mut self, event: &Event, spec: &Spec) -> std::io::Result<()> {
        let mut line = frame_event(event, spec);
        line.push('\n');
        self.send_raw(line.as_bytes())
    }

    /// Writes raw bytes to the socket (no framing added).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Writes `bytes` in `chunk`-sized pieces, flushing after each — the
    /// pathological-framing path (`chunk == 1` is a byte dribble).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_chunked(&mut self, bytes: &[u8], chunk: usize) -> std::io::Result<()> {
        for piece in bytes.chunks(chunk.max(1)) {
            self.writer.write_all(piece)?;
            self.writer.flush()?;
        }
        Ok(())
    }

    fn read_report_payload(&mut self, header: &str) -> Result<String, String> {
        let nbytes: usize = header
            .strip_prefix("REPORT ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("expected `REPORT <nbytes>`, got `{header}`"))?;
        let mut body = vec![0u8; nbytes];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("short report: {e}"))?;
        String::from_utf8(body).map_err(|_| "report is not UTF-8".to_string())
    }

    /// Requests an interim report; the session stays open. Returns the
    /// report JSON.
    ///
    /// # Errors
    ///
    /// `Err` carries the server's `ERR` message or an IO failure.
    pub fn report(&mut self) -> Result<String, String> {
        self.send_raw(b"REPORT\n")
            .map_err(|e| format!("write failed: {e}"))?;
        let header = self.read_line().map_err(|e| format!("read failed: {e}"))?;
        if let Some(message) = header.strip_prefix("ERR ") {
            return Err(message.to_string());
        }
        self.read_report_payload(&header)
    }

    /// Closes the session cleanly: sends `BYE`, returns the final report
    /// JSON and parsed `STATS`.
    ///
    /// # Errors
    ///
    /// `Err` carries the server's `ERR` message or an IO failure.
    pub fn bye(mut self) -> Result<(String, WireStats), String> {
        self.send_raw(b"BYE\n")
            .map_err(|e| format!("write failed: {e}"))?;
        let header = self.read_line().map_err(|e| format!("read failed: {e}"))?;
        if let Some(message) = header.strip_prefix("ERR ") {
            return Err(message.to_string());
        }
        let report = self.read_report_payload(&header)?;
        let stats_line = self.read_line().map_err(|e| format!("read failed: {e}"))?;
        Ok((report, parse_stats(&stats_line)?))
    }

    /// Reads whatever the server sends until it closes the connection —
    /// used by tests inspecting torn-stream behavior.
    pub fn drain(mut self) -> String {
        let mut out = String::new();
        let _ = self.reader.read_to_string(&mut out);
        out
    }
}

/// Parses a `STATS k=v …` line.
///
/// # Errors
///
/// `Err` when the line is not a STATS line or a value is not an integer.
pub fn parse_stats(line: &str) -> Result<WireStats, String> {
    let rest = line
        .strip_prefix("STATS")
        .ok_or_else(|| format!("expected `STATS …`, got `{line}`"))?;
    let mut stats = WireStats::default();
    for field in rest.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("bad STATS field `{field}`"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("bad STATS value in `{field}`"))?;
        stats.fields.insert(key.to_string(), value);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_lines_parse() {
        let s = parse_stats("STATS events=10 races=3 torn=0").unwrap();
        assert_eq!(s.get("events"), 10);
        assert_eq!(s.get("races"), 3);
        assert_eq!(s.get("torn"), 0);
        assert_eq!(s.get("missing"), 0);
        assert!(parse_stats("NOPE x=1").is_err());
        assert!(parse_stats("STATS x=abc").is_err());
    }
}
