//! Misbehaving (and well-behaved) clients for the resident schema
//! service's fault-injection harness.
//!
//! The serve daemon's robustness claims — slow-loris cutoff, oversized
//! frame rejection, mid-request disconnect tolerance, bounded-queue
//! shedding — are only testable with clients that misbehave *on
//! purpose*, deterministically. This module packages those behaviours so
//! `tests/serve_faults.rs` (and any future soak harness) can drive a
//! live server with a few lines per scenario:
//!
//! * [`LineClient`] — the honest baseline: one request line out, one
//!   response line back.
//! * [`slow_loris`] — trickles a frame one byte at a time, the classic
//!   hold-a-worker-hostage attack.
//! * [`abandon_mid_frame`] — writes half a frame and vanishes.
//! * [`send_raw`] — arbitrary bytes (invalid UTF-8, binary garbage) as
//!   one frame.
//! * [`pipeline`] — writes a burst of frames before reading any
//!   responses, for queue-overflow storms.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A well-behaved line-protocol client: UTF-8 frames, newline
/// terminated, reads exactly one response per request.
pub struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    /// Connects with a generous read timeout so a wedged server fails a
    /// test instead of hanging it.
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(LineClient { stream, reader })
    }

    /// Sends one frame (newline appended) in one write, so Nagle's
    /// algorithm never holds a lone newline back for the server's
    /// delayed acknowledgement.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// Reads one response line (newline stripped). `Ok(None)` on EOF —
    /// the server closed this connection.
    pub fn read_response(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Ok(None),
            _ => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(Some(line))
            }
        }
    }

    /// One full round trip.
    pub fn request(&mut self, line: &str) -> std::io::Result<Option<String>> {
        self.send(line)?;
        self.read_response()
    }

    /// Whether the server has closed the connection (EOF on read).
    pub fn is_closed(&mut self) -> bool {
        matches!(self.read_response(), Ok(None))
    }
}

/// Trickles `frame` one byte every `per_byte` — never finishing within
/// any sane frame budget — then reads whatever the server answers.
/// Returns the response line, or `None` when the server just closed the
/// connection.
pub fn slow_loris(
    addr: SocketAddr,
    frame: &str,
    per_byte: Duration,
) -> std::io::Result<Option<String>> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    for byte in frame.as_bytes() {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            // The server already cut us off mid-trickle; read its parting
            // response below.
            break;
        }
        std::thread::sleep(per_byte);
    }
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => Ok(Some(line.trim_end().to_string())),
        // The cutoff can also race the trickle into a reset.
        Err(_) => Ok(None),
    }
}

/// Writes `partial` (no newline — an unterminated frame) and drops the
/// connection: the mid-request disconnect.
pub fn abandon_mid_frame(addr: SocketAddr, partial: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.write_all(partial.as_bytes())?;
    // Dropping the stream closes it with the frame unterminated.
    Ok(())
}

/// Sends arbitrary bytes as one newline-terminated frame and reads one
/// response line (`None` when the server closes without answering).
pub fn send_raw(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<Option<String>> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(bytes)?;
    stream.write_all(b"\n")?;
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Ok((!buf.is_empty()).then(|| String::from_utf8_lossy(&buf).into_owned()))
            }
            Ok(_) if byte[0] == b'\n' => {
                return Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
            }
            Ok(_) => buf.push(byte[0]),
            Err(e) => return Err(e),
        }
    }
}

/// Writes every frame in one write before reading any responses — the
/// burst shape that fills a bounded queue — then collects one response
/// per frame (stopping early if the server closes). Returns the response
/// lines.
pub fn pipeline(addr: SocketAddr, frames: &[String]) -> std::io::Result<Vec<String>> {
    let mut client = LineClient::connect(addr)?;
    let burst: String = frames.iter().map(|frame| format!("{frame}\n")).collect();
    client.stream.write_all(burst.as_bytes())?;
    let mut responses = Vec::new();
    for _ in frames {
        match client.read_response()? {
            Some(line) => responses.push(line),
            None => break,
        }
    }
    Ok(responses)
}
