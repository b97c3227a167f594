//! Driving `jsonx serve` from outside, over its line protocol.
//!
//! Load comes from this one process over at most two connections. Each
//! connection has one sender thread and one thread that reads its
//! replies. A sender either writes all its frames at once (a saturating
//! burst, paced only by the socket), or each on a fixed schedule
//! regardless of replies (an open loop, where each request is timed from
//! the moment it was due, so a stall also charges the requests queued
//! behind it).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `jsonx serve` on a free local port and returns once it has
    /// printed its listening address.
    pub fn spawn(jsonx: &Path, schema: &Path, workers: usize) -> std::io::Result<Daemon> {
        let mut child = Command::new(jsonx)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--schema")
            .arg(schema)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => Ok(Daemon {
                addr: addr.to_string(),
                child,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "serve did not report its address: {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one client connection.
    pub fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Sends `SHUTDOWN`, waits for the daemon to drain and exit, and
    /// returns its final report (the JSON line it prints on stderr) and
    /// whether it exited with status 0.
    pub fn shutdown(mut self) -> std::io::Result<(jsonx::Value, bool)> {
        let mut conn = self.connect()?;
        let reply = request(&mut conn, "SHUTDOWN")?;
        if !reply.contains("\"ok\":true") {
            return Err(std::io::Error::other(format!("SHUTDOWN refused: {reply}")));
        }
        drop(conn);
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)?;
        let ok = self.child.wait()?.success();
        let line = stderr
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .ok_or_else(|| std::io::Error::other("serve printed no final report"))?;
        let report = jsonx::syntax::parse(line)
            .map_err(|e| std::io::Error::other(format!("final report: {e}")))?;
        Ok((report, ok))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path: `shutdown` consumes the handle
        // after the child has exited, and then kill/wait are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request, one reply, on a blocking connection.
pub fn request(conn: &mut TcpStream, line: &str) -> std::io::Result<String> {
    conn.set_nonblocking(false)?;
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if conn.read(&mut byte)? == 0 {
            return Err(std::io::Error::other("connection closed mid-reply"));
        }
        if byte[0] == b'\n' {
            break;
        }
        reply.push(byte[0]);
    }
    String::from_utf8(reply).map_err(std::io::Error::other)
}

/// A reply's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Valid,
    Invalid,
    /// Anything else: an error, a `busy`, a deadline.
    Failed,
}

fn classify(line: &[u8]) -> Reply {
    let has = |needle: &[u8]| line.windows(needle.len()).any(|w| w == needle);
    if !has(b"\"ok\":true") {
        Reply::Failed
    } else if has(b"\"verdict\":\"valid\"") {
        Reply::Valid
    } else if has(b"\"verdict\":\"invalid\"") {
        Reply::Invalid
    } else {
        Reply::Failed
    }
}

/// How one connection sends its frames.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// All at once, as fast as the socket takes them: the server's
    /// saturation throughput.
    Burst,
    /// Frame `i` is due at `start + i * interval`, whatever the replies.
    Open { start: Instant, interval: Duration },
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Driven {
    /// One verdict per frame, in send order.
    pub replies: Vec<Reply>,
    /// Open loop only: per frame, reply time minus due time, ns.
    pub latency_ns: Vec<u64>,
    /// Open loop only: how far behind schedule the sender ever wrote, ns.
    pub gen_late_ns: u64,
    /// Reply bytes received, newlines included.
    pub reply_bytes: u64,
}

/// Sends `frames` (each a complete line, newline included) over `conn`
/// at `pace` from a sender thread, reads every reply on this thread, and
/// returns what it saw. Replies arrive in request order.
pub fn drive(conn: &mut TcpStream, frames: &[&[u8]], pace: Pace) -> std::io::Result<Driven> {
    conn.set_nonblocking(false)?;
    let n = frames.len();
    let mut reader = BufReader::with_capacity(64 * 1024, conn.try_clone()?);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<(Vec<Instant>, u64)> {
            let Pace::Open { start, interval } = pace else {
                conn.write_all(&frames.concat())?;
                return Ok((Vec::new(), 0));
            };
            let (mut due, mut late) = (Vec::with_capacity(n), 0u64);
            for (i, frame) in frames.iter().enumerate() {
                let d = start + interval * i as u32;
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                conn.write_all(frame)?;
                late = late.max(Instant::now().saturating_duration_since(d).as_nanos() as u64);
                due.push(d);
            }
            Ok((due, late))
        });
        let mut received = Vec::with_capacity(n);
        let mut out = Driven {
            replies: Vec::with_capacity(n),
            ..Driven::default()
        };
        let mut line = Vec::new();
        for _ in 0..n {
            line.clear();
            let k = reader.read_until(b'\n', &mut line)?;
            if k == 0 || line.last() != Some(&b'\n') {
                return Err(std::io::Error::other("server closed the connection"));
            }
            received.push(Instant::now());
            out.reply_bytes += k as u64;
            out.replies.push(classify(&line));
        }
        let (due, late) = sender.join().expect("sender thread panicked")?;
        out.gen_late_ns = late;
        out.latency_ns = due
            .iter()
            .zip(&received)
            .map(|(d, r)| r.saturating_duration_since(*d).as_nanos() as u64)
            .collect();
        Ok(out)
    })
}

/// Splits `frames` round-robin over `conns` connections, drives each on
/// its own thread, and returns the per-connection outcomes together
/// with the frame index each reply belongs to.
pub fn drive_all(
    conns: &mut [TcpStream],
    frames: &[&[u8]],
    pace: impl Fn(usize) -> Pace,
) -> std::io::Result<Vec<(Vec<usize>, Driven)>> {
    let k = conns.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let idx: Vec<usize> = (c..frames.len()).step_by(k).collect();
                let mine: Vec<&[u8]> = idx.iter().map(|&i| frames[i]).collect();
                let pace = pace(c);
                s.spawn(move || drive(conn, &mine, pace).map(|d| (idx, d)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    })
}
