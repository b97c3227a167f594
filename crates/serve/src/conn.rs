//! Per-connection handling: the defensive framer and the pipelined
//! request loop.
//!
//! Each connection gets one thread and one [`Framer`] — a newline framer
//! that polls with a short read timeout so it can notice the shutdown
//! latch, caps the frame size (oversized frames are rejected before
//! buffering grows without bound), and enforces a completion budget on
//! partially received frames (the slow-loris guard: a client trickling
//! one byte at a time gets `slow-frame` and the socket back, not a
//! parked thread forever).
//!
//! A connection pipelines: every complete frame already read is admitted
//! at once, and each owes the client one reply slot in a FIFO — either a
//! response made on the connection thread (a malformed frame, `busy`) or
//! the receiving end of a worker's reply. Only when no complete frame is
//! left in the read buffer does the connection resolve the FIFO, in
//! request order, into one output buffer, write it with one `write_all`,
//! and block on the socket again. So replies stay in request order per
//! connection, and a burst of frames costs one write instead of one per
//! frame.
//!
//! The number of data requests a connection keeps in flight is its fair
//! share of the queue, `queue depth / live connections` (at least one).
//! Data verbs enter the bounded queue with `try_send`; a full queue makes
//! a connection with work in flight wait for its own oldest reply and
//! retry, and only a connection with nothing in flight answers `busy`
//! (explicit load-shedding).
//!
//! Admin verbs (`PING`, `STATS`, `RELOAD`, `SHUTDOWN`) are answered on
//! the connection thread — they must keep working while the data queue
//! is saturated. They, and the debug verbs (`BOOM`, `SLEEP`), are
//! barriers: every earlier reply on the connection resolves first, and a
//! debug verb's own reply resolves before the next frame is looked at.

use crate::cache::handle_reload;
use crate::engine::{Job, Work};
use crate::protocol::{
    parse_request, Request, Response, KIND_BAD_FRAME, KIND_BUSY, KIND_PANIC, KIND_RELOAD_FAILED,
    KIND_SHUTTING_DOWN, KIND_SLOW_FRAME,
};
use crate::Shared;
use jsonx_syntax::{ParseErrorKind, RecordLimit};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-timeout granularity: how often a blocked read re-checks the
/// shutdown latch and the frame budget.
const POLL: Duration = Duration::from_millis(25);

/// Free space offered to each socket read. A burst of small frames
/// arrives tens at a time, and their replies leave in one write.
const READ_CHUNK: usize = 32 * 1024;

/// What one call to [`Framer::next`] produced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameEvent<'a> {
    /// A complete line (newline stripped), borrowed from the read buffer.
    Line(&'a str),
    /// A complete line that was not valid UTF-8.
    BadUtf8,
    /// The frame grew past the cap.
    Oversized,
    /// The frame's first byte arrived but the rest didn't within budget.
    Slow,
    /// The peer closed (EOF). `mid_frame` is true when bytes of an
    /// unterminated frame were pending — a mid-request disconnect.
    Closed { mid_frame: bool },
    /// The daemon is draining and this connection is idle.
    ShuttingDown,
    /// The socket failed.
    Io,
}

/// Newline framer over a polled, capped, budgeted socket read loop.
///
/// Frames are handed out from a read buffer by offset; the unread tail
/// moves to the front once per socket read, not once per frame.
pub(crate) struct Framer {
    stream: TcpStream,
    /// Read storage; `buf[start..end]` holds the unread bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
    cap: usize,
    budget: Duration,
}

impl Framer {
    pub(crate) fn new(stream: TcpStream, cap: usize, budget: Duration) -> std::io::Result<Framer> {
        stream.set_read_timeout(Some(POLL))?;
        // A peer that stops reading its responses shouldn't park the
        // handler forever either.
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        // Replies already leave one write per drained batch, so Nagle's
        // algorithm would only hold the last one back for the peer's
        // delayed acknowledgement.
        stream.set_nodelay(true)?;
        Ok(Framer {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
            scanned: 0,
            cap,
            budget,
        })
    }

    /// The position of the next buffered newline, remembering how far
    /// the search got so no byte is scanned twice.
    fn newline(&mut self) -> Option<usize> {
        match self.buf[self.scanned..self.end]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(i) => {
                self.scanned += i;
                Some(self.scanned)
            }
            None => {
                self.scanned = self.end;
                None
            }
        }
    }

    /// Whether [`next`](Framer::next) would return without reading the
    /// socket: a complete frame, or an over-cap partial one, is buffered.
    pub(crate) fn ready(&mut self) -> bool {
        self.newline().is_some() || self.end - self.start > self.cap
    }

    /// Blocks until one frame completes (or fails to). Pipelined frames
    /// already buffered are returned without touching the socket.
    pub(crate) fn next(&mut self, shutdown: &AtomicBool) -> FrameEvent<'_> {
        let mut started: Option<Instant> = (self.start < self.end).then(Instant::now);
        loop {
            if let Some(nl) = self.newline() {
                let line = self.start..nl;
                self.start = nl + 1;
                self.scanned = self.start;
                if line.len() > self.cap {
                    return FrameEvent::Oversized;
                }
                return match std::str::from_utf8(&self.buf[line]) {
                    Ok(text) => FrameEvent::Line(text),
                    Err(_) => FrameEvent::BadUtf8,
                };
            }
            if self.end - self.start > self.cap {
                return FrameEvent::Oversized;
            }
            if let Some(t0) = started {
                if t0.elapsed() > self.budget {
                    return FrameEvent::Slow;
                }
            }
            match self.fill() {
                Ok(0) => {
                    return FrameEvent::Closed {
                        mid_frame: self.start < self.end,
                    }
                }
                Ok(_) => {
                    if started.is_none() {
                        started = Some(Instant::now());
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) && self.start == self.end {
                        return FrameEvent::ShuttingDown;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return FrameEvent::Io,
            }
        }
    }

    /// One socket read into the buffer's free space, after moving the
    /// unread tail to the front and growing the storage when a long
    /// partial frame has filled it.
    fn fill(&mut self) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// Answers one over-cap connection with a structured `busy` line.
pub(crate) fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = Response::err(KIND_BUSY, "connection limit reached");
    let _ = stream.write_all(format!("{}\n", resp.line).as_bytes());
}

/// The per-connection request loop. Returns when the peer closes, a
/// frame-level fault closes the connection, or the daemon drains.
pub(crate) fn handle_conn(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    stream: TcpStream,
    conn_id: usize,
) {
    let config = &shared.config;
    let framer = match Framer::new(stream, config.frame_cap(), config.frame_budget) {
        Ok(framer) => framer,
        Err(_) => return,
    };
    let mut conn = Conn {
        shared,
        tx,
        conn_id,
        framer,
        slots: VecDeque::new(),
        in_flight: 0,
        out: Vec::new(),
    };
    while conn.step() {}
    conn.write_out();
}

/// One reply a connection owes its client.
enum Slot {
    /// Answered on the connection thread (a malformed frame, `busy`).
    Ready(Response),
    /// A worker's reply, still to be received.
    Pending(Receiver<Response>),
}

/// A connection's pipelined state: the owed replies in request order and
/// the resolved ones not yet written.
struct Conn<'a> {
    shared: &'a Arc<Shared>,
    tx: &'a SyncSender<Job>,
    conn_id: usize,
    framer: Framer,
    slots: VecDeque<Slot>,
    /// How many of `slots` are [`Slot::Pending`].
    in_flight: usize,
    out: Vec<u8>,
}

impl Conn<'_> {
    /// Handles one frame. Returns false when the connection must close;
    /// the caller then writes whatever [`out`](Conn::out) holds.
    fn step(&mut self) -> bool {
        // Out of buffered frames: answer everything owed before blocking.
        if !self.framer.ready() && !self.flush() {
            return false;
        }
        let shared = self.shared;
        let config = &shared.config;
        let request = match self.framer.next(&shared.shutdown) {
            FrameEvent::Line(line) => parse_request(line, config.debug_faults),
            FrameEvent::BadUtf8 => {
                shared.stats.lock().unwrap().bad_frames += 1;
                return self.close_with(Response::err_close(KIND_BAD_FRAME, "frame is not UTF-8"));
            }
            FrameEvent::Oversized => {
                shared.stats.lock().unwrap().oversized_frames += 1;
                // Same stable label an oversized record gets in the batch
                // pipeline, so clients see one vocabulary.
                let kind = ParseErrorKind::LimitExceeded(RecordLimit::InputBytes).label();
                return self.close_with(Response::err_close(
                    kind,
                    &format!("frame exceeds {} bytes", config.frame_cap()),
                ));
            }
            FrameEvent::Slow => {
                shared.stats.lock().unwrap().slow_frames += 1;
                return self.close_with(Response::err_close(
                    KIND_SLOW_FRAME,
                    &format!(
                        "frame did not complete within {} ms",
                        config.frame_budget.as_millis()
                    ),
                ));
            }
            FrameEvent::Closed { mid_frame } => {
                if mid_frame {
                    shared.stats.lock().unwrap().disconnects += 1;
                }
                return false;
            }
            FrameEvent::ShuttingDown | FrameEvent::Io => return false,
        };
        shared.stats.lock().unwrap().frames += 1;
        let request = match request {
            Ok(request) => request,
            Err(resp) => {
                shared.stats.lock().unwrap().malformed_requests += 1;
                self.answer(resp);
                return true;
            }
        };
        // Every verb but the data verbs is a barrier.
        if !matches!(request, Request::Data { .. }) && !self.drain() {
            return false;
        }
        let resp = match request {
            Request::Data { op, payload } => return self.admit(Work::Data(op), payload),
            Request::Ping => Response::ok_ping(shared.cache.snapshot().epoch),
            Request::Stats => {
                let stats = shared.stats.lock().unwrap();
                crate::stats::stats_response(
                    &stats,
                    shared.cache.snapshot().epoch,
                    config.effective_queue_depth(),
                )
            }
            Request::Reload => match handle_reload(shared) {
                Ok(epoch) => Response::ok_reload(epoch),
                Err(message) => Response::err(KIND_RELOAD_FAILED, &message),
            },
            Request::Shutdown => {
                self.answer(Response::ok_shutdown());
                self.write_out();
                shared.begin_shutdown();
                return false;
            }
            Request::Boom => return self.admit(Work::Boom, String::new()) && self.drain(),
            Request::Sleep(ms) => {
                return self.admit(Work::Sleep(ms), String::new()) && self.drain()
            }
        };
        self.answer(resp);
        true
    }

    /// Admits one request to the bounded queue, first waiting for this
    /// connection's oldest replies while its window is full. Returns false
    /// when the connection must close.
    fn admit(&mut self, work: Work, payload: String) -> bool {
        let shared = self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            return self.close_with(Response::err_close(
                KIND_SHUTTING_DOWN,
                "daemon is draining",
            ));
        }
        let depth = shared.config.effective_queue_depth();
        let live = shared.live_conns.load(Ordering::Relaxed).max(1);
        let window = (depth / live).max(1);
        while self.in_flight >= window {
            if !self.resolve_front() {
                return false;
            }
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let mut job = Job {
            work,
            payload,
            seq: shared.next_seq(),
            conn: self.conn_id,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        loop {
            match self.tx.try_send(job) {
                Ok(()) => {
                    shared.stats.lock().unwrap().enqueued += 1;
                    self.slots.push_back(Slot::Pending(reply_rx));
                    self.in_flight += 1;
                    return true;
                }
                // The queue holds some of this connection's own work:
                // wait for it rather than shed a request behind it.
                Err(TrySendError::Full(back)) if self.in_flight > 0 => {
                    job = back;
                    if !self.resolve_front() {
                        return false;
                    }
                }
                Err(TrySendError::Full(_)) => {
                    shared.stats.lock().unwrap().shed += 1;
                    self.answer(Response::err(
                        KIND_BUSY,
                        &format!("request queue full (depth {depth})"),
                    ));
                    return true;
                }
                Err(TrySendError::Disconnected(_)) => {
                    return self.close_with(Response::err_close(
                        KIND_SHUTTING_DOWN,
                        "daemon is draining",
                    ));
                }
            }
        }
    }

    /// Owes `resp` after every earlier reply.
    fn answer(&mut self, resp: Response) {
        if self.slots.is_empty() {
            push_line(&mut self.out, &resp);
        } else {
            self.slots.push_back(Slot::Ready(resp));
        }
    }

    /// Resolves the oldest owed reply into the output buffer, waiting for
    /// its worker if need be. Returns false when that reply closes the
    /// connection; the replies behind it are dropped unsent.
    fn resolve_front(&mut self) -> bool {
        let Some(slot) = self.slots.pop_front() else {
            return true;
        };
        let resp = match slot {
            Slot::Ready(resp) => resp,
            Slot::Pending(rx) => {
                self.in_flight -= 1;
                // The worker's catch_unwind guarantees exactly one reply
                // per enqueued job; a dropped sender (impossible today)
                // degrades to a panic response rather than a hang.
                rx.recv()
                    .unwrap_or_else(|_| Response::err_close(KIND_PANIC, "reply channel lost"))
            }
        };
        push_line(&mut self.out, &resp);
        if resp.close {
            self.slots.clear();
            self.in_flight = 0;
        }
        !resp.close
    }

    /// Resolves every owed reply, in request order.
    fn drain(&mut self) -> bool {
        while !self.slots.is_empty() {
            if !self.resolve_front() {
                return false;
            }
        }
        true
    }

    /// Resolves every owed reply and writes them all with one write.
    fn flush(&mut self) -> bool {
        self.drain() && self.write_out()
    }

    /// Writes the output buffer, if it holds anything. A failed write
    /// (peer gone) is reported so the handler can stop, but never panics
    /// the connection.
    fn write_out(&mut self) -> bool {
        if self.out.is_empty() {
            return true;
        }
        let ok = self.framer.stream.write_all(&self.out).is_ok();
        self.out.clear();
        ok
    }

    /// Ends the connection with `resp` after every reply owed before it
    /// (unless one of those already closes it).
    fn close_with(&mut self, resp: Response) -> bool {
        if self.drain() {
            push_line(&mut self.out, &resp);
        }
        false
    }
}

fn push_line(out: &mut Vec<u8>, resp: &Response) {
    out.extend_from_slice(resp.line.as_bytes());
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const BUDGET: Duration = Duration::from_secs(2);

    /// A connected (client, framer) pair over loopback.
    fn pair(cap: usize) -> (TcpStream, Framer) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Framer::new(server, cap, BUDGET).unwrap())
    }

    fn line(event: FrameEvent<'_>) -> String {
        match event {
            FrameEvent::Line(text) => text.to_string(),
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn frames_of_one_read_come_back_in_order_without_another_read() {
        let (mut client, mut framer) = pair(1024);
        let latch = AtomicBool::new(false);
        let frames: Vec<String> = (0..50)
            .map(|i| format!("VALIDATE {{\"id\": {i}}}"))
            .collect();
        client
            .write_all(
                frames
                    .iter()
                    .map(|f| format!("{f}\n"))
                    .collect::<String>()
                    .as_bytes(),
            )
            .unwrap();
        assert_eq!(line(framer.next(&latch)), frames[0]);
        for frame in &frames[1..] {
            // Already buffered by the first read: no socket read needed.
            assert!(framer.ready());
            assert_eq!(line(framer.next(&latch)), *frame);
        }
        assert!(!framer.ready());
        drop(client);
        assert_eq!(framer.next(&latch), FrameEvent::Closed { mid_frame: false });
    }

    #[test]
    fn a_frame_split_across_reads_is_reassembled() {
        let (mut client, mut framer) = pair(1024);
        let latch = AtomicBool::new(false);
        let writer = std::thread::spawn(move || {
            client.write_all(b"PING\nVALI").unwrap();
            std::thread::sleep(Duration::from_millis(60));
            client.write_all(b"DATE {\"id\"").unwrap();
            std::thread::sleep(Duration::from_millis(60));
            client.write_all(b": 1}\nSTATS\n").unwrap();
            client
        });
        assert_eq!(line(framer.next(&latch)), "PING");
        assert!(!framer.ready(), "half a frame is not ready");
        assert_eq!(line(framer.next(&latch)), "VALIDATE {\"id\": 1}");
        assert_eq!(line(framer.next(&latch)), "STATS");
        drop(writer.join().unwrap());
        assert_eq!(framer.next(&latch), FrameEvent::Closed { mid_frame: false });
    }

    #[test]
    fn a_partial_frame_longer_than_the_cap_is_oversized() {
        let (mut client, mut framer) = pair(64);
        client.write_all(&[b'x'; 200]).unwrap();
        assert_eq!(framer.next(&AtomicBool::new(false)), FrameEvent::Oversized);
    }

    #[test]
    fn a_complete_frame_longer_than_the_cap_is_oversized() {
        let (mut client, mut framer) = pair(64);
        let latch = AtomicBool::new(false);
        client.write_all(b"PING\n").unwrap();
        client.write_all(&[b'x'; 65]).unwrap();
        client.write_all(b"\n").unwrap();
        assert_eq!(line(framer.next(&latch)), "PING");
        assert_eq!(framer.next(&latch), FrameEvent::Oversized);
    }

    #[test]
    fn a_frame_at_the_cap_is_a_line() {
        let (mut client, mut framer) = pair(64);
        client.write_all(&[b'x'; 64]).unwrap();
        client.write_all(b"\n").unwrap();
        assert_eq!(line(framer.next(&AtomicBool::new(false))), "x".repeat(64));
    }

    #[test]
    fn non_utf8_frames_are_reported_and_framing_continues() {
        let (mut client, mut framer) = pair(1024);
        let latch = AtomicBool::new(false);
        client
            .write_all(b"PING\nVALIDATE \xff\xfe\nSTATS\n")
            .unwrap();
        assert_eq!(line(framer.next(&latch)), "PING");
        assert_eq!(framer.next(&latch), FrameEvent::BadUtf8);
        assert_eq!(line(framer.next(&latch)), "STATS");
    }

    #[test]
    fn a_close_mid_frame_is_a_disconnect() {
        let (mut client, mut framer) = pair(1024);
        let latch = AtomicBool::new(false);
        client.write_all(b"PING\nVALIDATE {\"id\": ").unwrap();
        drop(client);
        assert_eq!(line(framer.next(&latch)), "PING");
        assert_eq!(framer.next(&latch), FrameEvent::Closed { mid_frame: true });
    }

    #[test]
    fn a_long_partial_frame_grows_the_buffer_and_completes() {
        let (mut client, mut framer) = pair(1 << 20);
        let payload = "y".repeat(3 * READ_CHUNK);
        let frame = format!("VALIDATE {{\"pad\": \"{payload}\"}}");
        let sent = frame.clone();
        let writer = std::thread::spawn(move || {
            client
                .write_all(format!("{sent}\nPING\n").as_bytes())
                .unwrap();
            client
        });
        let latch = AtomicBool::new(false);
        assert_eq!(line(framer.next(&latch)), frame);
        assert_eq!(line(framer.next(&latch)), "PING");
        drop(writer.join().unwrap());
    }

    /// Daemon state for one live connection and no worker pool: the test
    /// plays the worker on the queue it hands the connection.
    fn shared(queue_depth: usize) -> Arc<Shared> {
        Arc::new(Shared {
            config: crate::ServeConfig {
                queue_depth,
                ..crate::ServeConfig::default()
            },
            cache: crate::SchemaCache::load(None).unwrap(),
            stats: std::sync::Mutex::new(crate::stats::Counters::default()),
            shutdown: AtomicBool::new(false),
            next_seq: std::sync::atomic::AtomicUsize::new(0),
            live_conns: std::sync::atomic::AtomicUsize::new(1),
            local_addr: std::sync::Mutex::new(None),
        })
    }

    fn conn<'a>(shared: &'a Arc<Shared>, tx: &'a SyncSender<Job>) -> (TcpStream, Conn<'a>) {
        let (client, framer) = pair(1024);
        let conn = Conn {
            shared,
            tx,
            conn_id: 0,
            framer,
            slots: VecDeque::new(),
            in_flight: 0,
            out: Vec::new(),
        };
        (client, conn)
    }

    fn validate() -> Work {
        Work::Data(crate::DataOp::Validate)
    }

    #[test]
    fn a_queue_full_of_its_own_work_makes_a_connection_wait_not_shed() {
        // The window (4) is wider than the queue (1), as it is for a
        // moment when connections come and go.
        let shared = shared(4);
        let (tx, rx) = mpsc::sync_channel::<Job>(1);
        let (_client, mut conn) = conn(&shared, &tx);
        assert!(conn.admit(validate(), "{}".to_string()));
        let worker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            while let Ok(job) = rx.recv_timeout(Duration::from_millis(500)) {
                job.reply.send(Response::ok_sleep(job.seq as u64)).unwrap();
            }
        });
        // The queue holds the first request: the second waits for its
        // reply and retries.
        assert!(conn.admit(validate(), "{}".to_string()));
        assert!(conn.drain());
        worker.join().unwrap();
        let out = String::from_utf8(conn.out.clone()).unwrap();
        assert_eq!(
            out,
            "{\"ok\":true,\"op\":\"sleep\",\"ms\":0}\n{\"ok\":true,\"op\":\"sleep\",\"ms\":1}\n"
        );
        let stats = shared.stats.lock().unwrap();
        assert_eq!((stats.enqueued, stats.shed), (2, 0));
    }

    #[test]
    fn a_full_queue_sheds_a_connection_with_nothing_in_flight() {
        let shared = shared(4);
        let (tx, _rx) = mpsc::sync_channel::<Job>(1);
        // Another connection's request fills the queue.
        let (reply, _) = mpsc::sync_channel(1);
        tx.try_send(Job {
            work: validate(),
            payload: "{}".to_string(),
            seq: 99,
            conn: 1,
            enqueued: Instant::now(),
            reply,
        })
        .unwrap();
        let (_client, mut conn) = conn(&shared, &tx);
        assert!(conn.admit(validate(), "{}".to_string()));
        let out = String::from_utf8(conn.out.clone()).unwrap();
        assert!(out.contains("\"kind\":\"busy\""), "{out}");
        assert_eq!(conn.in_flight, 0);
        assert_eq!(shared.stats.lock().unwrap().shed, 1);
    }

    #[test]
    fn an_idle_framer_notices_the_shutdown_latch() {
        let (_client, mut framer) = pair(1024);
        let latch = AtomicBool::new(true);
        assert_eq!(framer.next(&latch), FrameEvent::ShuttingDown);
    }
}
