//! # jsonx-serve
//!
//! The resident schema service: a long-running daemon exposing the
//! workspace's validate / infer / translate stages over a line-oriented
//! protocol on a TCP socket — the "compile once, amortise across millions
//! of requests" runtime the ROADMAP's north star calls for.
//!
//! Robustness is the headline, not an afterthought:
//!
//! * **Epoch-swapped schema cache** ([`SchemaCache`]): the schema is
//!   compiled once into the arena IR and shared behind an `Arc`; the
//!   admin `RELOAD` verb recompiles off to the side and atomically swaps
//!   the `Arc` in, so in-flight requests finish against the epoch they
//!   started with and a failed recompile keeps the old epoch serving.
//! * **Bounded queue with explicit load-shedding**: requests enter a
//!   fixed-depth queue; when it is full the client gets a structured
//!   `busy` response immediately instead of the daemon buffering without
//!   bound.
//! * **Per-request deadlines and [`ParseLimits`]**: a request that waited
//!   in the queue past its deadline is answered `deadline-exceeded`
//!   without being parsed, and oversized / too-deep / string-bomb
//!   payloads are rejected with the same stable error labels the batch
//!   pipeline uses — a hostile payload can never wedge a worker.
//! * **Per-connection panic isolation**: each request runs under
//!   `catch_unwind` (the engine's machinery, reporting through the same
//!   [`ShardPanic`](jsonx_pipeline::ShardPanic) shape); a poisoned
//!   request closes its own connection and the daemon keeps serving.
//! * **Pipelined connections**: a connection admits every frame it has
//!   already read, up to its fair share of the queue, and answers them in
//!   request order with one socket write per drained batch.
//! * **Graceful shutdown**: `SHUTDOWN` stops the acceptor, lets every
//!   connection answer the requests it has in flight, drains the queue,
//!   and emits a final aggregated [`FinalReport`] whose embedded
//!   [`RunReport`](jsonx_pipeline::RunReport) reconciles every accepted
//!   request against every response sent.
//!
//! The protocol is deliberately minimal — one request per line, one JSON
//! response line back, in request order (see [`protocol`]) — so the
//! fault-injection harness can drive it from a few lines of test code and
//! misbehaving clients are easy to write on purpose.

mod cache;
mod conn;
mod engine;
pub mod protocol;
mod stats;

pub use cache::{SchemaCache, SchemaEpoch};
pub use protocol::{DataOp, Request, Response};
pub use stats::FinalReport;

use engine::Job;
use jsonx_syntax::ParseLimits;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Default bounded queue depth.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;
/// Default concurrent-connection cap.
pub const DEFAULT_MAX_CONNS: usize = 64;
/// Default budget for one frame to finish arriving once its first byte
/// has (the slow-loris guard).
pub const DEFAULT_FRAME_BUDGET: Duration = Duration::from_secs(2);
/// Default frame cap when `limits.max_input_bytes` is unset.
pub const DEFAULT_FRAME_CAP: usize = 8 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub listen: String,
    /// Schema document to compile and serve; `None` runs schema-less
    /// (VALIDATE answers `no-schema`, INFER / TRANSLATE still work).
    pub schema_path: Option<PathBuf>,
    /// Bounded request-queue depth (`0` = [`DEFAULT_QUEUE_DEPTH`]).
    pub queue_depth: usize,
    /// Worker threads (`0` = auto, like the pipeline engine).
    pub workers: usize,
    /// Per-request queue-wait deadline; a request still queued past this
    /// is answered `deadline-exceeded` without being parsed.
    pub deadline: Option<Duration>,
    /// Concurrent-connection cap (`0` = [`DEFAULT_MAX_CONNS`]); excess
    /// connections get one `busy` line and are closed.
    pub max_conns: usize,
    /// Per-request resource limits, enforced exactly like the batch
    /// pipeline's guarded paths.
    pub limits: ParseLimits,
    /// Budget for one frame to finish arriving once its first byte has;
    /// slower writers are cut off with `slow-frame`.
    pub frame_budget: Duration,
    /// Enable the deterministic fault verbs (`BOOM`, `SLEEP`) the
    /// fault-injection harness uses. Off by default.
    pub debug_faults: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            schema_path: None,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            workers: 0,
            deadline: None,
            max_conns: DEFAULT_MAX_CONNS,
            limits: ParseLimits::default(),
            frame_budget: DEFAULT_FRAME_BUDGET,
            debug_faults: false,
        }
    }
}

impl ServeConfig {
    /// The hard cap on one frame's bytes: the record limit plus slack for
    /// the verb, or [`DEFAULT_FRAME_CAP`] when no record limit is set.
    pub(crate) fn frame_cap(&self) -> usize {
        match self.limits.max_input_bytes {
            Some(limit) => limit.saturating_add(4096),
            None => DEFAULT_FRAME_CAP,
        }
    }

    pub(crate) fn effective_queue_depth(&self) -> usize {
        if self.queue_depth == 0 {
            DEFAULT_QUEUE_DEPTH
        } else {
            self.queue_depth
        }
    }

    pub(crate) fn effective_max_conns(&self) -> usize {
        if self.max_conns == 0 {
            DEFAULT_MAX_CONNS
        } else {
            self.max_conns
        }
    }

    pub(crate) fn effective_workers(&self) -> usize {
        jsonx_pipeline::resolve_workers(self.workers)
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// The listen socket could not be bound.
    Bind(std::io::Error),
    /// The schema file could not be read.
    SchemaIo(PathBuf, std::io::Error),
    /// The schema file did not parse or compile.
    SchemaInvalid(PathBuf, String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "binding listen socket: {e}"),
            ServeError::SchemaIo(p, e) => write!(f, "reading schema {}: {e}", p.display()),
            ServeError::SchemaInvalid(p, msg) => {
                write!(f, "compiling schema {}: {msg}", p.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// State shared by the acceptor, every connection thread, and the worker
/// pool.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) cache: SchemaCache,
    pub(crate) stats: Mutex<stats::Counters>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) next_seq: AtomicUsize,
    /// Connections being handled right now; a connection's share of the
    /// queue is the queue depth divided by this.
    pub(crate) live_conns: AtomicUsize,
    pub(crate) local_addr: Mutex<Option<SocketAddr>>,
}

impl Shared {
    pub(crate) fn next_seq(&self) -> usize {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Flips the shutdown latch and pokes the blocking acceptor awake
    /// with a throwaway self-connection.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = *self.local_addr.lock().unwrap() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        }
    }
}

/// A bound (but not yet running) daemon.
///
/// [`bind`](Server::bind) compiles the schema and binds the socket so
/// configuration errors surface before the caller commits;
/// [`run`](Server::run) blocks serving requests until a `SHUTDOWN` verb
/// arrives, then drains and returns the final [`FinalReport`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    tx: SyncSender<Job>,
    rx: Arc<Mutex<Receiver<Job>>>,
}

impl Server {
    /// Compiles the schema (if any), binds the listen socket, and sets up
    /// the bounded queue. Nothing is served until [`run`](Server::run).
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let cache = SchemaCache::load(config.schema_path.clone())?;
        let listener = TcpListener::bind(&config.listen).map_err(ServeError::Bind)?;
        let local = listener.local_addr().ok();
        let (tx, rx) = mpsc::sync_channel(config.effective_queue_depth());
        let shared = Arc::new(Shared {
            config,
            cache,
            stats: Mutex::new(stats::Counters::default()),
            shutdown: AtomicBool::new(false),
            next_seq: AtomicUsize::new(0),
            live_conns: AtomicUsize::new(0),
            local_addr: Mutex::new(local),
        });
        Ok(Server {
            listener,
            shared,
            tx,
            rx: Arc::new(Mutex::new(rx)),
        })
    }

    /// The bound listen address (useful with port `0`).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr().ok()
    }

    /// Serves until a `SHUTDOWN` verb arrives: accepts connections,
    /// spawns one handler thread per connection, then drains — the
    /// acceptor stops, connection threads answer what they have in
    /// flight, the worker pool empties the queue — and returns the
    /// aggregated final report.
    pub fn run(self) -> FinalReport {
        let Server {
            listener,
            shared,
            tx,
            rx,
        } = self;
        let workers: Vec<_> = (0..shared.config.effective_workers())
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || engine::worker_loop(&shared, &rx))
            })
            .collect();
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let max_conns = shared.config.effective_max_conns();
        let mut next_conn = 0usize;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            conns.retain(|h| !h.is_finished());
            if conns.len() >= max_conns {
                shared.stats.lock().unwrap().refused += 1;
                conn::refuse(stream);
                continue;
            }
            shared.stats.lock().unwrap().connections += 1;
            let conn_id = next_conn;
            next_conn += 1;
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            shared.live_conns.fetch_add(1, Ordering::Relaxed);
            conns.push(std::thread::spawn(move || {
                conn::handle_conn(&shared, &tx, stream, conn_id);
                shared.live_conns.fetch_sub(1, Ordering::Relaxed);
            }));
        }
        // Drain: the acceptor's sender drops first, each connection
        // thread notices the latch (or finishes its last frame) and drops
        // its clone, and only then does the workers' recv() run dry —
        // after the queue has fully emptied.
        drop(tx);
        for h in conns {
            let _ = h.join();
        }
        for h in workers {
            let _ = h.join();
        }
        let counters = std::mem::take(&mut *shared.stats.lock().unwrap());
        stats::FinalReport::from_counters(counters, shared.cache.snapshot().epoch)
    }
}
