//! Out-of-core chunked input: newline-aligned byte chunks with sequence
//! numbers, claimed dynamically by workers.
//!
//! A [`ChunkSource`] replaces the static newline pre-split as the unit of
//! work distribution. Workers *claim* chunks one at a time — a shared
//! atomic cursor over pre-split descriptors for in-memory input
//! ([`SliceChunks`]), a guarded incremental reader for input larger than
//! RAM ([`ReaderChunks`]) — so a straggler chunk delays only the worker
//! holding it while the rest of the pool keeps draining the queue. Every
//! chunk carries its **sequence number** and the global index of its
//! first line; the engine fuses per-chunk results in sequence order, so
//! the merge contract (and with it FailFast first-error-line selection
//! and `RunReport` determinism) is exactly the static-shard one.
//!
//! Bounded memory: [`ReaderChunks`] hands out owned chunk buffers and
//! takes them back through [`ChunkSource::recycle`], retaining at most a
//! small ring of them. Each worker holds at most one chunk at a time, so
//! peak resident chunk memory is `O(workers × chunk_bytes)` (plus one
//! oversized record, since chunks are never split mid-line) regardless of
//! corpus size.

use crate::shard::chunk_lines;
use std::borrow::Cow;
use std::fmt;
use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default target chunk size for chunked dispatch (1 MiB): large enough
/// to amortise claim-cursor traffic and per-chunk state extraction, small
/// enough that a corpus splits into many stealable units per worker.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// How many chunks per worker the automatic chunk sizing aims for. More
/// chunks means finer-grained stealing (stragglers redistribute better)
/// at the cost of more claim/merge overhead.
pub(crate) const CHUNKS_PER_WORKER: usize = 8;

/// Knobs for chunked (work-stealing / out-of-core) dispatch, orthogonal
/// to the sharding options in
/// [`PipelineOptions`](crate::PipelineOptions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkOptions {
    /// Target chunk size in **bytes**; chunks end at the first newline at
    /// or past the target, so a record longer than the target simply
    /// yields a bigger chunk (records are never split). `0` means
    /// automatic: in-memory inputs aim for [`CHUNKS_PER_WORKER`] chunks
    /// per worker (clamped to `[min_shard_bytes, DEFAULT_CHUNK_BYTES]`),
    /// readers use [`DEFAULT_CHUNK_BYTES`].
    pub chunk_bytes: usize,
    /// Maximum recycled chunk buffers a [`ReaderChunks`] retains
    /// (`0` = one per worker). Live buffers are additionally bounded by
    /// the worker count, since each worker holds at most one chunk.
    pub ring: usize,
    /// Collect per-worker timing
    /// ([`WorkerTiming`](crate::WorkerTiming)): chunks claimed, records,
    /// bytes, busy time and steal counts.
    pub timing: bool,
}

impl ChunkOptions {
    /// An explicit target chunk size in bytes (see
    /// [`chunk_bytes`](Self::chunk_bytes)).
    pub fn with_chunk_bytes(chunk_bytes: usize) -> Self {
        ChunkOptions {
            chunk_bytes,
            ..Default::default()
        }
    }

    /// The chunk target of a reader source: [`chunk_bytes`](Self::chunk_bytes),
    /// or [`DEFAULT_CHUNK_BYTES`] when it is automatic.
    pub fn reader_chunk_bytes(&self) -> usize {
        if self.chunk_bytes > 0 {
            self.chunk_bytes
        } else {
            DEFAULT_CHUNK_BYTES
        }
    }
}

/// One claimed unit of work: a newline-aligned run of whole lines.
#[derive(Debug)]
pub struct Chunk<'a> {
    /// Position of this chunk in the input's chunk sequence; per-chunk
    /// results are fused in `seq` order.
    pub seq: usize,
    /// Global (whole-input) index of the chunk's first line.
    pub first_line: usize,
    /// The chunk's text: borrowed for in-memory sources, owned (and
    /// recyclable) for readers.
    pub text: Cow<'a, str>,
}

/// Why a chunk source stopped producing chunks.
#[derive(Debug)]
pub enum ChunkError {
    /// The underlying reader failed.
    Io {
        /// Sequence number the failed chunk would have had.
        chunk: usize,
        /// The reader's error.
        source: std::io::Error,
    },
    /// The input is not valid UTF-8.
    NotUtf8 {
        /// Zero-based line index where the invalid byte sequence starts.
        line: usize,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Io { chunk, source } => {
                write!(f, "reading input chunk {chunk}: {source}")
            }
            ChunkError::NotUtf8 { line } => {
                write!(f, "input is not valid UTF-8 (at line {})", line + 1)
            }
        }
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChunkError::Io { source, .. } => Some(source),
            ChunkError::NotUtf8 { .. } => None,
        }
    }
}

/// A shared queue of newline-aligned chunks, claimed by workers one at a
/// time. Implementations must be safely claimable from many threads
/// (`Sync`); `next_chunk` takes `&self`.
pub trait ChunkSource: Sync {
    /// Claims the next chunk, `Ok(None)` once the input is exhausted.
    /// Claims are totally ordered by `seq` but workers interleave freely.
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError>;

    /// Returns an owned chunk buffer for reuse after the worker has
    /// drained it. In-memory sources hand out borrowed text and ignore
    /// this.
    fn recycle(&self, _buf: String) {}
}

// ---------------------------------------------------------------------------
// In-memory source
// ---------------------------------------------------------------------------

/// Zero-copy chunk source over an in-memory slice: the input is pre-split
/// into newline-aligned descriptors once, and workers claim them through
/// a shared atomic cursor — the work-stealing replacement for handing
/// each worker one big static shard.
pub struct SliceChunks<'a> {
    chunks: Vec<crate::shard::Shard<'a>>,
    cursor: AtomicUsize,
}

impl<'a> SliceChunks<'a> {
    /// Pre-splits `input` at newline boundaries into chunks of roughly
    /// `target_bytes` each (a record longer than the target gets its own
    /// oversized chunk).
    pub fn new(input: &'a str, target_bytes: usize) -> Self {
        SliceChunks {
            chunks: chunk_lines(input, target_bytes),
            cursor: AtomicUsize::new(0),
        }
    }

    /// How many chunks the input split into.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the input produced no chunks (empty input).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

impl ChunkSource for SliceChunks<'_> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        Ok(self.chunks.get(idx).map(|shard| Chunk {
            seq: idx,
            first_line: shard.first_line,
            text: Cow::Borrowed(shard.text),
        }))
    }
}

// ---------------------------------------------------------------------------
// Out-of-core reader source
// ---------------------------------------------------------------------------

/// Incremental chunk source over any [`BufRead`]: corpora much larger
/// than RAM stream through a bounded ring of reusable chunk buffers.
///
/// Each claim reads whole lines until the buffer reaches the target
/// size (or EOF), so chunks are newline-aligned by construction and the
/// chunk's line count is exact without a rescan. Reads are serialised
/// behind a mutex — the reader is effectively a single producer — while
/// chunk *processing* runs unlocked on the claiming worker.
pub struct ReaderChunks<R> {
    inner: Mutex<ReaderState<R>>,
    chunk_bytes: usize,
    ring: usize,
}

struct ReaderState<R> {
    reader: R,
    pool: Vec<String>,
    seq: usize,
    next_line: usize,
    done: bool,
}

impl<R: BufRead> ReaderChunks<R> {
    /// Wraps `reader`, targeting `chunk_bytes` per chunk and retaining at
    /// most `ring` recycled buffers (both floored at sane minimums).
    pub fn new(reader: R, chunk_bytes: usize, ring: usize) -> Self {
        Self::with_offset(reader, chunk_bytes, ring, 0, 0)
    }

    /// Like [`new`](Self::new) but starting the chunk sequence at
    /// `first_seq` and the global line numbering at `first_line` — the
    /// resume constructor. The caller must have positioned `reader` at
    /// the byte offset where chunk `first_seq` begins (the sum of the
    /// committed chunks' byte lengths); chunk boundaries depend only on
    /// the byte stream and `chunk_bytes`, never the worker count, so the
    /// resumed sequence reproduces the original run's chunks exactly.
    pub fn with_offset(
        reader: R,
        chunk_bytes: usize,
        ring: usize,
        first_seq: usize,
        first_line: usize,
    ) -> Self {
        ReaderChunks {
            inner: Mutex::new(ReaderState {
                reader,
                pool: Vec::new(),
                seq: first_seq,
                next_line: first_line,
                done: false,
            }),
            chunk_bytes: chunk_bytes.max(1),
            ring: ring.max(1),
        }
    }
}

/// `read_line` with `ErrorKind::Interrupted` retried instead of surfaced.
///
/// A signal landing mid-read (`EINTR`) is a transient condition, not data
/// loss: `read_line` appends nothing for the interrupted call, so retrying
/// resumes exactly where the read left off. Std's default `read_until`
/// already swallows `Interrupted` internally, but `BufRead` implementors
/// may override `read_line` (network streams, test doubles, instrumented
/// readers), so the engine guards here rather than trusting every `R` —
/// without this, one stray signal would poison the whole run as a fatal
/// [`ChunkError::Io`].
fn read_line_retrying<R: BufRead>(reader: &mut R, buf: &mut String) -> std::io::Result<usize> {
    loop {
        match reader.read_line(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

impl<R: BufRead + Send> ChunkSource for ReaderChunks<R> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        let mut st = self.inner.lock().unwrap();
        if st.done {
            return Ok(None);
        }
        let mut buf = st.pool.pop().unwrap_or_default();
        buf.clear();
        let first_line = st.next_line;
        let mut lines = 0usize;
        while buf.len() < self.chunk_bytes {
            // `read_line` appends up to and including the next newline and
            // validates UTF-8, so the chunk stays newline-aligned and a
            // bad byte sequence surfaces as a clean diagnostic.
            match read_line_retrying(&mut st.reader, &mut buf) {
                Ok(0) => {
                    st.done = true;
                    break;
                }
                Ok(_) => lines += 1,
                Err(e) => {
                    // Latch exhaustion so the other workers drain out
                    // cleanly while this claim carries the error.
                    st.done = true;
                    return Err(if e.kind() == std::io::ErrorKind::InvalidData {
                        ChunkError::NotUtf8 {
                            line: first_line + lines,
                        }
                    } else {
                        ChunkError::Io {
                            chunk: st.seq,
                            source: e,
                        }
                    });
                }
            }
        }
        if buf.is_empty() {
            if st.pool.len() < self.ring {
                st.pool.push(buf);
            }
            return Ok(None);
        }
        st.next_line += lines;
        let seq = st.seq;
        st.seq += 1;
        Ok(Some(Chunk {
            seq,
            first_line,
            text: Cow::Owned(buf),
        }))
    }

    fn recycle(&self, mut buf: String) {
        // A chunk that swallowed one giant record would pin its capacity
        // forever; let oversized buffers drop instead.
        if buf.capacity() > self.chunk_bytes.saturating_mul(2) {
            return;
        }
        let mut st = self.inner.lock().unwrap();
        if st.pool.len() < self.ring {
            buf.clear();
            st.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drain<S: ChunkSource>(source: &S) -> Vec<(usize, usize, String)> {
        let mut out = Vec::new();
        while let Some(chunk) = source.next_chunk().unwrap() {
            out.push((chunk.seq, chunk.first_line, chunk.text.to_string()));
            if let Cow::Owned(buf) = chunk.text {
                source.recycle(buf);
            }
        }
        out
    }

    fn corpus(n: usize) -> String {
        (0..n).map(|i| format!("{{\"id\": {i}}}\n")).collect()
    }

    #[test]
    fn slice_and_reader_chunks_agree() {
        for input in [
            corpus(100),
            corpus(1),
            "no trailing newline".to_string(),
            "a\n\n\nb".to_string(),
            String::new(),
        ] {
            for target in [1usize, 7, 64, 1 << 20] {
                let slice = SliceChunks::new(&input, target);
                let from_slice = drain(&slice);
                let reader = ReaderChunks::new(Cursor::new(input.as_bytes()), target, 2);
                let from_reader = drain(&reader);
                assert_eq!(from_slice, from_reader, "target={target}");
                let rejoined: String = from_slice.iter().map(|(_, _, t)| t.as_str()).collect();
                assert_eq!(rejoined, input);
                // Sequence numbers are dense and first_line is cumulative.
                let mut line = 0usize;
                for (i, (seq, first_line, text)) in from_slice.iter().enumerate() {
                    assert_eq!(*seq, i);
                    assert_eq!(*first_line, line);
                    line += text.lines().count();
                }
            }
        }
    }

    #[test]
    fn oversized_record_gets_its_own_chunk() {
        let long = format!("{{\"blob\": \"{}\"}}\n", "x".repeat(4096));
        let input = format!("{{\"a\": 1}}\n{long}{{\"b\": 2}}\n");
        let source = SliceChunks::new(&input, 16);
        let chunks = drain(&source);
        assert!(chunks.iter().any(|(_, _, t)| t.len() > 4096));
        // Every chunk is newline-terminated (no record split).
        for (_, _, text) in &chunks {
            assert!(text.ends_with('\n'));
        }
        let rejoined: String = chunks.iter().map(|(_, _, t)| t.as_str()).collect();
        assert_eq!(rejoined, input);
    }

    #[test]
    fn reader_rejects_non_utf8_cleanly() {
        let mut bytes = b"{\"ok\": 1}\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let reader = ReaderChunks::new(Cursor::new(bytes), 4, 2);
        // First claim may carry the valid line or the error depending on
        // the target; drain until the error surfaces.
        let mut saw_error = None;
        loop {
            match reader.next_chunk() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    saw_error = Some(e);
                    break;
                }
            }
        }
        match saw_error {
            Some(ChunkError::NotUtf8 { line }) => assert_eq!(line, 1),
            other => panic!("expected NotUtf8, got {other:?}"),
        }
        // After an error the source reports exhaustion, not a hang.
        assert!(matches!(reader.next_chunk(), Ok(None)));
    }

    /// A reader whose `read_line` fails with `Interrupted` on every other
    /// call — the EINTR shape `read_line_retrying` must absorb.
    struct FlakyReader {
        inner: Cursor<Vec<u8>>,
        calls: usize,
    }

    impl std::io::Read for FlakyReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl BufRead for FlakyReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt)
        }

        fn read_line(&mut self, buf: &mut String) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "signal landed mid-read",
                ));
            }
            self.inner.read_line(buf)
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        let input = corpus(50);
        for target in [1usize, 16, 1 << 20] {
            let flaky = FlakyReader {
                inner: Cursor::new(input.clone().into_bytes()),
                calls: 0,
            };
            let reader = ReaderChunks::new(flaky, target, 2);
            let chunks = drain(&reader);
            let rejoined: String = chunks.iter().map(|(_, _, t)| t.as_str()).collect();
            assert_eq!(rejoined, input, "target={target}");
        }
    }

    #[test]
    fn non_interrupted_errors_still_surface() {
        struct BrokenReader;
        impl std::io::Read for BrokenReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        impl BufRead for BrokenReader {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn consume(&mut self, _amt: usize) {}
        }
        let reader = ReaderChunks::new(BrokenReader, 8, 1);
        match reader.next_chunk() {
            Err(ChunkError::Io { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(matches!(reader.next_chunk(), Ok(None)));
    }

    #[test]
    fn recycle_bounds_the_pool() {
        let reader = ReaderChunks::new(Cursor::new(corpus(10).into_bytes()), 8, 1);
        reader.recycle(String::with_capacity(8));
        reader.recycle(String::with_capacity(8));
        assert_eq!(reader.inner.lock().unwrap().pool.len(), 1);
        // Oversized buffers are dropped, not retained.
        let reader = ReaderChunks::new(Cursor::new(Vec::new()), 8, 4);
        reader.recycle(String::with_capacity(1024));
        assert_eq!(reader.inner.lock().unwrap().pool.len(), 0);
    }
}
