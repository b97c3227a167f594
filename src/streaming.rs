//! Streaming pipeline stages over record collections: inference,
//! validation, combined infer+validate, and schema-driven translation.
//!
//! Every parallel entry point here is a thin [`ShardFold`] adapter over
//! the generic sharded engine of [`jsonx_pipeline`]: newline-boundary
//! sharding, scoped worker threads, shard-order fusion, first-error-line
//! selection. Since the decoder-seam refactor the stages are also
//! **source-agnostic**: each is generic over a [`RecordDecoder`]
//! (NDJSON via [`JsonDecoder`], the structural fast path via the crate-private
//! `FastJsonDecoder`, CSV via [`jsonx_syntax::CsvDecoder`], …), so the
//! engine's work stealing, fault tolerance and out-of-core layers never
//! assume JSON — the `*_decoded` entry points expose this directly. The
//! stages differ only in their per-worker state and merge:
//!
//! * [`infer_streaming_parallel`] — a [`StreamTyper`] per worker, types
//!   fused with the §4.1 monoid (commutative + associative, `Bottom`
//!   unit), so every worker count reproduces the sequential — and DOM —
//!   result bit for bit.
//! * [`validate_streaming_parallel`] — a compiled fail-fast
//!   [`FastValidator`](jsonx_schema::FastValidator) per worker, per-line
//!   verdict vectors concatenated in shard order.
//! * [`infer_validate_streaming_parallel`] — the combined single pass:
//!   **one tokenisation** per line feeds both the typer and the
//!   validator ([`StreamTyper::type_and_build_decoded`] builds the DOM
//!   value for the validator from the same event walk that types the
//!   line).
//! * [`translate_streaming_parallel`] — §5's schema-driven translation:
//!   per-shard Arrow-like columnar batches
//!   ([`ShredStream`](jsonx_translate::ShredStream)), concatenated in
//!   shard order into the batch a DOM
//!   [`Shredder::shred`](jsonx_translate::Shredder::shred) would build.
//!
//! The massive-collection setting of §4.1 is exactly where building a
//! [`Value`](jsonx_data::Value) per document hurts: the map step only
//! needs the *types*. [`infer_streaming`] fuses each document's type
//! directly from [`RawEventParser`] events, with memory bounded by
//! document depth rather than document size. Three things keep the
//! per-document allocation budget near zero:
//!
//! - events borrow escape-free keys and strings from the input
//!   ([`RawEvent`]'s `Cow` payloads), so scalar strings never allocate —
//!   typing only needs their *kind*;
//! - field names are interned per [`StreamTyper`]: a repeated key costs an
//!   `Arc` refcount bump instead of a fresh `String`;
//! - the container frame stack is reused across documents, so steady-state
//!   typing of uniform documents performs no stack (re)allocation at all.

use crate::fastpath::FastJsonDecoder;
use jsonx_core::{fuse, Equivalence, JType};
use jsonx_core::{ArrayType, FieldName, FieldType, RecordType};
use jsonx_data::Value;
use jsonx_pipeline::{
    merge_line_results, run_lines_stealing, run_source_controlled, ChunkError, ChunkOptions,
    ErrorPolicy, ErrorSummary, ReaderChunks, RecordDiagnostic, RunControl, RunReport, ShardFold,
    ShardPanic,
};
use jsonx_schema::{CompiledSchema, FastValidator, ValidatorOptions};
use jsonx_syntax::{
    EventReceiver, JsonDecoder, ParseError, ParseErrorKind, ParseLimits, RawEvent, RawEventParser,
    RecordDecoder, RecordLimit, Tee, ValueBuilder,
};
use jsonx_translate::{ColumnarBatch, ShredError, ShredStream, Shredder};
use std::collections::HashSet;

/// Options for the byte-sharded streaming stages — the shared
/// [`PipelineOptions`](jsonx_pipeline::PipelineOptions) of
/// `jsonx-pipeline`, kept under this crate's historical name.
pub use jsonx_pipeline::PipelineOptions as StreamingOptions;

/// A reusable event-stream typing engine.
///
/// One `StreamTyper` types many documents in sequence: its frame stack and
/// field-name interner persist across [`type_document`](Self::type_document)
/// calls. Workers in [`infer_streaming_parallel`] each own one.
pub struct StreamTyper {
    equiv: Equivalence,
    limits: ParseLimits,
    stack: Vec<Frame>,
    interner: HashSet<FieldName>,
}

/// The typing logic as an [`EventReceiver`]: splits mutable borrows of a
/// [`StreamTyper`]'s frame stack and interner so any
/// [`RecordDecoder`]'s event stream — JSON, CSV, whatever comes next —
/// can drive the same §4.1 type fusion. Typing is infallible; decode
/// errors belong to the decoder, and on error the abandoned sink's frames
/// are cleared by the typer.
struct TypeSink<'t> {
    equiv: Equivalence,
    stack: &'t mut Vec<Frame>,
    interner: &'t mut HashSet<FieldName>,
    result: Option<JType>,
}

impl<'t> TypeSink<'t> {
    fn new(
        equiv: Equivalence,
        stack: &'t mut Vec<Frame>,
        interner: &'t mut HashSet<FieldName>,
    ) -> Self {
        stack.clear();
        TypeSink {
            equiv,
            stack,
            interner,
            result: None,
        }
    }

    /// Returns the interned name for `key`, allocating only on first sight.
    fn intern(&mut self, key: &str) -> FieldName {
        match self.interner.get(key) {
            Some(name) => name.clone(),
            None => {
                let name = FieldName::from(key);
                self.interner.insert(name.clone());
                name
            }
        }
    }

    fn attach(&mut self, ty: JType) {
        match self.stack.last_mut() {
            Some(Frame::Record {
                fields,
                pending_key,
            }) => {
                let key = pending_key.take().expect("key precedes value");
                // Duplicate keys resolve in `Frame::finish` (last wins);
                // appending here keeps attachment O(1) per field.
                fields.push((key, FieldType { ty, presence: 1 }));
            }
            Some(Frame::Array { item, len }) => {
                let current = std::mem::replace(item, JType::Bottom);
                *item = fuse(current, ty, self.equiv);
                *len += 1;
            }
            None => self.result = Some(ty),
        }
    }

    /// The typed document ([`JType::Bottom`] when no value event arrived).
    fn finish(self) -> JType {
        self.result.unwrap_or(JType::Bottom)
    }
}

impl EventReceiver for TypeSink<'_> {
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => self.stack.push(Frame::Record {
                fields: Vec::new(),
                pending_key: None,
            }),
            RawEvent::StartArray => self.stack.push(Frame::Array {
                item: JType::Bottom,
                len: 0,
            }),
            RawEvent::EndObject | RawEvent::EndArray => {
                let frame = self.stack.pop().expect("balanced events");
                let ty = frame.finish();
                self.attach(ty);
            }
            RawEvent::Key(k) => {
                let name = self.intern(k);
                if let Some(Frame::Record { pending_key, .. }) = self.stack.last_mut() {
                    *pending_key = Some(name);
                }
            }
            RawEvent::Null => self.attach(JType::Null { count: 1 }),
            RawEvent::Bool(_) => self.attach(JType::Bool { count: 1 }),
            RawEvent::Num(n) if n.is_integer() => self.attach(JType::Int { count: 1 }),
            RawEvent::Num(_) => self.attach(JType::Float { count: 1 }),
            RawEvent::Str(_) => self.attach(JType::Str { count: 1 }),
        }
    }
}

impl StreamTyper {
    /// Creates a typer for the given equivalence.
    pub fn new(equiv: Equivalence) -> Self {
        StreamTyper {
            equiv,
            limits: ParseLimits::default(),
            stack: Vec::new(),
            interner: HashSet::new(),
        }
    }

    /// Replaces the per-record resource limits enforced on the event
    /// parser underneath (depth, record bytes, string bytes).
    pub fn with_limits(mut self, limits: ParseLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Types one document from its event stream without building a DOM.
    pub fn type_document(&mut self, input: &[u8]) -> Result<JType, ParseError> {
        let limits = self.limits;
        let outcome = {
            let mut sink = TypeSink::new(self.equiv, &mut self.stack, &mut self.interner);
            let mut parser = RawEventParser::new(input).with_limits(limits);
            loop {
                match parser.next_event() {
                    Ok(Some(ev)) => sink.event(&ev),
                    Ok(None) => break Ok(sink.finish()),
                    Err(e) => break Err(e),
                }
            }
        };
        outcome.inspect_err(|_| {
            // Leave the typer reusable after malformed input.
            self.stack.clear();
        })
    }

    /// Types one document **and** rebuilds its [`Value`] from the same
    /// event walk — one tokenisation feeding two consumers. The built
    /// value is identical to [`jsonx_syntax::parse`] on the same bytes,
    /// which is what lets the combined infer+validate pass probe the
    /// compiled validator without re-parsing.
    pub fn type_and_build(&mut self, input: &[u8]) -> Result<(JType, Value), ParseError> {
        let limits = self.limits;
        let mut builder = ValueBuilder::new();
        let outcome = {
            let mut sink = TypeSink::new(self.equiv, &mut self.stack, &mut self.interner);
            let mut parser = RawEventParser::new(input).with_limits(limits);
            loop {
                match parser.next_event() {
                    Ok(Some(ev)) => {
                        builder.event(&ev);
                        sink.event(&ev);
                    }
                    Ok(None) => break Ok(sink.finish()),
                    Err(e) => break Err(e),
                }
            }
        };
        match outcome {
            Ok(ty) => Ok((ty, builder.take())),
            Err(e) => {
                self.stack.clear();
                Err(e)
            }
        }
    }

    /// Types one record through an arbitrary [`RecordDecoder`] — the
    /// source-agnostic face of [`type_document`](Self::type_document).
    /// With [`JsonDecoder`] this is event-for-event the JSON path; with
    /// any other decoder the same fusion runs over whatever events the
    /// source produces.
    pub fn type_decoded<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
    ) -> Result<JType, ParseError> {
        let outcome = {
            let mut sink = TypeSink::new(self.equiv, &mut self.stack, &mut self.interner);
            decoder
                .decode_events(scratch, record, &mut sink)
                .map(|()| sink.finish())
        };
        outcome.inspect_err(|_| {
            self.stack.clear();
        })
    }

    /// [`type_and_build`](Self::type_and_build) through an arbitrary
    /// [`RecordDecoder`]: one decode feeds the typer and the DOM builder.
    pub fn type_and_build_decoded<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
    ) -> Result<(JType, Value), ParseError> {
        let mut builder = ValueBuilder::new();
        let outcome = {
            let mut sink = TypeSink::new(self.equiv, &mut self.stack, &mut self.interner);
            decoder
                .decode_events(scratch, record, &mut Tee(&mut builder, &mut sink))
                .map(|()| sink.finish())
        };
        match outcome {
            Ok(ty) => Ok((ty, builder.take())),
            Err(e) => {
                self.stack.clear();
                Err(e)
            }
        }
    }
}

enum Frame {
    Record {
        fields: Vec<(FieldName, FieldType)>,
        pending_key: Option<FieldName>,
    },
    Array {
        item: JType,
        len: u64,
    },
}

impl Frame {
    fn finish(self) -> JType {
        match self {
            Frame::Record { mut fields, .. } => {
                // Sort is stable, so among equal names insertion order
                // survives; dedup then keeps the *last* occurrence —
                // mirroring the DOM parser — in one linear pass (the old
                // per-key `retain` was quadratic in the duplicate case).
                fields.sort_by(|(a, _), (b, _)| a.cmp(b));
                fields.dedup_by(|next, prev| {
                    if next.0 == prev.0 {
                        std::mem::swap(next, prev);
                        true
                    } else {
                        false
                    }
                });
                JType::Record(RecordType { fields, count: 1 })
            }
            Frame::Array { item, len } => JType::Array(ArrayType {
                item: Box::new(item),
                count: 1,
                total_items: len,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-tolerant execution layer
// ---------------------------------------------------------------------------

/// Why one record was rejected by a streaming stage.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordIssue {
    /// The record is not well-formed JSON, or tripped a [`ParseLimits`]
    /// guard.
    Parse(ParseError),
    /// The record parsed but is not a JSON object (translation shreds
    /// records only).
    NotARecord,
}

impl RecordIssue {
    /// Stable machine-readable label, the grouping key of
    /// [`ErrorSummary::by_kind`] and the `"kind"` field of quarantine
    /// diagnostics.
    pub fn kind_label(&self) -> &'static str {
        match self {
            RecordIssue::Parse(e) => e.kind.label(),
            RecordIssue::NotARecord => "not-a-record",
        }
    }

    /// Byte offset of the error within the record (0 for shape errors).
    pub fn offset(&self) -> usize {
        match self {
            RecordIssue::Parse(e) => e.offset,
            RecordIssue::NotARecord => 0,
        }
    }
}

impl std::fmt::Display for RecordIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordIssue::Parse(e) => write!(f, "{e}"),
            RecordIssue::NotARecord => write!(f, "not a JSON object"),
        }
    }
}

/// How a guarded streaming run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// Under [`ErrorPolicy::FailFast`]: the first rejected record.
    Record {
        /// Zero-based record (line) index.
        record: usize,
        /// Why it was rejected.
        issue: RecordIssue,
    },
    /// Under a tolerant policy: the rejection count exceeded the policy's
    /// `max_errors` bound.
    TooManyErrors {
        /// The configured bound.
        limit: usize,
        /// Rejections seen before the run gave up (at least `limit + 1`;
        /// shards stop counting once the bound trips, so this is a lower
        /// bound on the corpus total).
        seen: usize,
    },
    /// Under [`ErrorPolicy::FailFast`]: a worker panicked, with shard
    /// provenance.
    ShardPanicked(ShardPanic),
    /// The input itself could not be read (out-of-core mode only), or a
    /// journal or output file failed. No error policy applies — without
    /// readable bytes there is no trustworthy record numbering to skip
    /// past — so any partial results are discarded.
    Input(String),
    /// The input is not valid UTF-8 (out-of-core mode only). Malformed
    /// data rather than a read failure, but like [`StreamError::Input`]
    /// no error policy applies and partial results are discarded.
    NotUtf8 {
        /// Zero-based line index where the invalid byte sequence starts.
        line: usize,
    },
    /// A journaled run was stopped gracefully (signal, operator) after
    /// committing a resumable prefix to its checkpoint journal. Not an
    /// input fault: rerunning with `--resume` continues from the last
    /// committed chunk.
    Interrupted,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Record { record, issue } => write!(f, "line {}: {issue}", record + 1),
            StreamError::TooManyErrors { limit, seen } => {
                write!(f, "too many rejected records: {seen} seen, limit {limit}")
            }
            StreamError::ShardPanicked(p) => write!(f, "{p}"),
            StreamError::Input(msg) => write!(f, "{msg}"),
            StreamError::NotUtf8 { line } => {
                write!(f, "input is not valid UTF-8 (at line {})", line + 1)
            }
            StreamError::Interrupted => {
                write!(f, "interrupted; committed progress is resumable")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Fault-tolerance settings for the guarded streaming entry points,
/// orthogonal to the sharding knobs in [`StreamingOptions`].
#[derive(Debug, Clone, Copy)]
pub struct FaultOptions {
    /// What to do with rejected records.
    pub policy: ErrorPolicy,
    /// Retain **every** reject's diagnostic *and raw line* in the report —
    /// required when a quarantine sink will write them back out.
    pub keep_rejects: bool,
    /// Per-record resource limits (depth, record bytes, string bytes).
    pub limits: ParseLimits,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            policy: ErrorPolicy::FailFast,
            keep_rejects: false,
            limits: ParseLimits::default(),
        }
    }
}

impl FaultOptions {
    /// How many rejected-record diagnostics a run retains.
    pub(crate) fn sample_cap(&self) -> usize {
        if self.keep_rejects {
            usize::MAX
        } else {
            self.policy.sample_cap()
        }
    }
}

/// One streaming stage's record-level logic, with the error handling
/// factored out: [`FaultFold`] supplies blank-line skipping, the central
/// record-size guard, policy bookkeeping, and shard merging, so a stage
/// only says what to do with one record and how to fuse shard outputs.
pub(crate) trait RecordStage: Sync {
    /// Per-worker scratch state.
    type State;
    /// Per-shard result.
    type Out: Send;

    fn init(&self) -> Self::State;
    /// Processes one non-blank record; `Err` rejects it (the state must be
    /// left reusable for the next record).
    fn record(&self, state: &mut Self::State, line: &str, record: usize)
        -> Result<(), RecordIssue>;
    fn finish(&self, state: Self::State) -> Self::Out;
    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out;
    /// Extracts the current chunk's output, leaving the state ready for
    /// the worker's next claimed chunk (see [`ShardFold::take`]). Stages
    /// override this so expensive machinery (interners, validators,
    /// column builders) survives across chunks.
    fn take(&self, state: &mut Self::State) -> Self::Out {
        self.finish(std::mem::replace(state, self.init()))
    }
}

/// Why a shard stopped feeding records early.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Halt {
    /// Fail-fast: the shard's first rejected record.
    Fault { record: usize, issue: RecordIssue },
    /// Tolerant: the shard alone exceeded the rejection bound.
    TooMany,
}

/// What one shard yields: the stage output plus the fault account.
pub(crate) struct ShardYield<T> {
    pub(crate) out: T,
    pub(crate) records: usize,
    pub(crate) errors: ErrorSummary,
    pub(crate) halt: Option<Halt>,
}

pub(crate) struct FaultState<T> {
    inner: T,
    records: usize,
    errors: ErrorSummary,
    halt: Option<Halt>,
}

/// The adapter that runs a [`RecordStage`] under an error policy on the
/// sharded engine.
///
/// The policy-derived values every record consults (`input_cap`,
/// `tolerates`, `sample_cap`, `max_errors`) are hoisted out of the inner
/// loop at construction: they are constant for a run, and deriving them
/// per record put measurable per-record overhead on the guarded paths.
pub(crate) struct FaultFold<'s, S> {
    stage: &'s S,
    fault: FaultOptions,
    input_cap: Option<usize>,
    tolerates: bool,
    sample_cap: usize,
    max_errors: Option<usize>,
}

impl<'s, S> FaultFold<'s, S> {
    pub(crate) fn new(stage: &'s S, fault: FaultOptions) -> Self {
        FaultFold {
            stage,
            input_cap: fault.limits.max_input_bytes,
            tolerates: fault.policy.tolerates(),
            sample_cap: fault.sample_cap(),
            max_errors: fault.policy.max_errors(),
            fault,
        }
    }
}

impl<'s, S: RecordStage> ShardFold<str> for FaultFold<'s, S> {
    type State = FaultState<S::State>;
    type Out = ShardYield<S::Out>;

    fn init(&self) -> Self::State {
        FaultState {
            inner: self.stage.init(),
            records: 0,
            errors: ErrorSummary::new(),
            halt: None,
        }
    }

    fn feed(&self, state: &mut Self::State, line: &str, record: usize) {
        if state.halt.is_some() || line.trim().is_empty() {
            return;
        }
        state.records += 1;
        // The record-size guard runs centrally so every stage gets it —
        // including the DOM-parsing ones whose parser has no byte limits —
        // and an oversized line is rejected before any parsing starts.
        let issue = match self.input_cap {
            Some(limit) if line.len() > limit => Some(RecordIssue::Parse(ParseError::at(
                ParseErrorKind::LimitExceeded(RecordLimit::InputBytes),
                line.as_bytes(),
                limit,
            ))),
            _ => self.stage.record(&mut state.inner, line, record).err(),
        };
        let Some(issue) = issue else { return };
        if !self.tolerates {
            state.halt = Some(Halt::Fault { record, issue });
            return;
        }
        let diag = RecordDiagnostic {
            record,
            offset: issue.offset(),
            kind: issue.kind_label(),
            message: issue.to_string(),
            raw: self.fault.keep_rejects.then(|| line.to_string()),
        };
        state.errors.push(diag, self.sample_cap);
        if let Some(max) = self.max_errors {
            // Shard-local short-circuit: if this shard alone is over the
            // bound the merged total is too, so stop paying for the rest.
            if state.errors.total > max {
                state.halt = Some(Halt::TooMany);
            }
        }
    }

    fn finish(&self, state: Self::State) -> Self::Out {
        ShardYield {
            out: self.stage.finish(state.inner),
            records: state.records,
            errors: state.errors,
            halt: state.halt,
        }
    }

    fn take(&self, state: &mut Self::State) -> Self::Out {
        // Per-chunk extraction on the work-stealing path: the stage's
        // reusable machinery survives in `inner` while the fault account
        // resets. A halt moves into the chunk's yield — the halted chunk
        // already stopped feeding, and the worker's next chunk starts
        // clean, exactly like a fresh static shard would.
        ShardYield {
            out: self.stage.take(&mut state.inner),
            records: std::mem::take(&mut state.records),
            errors: std::mem::take(&mut state.errors),
            halt: state.halt.take(),
        }
    }

    fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
        // Lowest-record fault wins across shards — the error a sequential
        // scan would have hit first (TooMany only meets TooMany, because a
        // policy is uniform across one run).
        let halt = match (left.halt, right.halt) {
            (None, h) | (h, None) => h,
            (Some(Halt::Fault { record: a, issue }), Some(Halt::Fault { record: b, .. }))
                if a <= b =>
            {
                Some(Halt::Fault { record: a, issue })
            }
            (Some(_), Some(h)) => Some(h),
        };
        left.errors.merge(right.errors, self.sample_cap);
        ShardYield {
            out: self.stage.merge(left.out, right.out),
            records: left.records + right.records,
            errors: left.errors,
            halt,
        }
    }
}

/// Where a streaming stage reads its NDJSON records from.
///
/// `Slice` is the historical in-memory path, dispatched as zero-copy
/// work-stealing chunks; `Reader` streams out-of-core through a bounded
/// ring of chunk buffers, so corpora much larger than RAM process with
/// peak residency around `workers × chunk_bytes`. The type parameter
/// defaults to [`std::io::Empty`] so slice-only callers can write
/// `StreamSource::slice(text)` without naming a reader type.
pub enum StreamSource<'a, R = std::io::Empty> {
    /// An in-memory NDJSON slice.
    Slice(&'a str),
    /// Any buffered reader (file, socket, decompressor).
    Reader(R),
}

impl<'a> StreamSource<'a> {
    /// An in-memory source with the reader type pinned to
    /// [`std::io::Empty`] — avoids type-annotation noise at call sites
    /// that never stream.
    pub fn slice(ndjson: &'a str) -> Self {
        StreamSource::Slice(ndjson)
    }
}

/// What a resumed journaled run already committed: the fused output of
/// its committed chunks, their record and rejection account, and where
/// the input's chunk sequence continues.
pub(crate) struct Prefix<T> {
    pub(crate) out: Option<T>,
    pub(crate) chunks: usize,
    pub(crate) lines: usize,
    pub(crate) records: usize,
    pub(crate) errors: ErrorSummary,
}

/// One journaled pass: the engine control that commits every chunk (and
/// may stop the run), plus the committed prefix it continues from.
pub(crate) struct Journal<'a, T> {
    pub(crate) control: RunControl<'a, ShardYield<T>>,
    pub(crate) prefix: Prefix<T>,
}

/// The one execution path behind every streaming entry point: runs
/// `stage` under the fault layer on the engine, accounts the run in a
/// [`RunReport`] and folds it into the `(result, report)` /
/// [`StreamError`] contract.
///
/// In-memory slices ride the work-stealing dispatcher (with its
/// sequential fallback); readers stream out-of-core through a bounded
/// ring of chunk buffers. A `journal` (reader sources only) commits
/// every chunk through its control and continues from its prefix: the
/// chunk sequence and line numbering pick up where the prefix ended (the
/// caller positioned the reader there), and the prefix's output and
/// account fuse in front of the tail's. A stop observed through the
/// control surfaces as [`StreamError::Interrupted`], after any
/// data-level failure, which a resume would deterministically re-hit.
pub(crate) fn run_stage<R: std::io::BufRead + Send, S: RecordStage>(
    source: StreamSource<'_, R>,
    stage: &S,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    journal: Option<Journal<'_, S::Out>>,
) -> Result<(S::Out, RunReport), StreamError> {
    let fold = FaultFold::new(stage, fault);
    let (control, prefix) = match journal {
        Some(journal) => (journal.control, journal.prefix),
        None => (
            RunControl::default(),
            Prefix {
                out: None,
                chunks: 0,
                lines: 0,
                records: 0,
                errors: ErrorSummary::new(),
            },
        ),
    };
    let outcome = match source {
        StreamSource::Slice(ndjson) => run_lines_stealing(ndjson, &fold, opts, chunk),
        StreamSource::Reader(reader) => {
            let workers = opts.effective_workers().max(1);
            let ring = if chunk.ring > 0 { chunk.ring } else { workers };
            let chunks = ReaderChunks::with_offset(
                reader,
                chunk.reader_chunk_bytes(),
                ring,
                prefix.chunks,
                prefix.lines,
            );
            run_source_controlled(&chunks, &fold, workers, chunk.timing, control).map_err(|e| {
                match e {
                    ChunkError::NotUtf8 { line } => StreamError::NotUtf8 { line },
                    io => StreamError::Input(io.to_string()),
                }
            })?
        }
    };
    let tail = outcome.out;
    let mut errors = prefix.errors;
    errors.merge(tail.errors, fault.sample_cap());
    let out = match prefix.out {
        Some(prefix_out) => stage.merge(prefix_out, tail.out),
        None => tail.out,
    };
    let report = RunReport {
        records: prefix.records + tail.records,
        shards: prefix.chunks + outcome.shards,
        errors,
        poisoned: outcome.poisoned,
        timings: outcome.timings,
    };
    let sealed = seal_stage_outcome(out, tail.halt, report, fault)?;
    if outcome.interrupted {
        return Err(StreamError::Interrupted);
    }
    Ok(sealed)
}

/// Folds a finished run's halt state and report into the
/// `(result, report)` / [`StreamError`] contract.
fn seal_stage_outcome<T>(
    out: T,
    halt: Option<Halt>,
    mut report: RunReport,
    fault: FaultOptions,
) -> Result<(T, RunReport), StreamError> {
    if !fault.policy.tolerates() && !report.poisoned.is_empty() {
        return Err(StreamError::ShardPanicked(report.poisoned.remove(0)));
    }
    match halt {
        Some(Halt::Fault { record, issue }) => Err(StreamError::Record { record, issue }),
        Some(Halt::TooMany) => Err(StreamError::TooManyErrors {
            limit: fault.policy.max_errors().unwrap_or(0),
            seen: report.errors.total,
        }),
        None => match fault.policy.max_errors() {
            // The authoritative bound check is on the *merged* total: each
            // shard may be under the limit while the run is over it.
            Some(max) if report.errors.total > max => Err(StreamError::TooManyErrors {
                limit: max,
                seen: report.errors.total,
            }),
            _ => Ok((out, report)),
        },
    }
}

/// Maps a fail-fast run onto the historical `(line, error)` shape,
/// panicking (with shard provenance) on a poisoned shard — the historical
/// entry points cannot carry a panic in their signatures.
fn fail_fast<T, E>(
    result: Result<(T, RunReport), StreamError>,
    issue: fn(RecordIssue) -> E,
) -> Result<T, (usize, E)> {
    match result {
        Ok((out, _report)) => Ok(out),
        Err(StreamError::Record { record, issue: i }) => Err((record, issue(i))),
        Err(StreamError::ShardPanicked(p)) => panic!("pipeline {p}"),
        Err(e) => unreachable!("fail-fast in-memory run produced {e:?}"),
    }
}

/// The output of an in-memory run whose stage records malformed lines as
/// inline verdicts: it rejects nothing, so the fail-fast run can only fail
/// on a poisoned shard, which panics with its provenance as in
/// [`fail_fast`].
fn inline_outcome<T>(result: Result<(T, RunReport), StreamError>) -> T {
    match result {
        Ok((out, _report)) => out,
        Err(StreamError::ShardPanicked(p)) => panic!("pipeline {p}"),
        Err(e) => unreachable!("a stage with inline verdicts produced {e:?}"),
    }
}

// ---------------------------------------------------------------------------
// Inference stage
// ---------------------------------------------------------------------------

/// The inference stage: one [`StreamTyper`] per worker, types fused with
/// the §4.1 monoid. Generic over the [`RecordDecoder`], so the same
/// stage types NDJSON, CSV, or any future source.
pub(crate) struct InferStage<D> {
    pub(crate) equiv: Equivalence,
    pub(crate) decoder: D,
}

impl<D: RecordDecoder> RecordStage for InferStage<D> {
    type State = (StreamTyper, D::Scratch, JType);
    type Out = JType;

    fn init(&self) -> Self::State {
        (
            StreamTyper::new(self.equiv),
            self.decoder.scratch(),
            JType::Bottom,
        )
    }

    fn record(
        &self,
        (typer, scratch, acc): &mut Self::State,
        line: &str,
        _record: usize,
    ) -> Result<(), RecordIssue> {
        let ty = typer
            .type_decoded(&self.decoder, scratch, line)
            .map_err(RecordIssue::Parse)?;
        let current = std::mem::replace(acc, JType::Bottom);
        *acc = fuse(current, ty, self.equiv);
        Ok(())
    }

    fn finish(&self, (_, _, acc): Self::State) -> JType {
        acc
    }

    fn merge(&self, left: JType, right: JType) -> JType {
        fuse(left, right, self.equiv)
    }

    fn take(&self, (_, _, acc): &mut Self::State) -> JType {
        // The typer (frame stack + interner) and decoder scratch survive
        // across chunks; only the fused accumulator is the chunk's output.
        std::mem::replace(acc, JType::Bottom)
    }
}

/// Infers the collection type of NDJSON text without building DOMs.
///
/// Equivalent to parsing every line and running
/// [`infer_collection`](jsonx_core::infer_collection) — property-tested in
/// `tests/streaming_inference.rs` — but allocation stays proportional to
/// nesting depth. Errors carry the zero-based line index.
pub fn infer_streaming(ndjson: &str, equiv: Equivalence) -> Result<JType, (usize, ParseError)> {
    infer_streaming_parallel(ndjson, equiv, StreamingOptions::with_workers(1))
}

/// Types one document from its event stream.
pub fn infer_document_events(input: &[u8], equiv: Equivalence) -> Result<JType, ParseError> {
    StreamTyper::new(equiv).type_document(input)
}

/// Infers the collection type of NDJSON text on parallel workers.
///
/// The input is split into contiguous byte-range shards snapped to newline
/// boundaries; each scoped worker types its shard with a private
/// [`StreamTyper`], and the per-shard types are fused in shard order.
/// Because fusion is commutative and associative with `Bottom` as unit,
/// the result is identical to [`infer_streaming`] — and to the DOM path —
/// for every worker count. On malformed input the reported line index
/// matches the sequential path (the first bad line).
pub fn infer_streaming_parallel(
    ndjson: &str,
    equiv: Equivalence,
    opts: StreamingOptions,
) -> Result<JType, (usize, ParseError)> {
    let run = infer_streaming_source(
        StreamSource::slice(ndjson),
        equiv,
        opts,
        ChunkOptions::default(),
        FaultOptions::default(),
    );
    fail_fast(run, |issue| match issue {
        RecordIssue::Parse(e) => e,
        RecordIssue::NotARecord => unreachable!("inference types any JSON value"),
    })
}

/// Streaming inference under an explicit [error policy](FaultOptions).
///
/// Under [`ErrorPolicy::FailFast`] this is [`infer_streaming_parallel`]
/// returning its [`RunReport`]; under `Skip`/`Collect` rejected records
/// (malformed JSON, limit violations) are skipped and accounted in the
/// report, and the inferred type equals what `FailFast` infers on the same
/// corpus with the rejected lines removed — pinned by
/// `tests/fault_tolerance.rs` at every worker count.
pub fn infer_streaming_guarded(
    ndjson: &str,
    equiv: Equivalence,
    opts: StreamingOptions,
    fault: FaultOptions,
) -> Result<(JType, RunReport), StreamError> {
    let source = StreamSource::slice(ndjson);
    infer_streaming_source(source, equiv, opts, ChunkOptions::default(), fault)
}

/// Streaming inference over any [`StreamSource`]: in-memory slices ride
/// the work-stealing chunk dispatcher, readers stream out-of-core with
/// bounded resident memory. Semantics (policy, report, inferred type)
/// are identical to [`infer_streaming_guarded`] on the same bytes.
pub fn infer_streaming_source<R: std::io::BufRead + Send>(
    source: StreamSource<'_, R>,
    equiv: Equivalence,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
) -> Result<(JType, RunReport), StreamError> {
    let decoder = JsonDecoder::new().with_limits(fault.limits);
    infer_streaming_decoded(source, decoder, equiv, opts, chunk, fault)
}

/// Streaming inference through an arbitrary [`RecordDecoder`] — the
/// source-agnostic entry point. [`infer_streaming_source`] is exactly
/// this with [`JsonDecoder`]; pass a
/// [`CsvDecoder`](jsonx_syntax::CsvDecoder) (or any other implementation)
/// and the full engine — work stealing, out-of-core chunking, error
/// policies, quarantine — runs unchanged over the new source.
pub fn infer_streaming_decoded<R: std::io::BufRead + Send, D: RecordDecoder>(
    source: StreamSource<'_, R>,
    decoder: D,
    equiv: Equivalence,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
) -> Result<(JType, RunReport), StreamError> {
    let stage = InferStage { equiv, decoder };
    run_stage(source, &stage, opts, chunk, fault, None)
}

// ---------------------------------------------------------------------------
// Validation stage
// ---------------------------------------------------------------------------

/// Per-line outcome of streaming NDJSON validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineVerdict {
    /// The line parsed and satisfies the schema.
    Valid,
    /// The line parsed but violates the schema.
    Invalid,
    /// The line is not well-formed JSON.
    Malformed(ParseError),
}

impl LineVerdict {
    /// True only for [`LineVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, LineVerdict::Valid)
    }
}

/// The validation stage: one fail-fast [`FastValidator`] per worker,
/// verdict vectors concatenated in shard order.
///
/// Two faces share this stage. The historical one (`malformed_verdicts`)
/// records malformed lines as inline [`LineVerdict::Malformed`] entries
/// and never rejects a record; the guarded one rejects malformed lines to
/// the fault layer, so the verdict vector covers exactly the records that
/// parsed.
pub(crate) struct ValidateStage<'s, D> {
    pub(crate) schema: &'s CompiledSchema,
    pub(crate) options: ValidatorOptions,
    pub(crate) malformed_verdicts: bool,
    /// How record text becomes a document. The JSON paths pass
    /// [`FastJsonDecoder`], whose `decode_value` tries the projecting
    /// structural fast path first and falls back to the full parser —
    /// verdicts are identical either way (the scanner never accepts a
    /// record the parser rejects). Any other decoder plugs in here
    /// unchanged.
    pub(crate) decoder: D,
}

impl<'s, D: RecordDecoder> RecordStage for ValidateStage<'s, D> {
    type State = (FastValidator<'s>, Vec<(usize, LineVerdict)>, D::Scratch);
    type Out = Vec<(usize, LineVerdict)>;

    fn init(&self) -> Self::State {
        (
            self.schema.fast_validator_with(self.options),
            Vec::new(),
            self.decoder.scratch(),
        )
    }

    fn record(
        &self,
        (validator, verdicts, scratch): &mut Self::State,
        line: &str,
        record: usize,
    ) -> Result<(), RecordIssue> {
        match self.decoder.decode_value(scratch, line) {
            Ok(doc) => {
                let verdict = if validator.is_valid(&doc) {
                    LineVerdict::Valid
                } else {
                    LineVerdict::Invalid
                };
                verdicts.push((record, verdict));
                Ok(())
            }
            Err(e) if self.malformed_verdicts => {
                verdicts.push((record, LineVerdict::Malformed(e)));
                Ok(())
            }
            Err(e) => Err(RecordIssue::Parse(e)),
        }
    }

    fn finish(&self, (_, verdicts, _): Self::State) -> Self::Out {
        verdicts
    }

    fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
        left.extend(right);
        left
    }

    fn take(&self, (_, verdicts, _): &mut Self::State) -> Self::Out {
        // Validator and decoder scratch survive across chunks; verdicts
        // are the chunk's output.
        std::mem::take(verdicts)
    }
}

/// Validates an NDJSON collection line by line on the fail-fast path.
///
/// Each non-blank line is parsed and probed with the compiled validation IR
/// (the allocation-free boolean path behind
/// [`CompiledSchema::is_valid`]); verdicts are **identical** to running the
/// error-collecting interpreter per document — property-tested in
/// `tests/streaming_validation.rs` — so callers wanting diagnostics can
/// re-run [`CompiledSchema::validate`] on just the invalid lines.
pub fn validate_streaming(
    ndjson: &str,
    schema: &CompiledSchema,
    options: ValidatorOptions,
) -> Vec<(usize, LineVerdict)> {
    validate_streaming_parallel(ndjson, schema, options, StreamingOptions::with_workers(1))
}

/// Validates an NDJSON collection on parallel workers.
///
/// Reuses the newline-boundary sharding of
/// [`infer_streaming_parallel`]: the input splits into contiguous shards
/// snapped to newline boundaries, each scoped worker owns one fail-fast
/// validator for its shard, and the per-shard verdict vectors concatenate
/// in shard order — so the result is *positionally identical* to
/// [`validate_streaming`] for every worker count. Small inputs (or
/// `workers == 1`) fall back to the sequential path.
pub fn validate_streaming_parallel(
    ndjson: &str,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
) -> Vec<(usize, LineVerdict)> {
    validate_inline(ndjson, schema, options, opts, false)
}

/// [`validate_streaming_parallel`] with the fused structural fast path enabled.
///
/// When the compiled schema is projectable
/// ([`CompiledSchema::root_projection`]), each worker first runs the
/// word-parallel structural scanner, validating only the fields the
/// schema can observe; records the scanner declines — and every record of
/// a non-projectable schema — take the full parser, so the verdict vector
/// is **identical** to [`validate_streaming_parallel`] at every worker
/// count (pinned by `tests/parsing_fastpath.rs`).
pub fn validate_streaming_parallel_fast(
    ndjson: &str,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
) -> Vec<(usize, LineVerdict)> {
    validate_inline(ndjson, schema, options, opts, true)
}

/// The historical face of validation: malformed lines become inline
/// [`LineVerdict::Malformed`] entries instead of rejects.
fn validate_inline(
    ndjson: &str,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    fast: bool,
) -> Vec<(usize, LineVerdict)> {
    let stage = ValidateStage {
        schema,
        options,
        malformed_verdicts: true,
        decoder: FastJsonDecoder::for_validation(schema, fast, ParseLimits::default()),
    };
    let source = StreamSource::slice(ndjson);
    let fault = FaultOptions::default();
    inline_outcome(run_stage(
        source,
        &stage,
        opts,
        ChunkOptions::default(),
        fault,
        None,
    ))
}

/// Streaming validation under an explicit [error policy](FaultOptions).
///
/// Unlike [`validate_streaming_parallel`] — which records malformed lines
/// as inline [`LineVerdict::Malformed`] entries — the guarded face hands
/// malformed records (and limit violations) to the fault layer: under
/// `FailFast` the first one aborts the run, under `Skip`/`Collect` they
/// are accounted in the [`RunReport`] (and quarantinable), and the verdict
/// vector covers exactly the records that parsed.
pub fn validate_streaming_guarded(
    ndjson: &str,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    fault: FaultOptions,
) -> Result<(Vec<(usize, LineVerdict)>, RunReport), StreamError> {
    let source = StreamSource::slice(ndjson);
    validate_streaming_source(
        source,
        schema,
        options,
        opts,
        ChunkOptions::default(),
        fault,
        false,
    )
}

/// [`validate_streaming_guarded`] with the fused structural fast path enabled.
///
/// Fast-path acceptance implies well-formedness, so a scanner-accepted
/// record can never reach the fault layer as a parse reject; declined
/// records run the full parser whose error kind and offset remain
/// authoritative. Verdicts, [`RunReport`]s and [`StreamError`]s are
/// identical to [`validate_streaming_guarded`] under every policy.
pub fn validate_streaming_guarded_fast(
    ndjson: &str,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    fault: FaultOptions,
) -> Result<(Vec<(usize, LineVerdict)>, RunReport), StreamError> {
    let source = StreamSource::slice(ndjson);
    validate_streaming_source(
        source,
        schema,
        options,
        opts,
        ChunkOptions::default(),
        fault,
        true,
    )
}

/// Streaming validation over any [`StreamSource`]; `fast` enables the
/// projecting structural fast path when the schema supports it (verdicts are
/// identical either way). Semantics match
/// [`validate_streaming_guarded`] / [`validate_streaming_guarded_fast`]
/// on the same bytes; readers stream out-of-core with bounded resident
/// memory.
pub fn validate_streaming_source<R: std::io::BufRead + Send>(
    source: StreamSource<'_, R>,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    fast: bool,
) -> Result<(Vec<(usize, LineVerdict)>, RunReport), StreamError> {
    let decoder = FastJsonDecoder::for_validation(schema, fast, fault.limits);
    validate_streaming_decoded(source, decoder, schema, options, opts, chunk, fault)
}

/// Streaming validation through an arbitrary [`RecordDecoder`]: decoded
/// records probe the compiled validator exactly as parsed JSON documents
/// would, with malformed records handed to the fault layer. This is how
/// a CSV corpus validates against a JSON Schema without any
/// format-specific validation code.
pub fn validate_streaming_decoded<R: std::io::BufRead + Send, D: RecordDecoder>(
    source: StreamSource<'_, R>,
    decoder: D,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
) -> Result<(Vec<(usize, LineVerdict)>, RunReport), StreamError> {
    let stage = ValidateStage {
        schema,
        options,
        malformed_verdicts: false,
        decoder,
    };
    run_stage(source, &stage, opts, chunk, fault, None)
}

// ---------------------------------------------------------------------------
// Combined infer + validate stage (single pass)
// ---------------------------------------------------------------------------

/// Result of the combined single-pass infer + validate stage.
#[derive(Debug, Clone)]
pub struct InferValidateOutcome {
    /// The collection type — identical to what [`infer_streaming`] returns
    /// on the same input.
    pub ty: Result<JType, (usize, ParseError)>,
    /// Per-line verdicts in input order — `is_valid`-identical to
    /// [`validate_streaming`] on the same input.
    pub verdicts: Vec<(usize, LineVerdict)>,
}

/// The combined stage: one tokenisation per record feeds both the typer
/// and the compiled validator. Like [`ValidateStage`] it has two faces:
/// the historical one (`malformed_verdicts`) records a malformed line as
/// an inline [`LineVerdict::Malformed`] entry and as the outcome's type
/// error, and rejects nothing; the guarded one rejects it to the fault
/// layer, so the type and the verdicts cover exactly the accepted
/// records.
struct InferValidateStage<'s, D: RecordDecoder> {
    equiv: Equivalence,
    schema: &'s CompiledSchema,
    options: ValidatorOptions,
    malformed_verdicts: bool,
    decoder: D,
}

impl InferValidateOutcome {
    fn empty() -> InferValidateOutcome {
        InferValidateOutcome {
            ty: Ok(JType::Bottom),
            verdicts: Vec::new(),
        }
    }
}

impl<'s, D: RecordDecoder> RecordStage for InferValidateStage<'s, D> {
    type State = (
        StreamTyper,
        FastValidator<'s>,
        D::Scratch,
        InferValidateOutcome,
    );
    type Out = InferValidateOutcome;

    fn init(&self) -> Self::State {
        (
            StreamTyper::new(self.equiv),
            self.schema.fast_validator_with(self.options),
            self.decoder.scratch(),
            InferValidateOutcome::empty(),
        )
    }

    fn record(
        &self,
        (typer, validator, scratch, acc): &mut Self::State,
        line: &str,
        record: usize,
    ) -> Result<(), RecordIssue> {
        match typer.type_and_build_decoded(&self.decoder, scratch, line) {
            Ok((ty, doc)) => {
                if let Ok(fused) = &mut acc.ty {
                    let current = std::mem::replace(fused, JType::Bottom);
                    *fused = fuse(current, ty, self.equiv);
                }
                let verdict = if validator.is_valid(&doc) {
                    LineVerdict::Valid
                } else {
                    LineVerdict::Invalid
                };
                acc.verdicts.push((record, verdict));
                Ok(())
            }
            Err(e) if self.malformed_verdicts => {
                if acc.ty.is_ok() {
                    acc.ty = Err((record, e.clone()));
                }
                acc.verdicts.push((record, LineVerdict::Malformed(e)));
                Ok(())
            }
            Err(e) => Err(RecordIssue::Parse(e)),
        }
    }

    fn finish(&self, (_, _, _, acc): Self::State) -> Self::Out {
        acc
    }

    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
        let mut verdicts = left.verdicts;
        verdicts.extend(right.verdicts);
        InferValidateOutcome {
            ty: merge_line_results(left.ty, right.ty, |a, b| fuse(a, b, self.equiv)),
            verdicts,
        }
    }

    fn take(&self, (_, _, _, acc): &mut Self::State) -> Self::Out {
        // Typer, validator and decoder scratch survive across chunks; the
        // fused type and the verdict vector are the chunk's output.
        std::mem::replace(acc, InferValidateOutcome::empty())
    }
}

/// Infers **and** validates an NDJSON collection in one sequential pass.
///
/// Each non-blank line is tokenised once
/// ([`StreamTyper::type_and_build_decoded`]): the raw-event walk types
/// the line for the fusion fold while rebuilding the document value for
/// the compiled fail-fast validator. The outcome's type equals
/// [`infer_streaming`] and its verdicts equal [`validate_streaming`] on
/// the same input — pinned by `tests/pipeline_equivalence.rs` — for half the
/// tokenisation work of running the two passes back to back.
pub fn infer_validate_streaming(
    ndjson: &str,
    equiv: Equivalence,
    schema: &CompiledSchema,
    options: ValidatorOptions,
) -> InferValidateOutcome {
    infer_validate_streaming_parallel(
        ndjson,
        equiv,
        schema,
        options,
        StreamingOptions::with_workers(1),
    )
}

/// The combined single-pass stage on parallel workers: sharding and merge
/// semantics of [`infer_streaming_parallel`] and
/// [`validate_streaming_parallel`] at once, in one pass over the bytes.
pub fn infer_validate_streaming_parallel(
    ndjson: &str,
    equiv: Equivalence,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
) -> InferValidateOutcome {
    let stage = InferValidateStage {
        equiv,
        schema,
        options,
        malformed_verdicts: true,
        decoder: JsonDecoder::new(),
    };
    let source = StreamSource::slice(ndjson);
    let fault = FaultOptions::default();
    inline_outcome(run_stage(
        source,
        &stage,
        opts,
        ChunkOptions::default(),
        fault,
        None,
    ))
}

/// What a successful guarded combined pass yields: the fused collection
/// type next to the per-record verdicts (original record indices).
pub type TypedVerdicts = (JType, Vec<(usize, LineVerdict)>);

/// The combined single-pass stage through an arbitrary
/// [`RecordDecoder`]: one decode per accepted record feeds both the
/// typer and the compiled validator, whatever the source format.
#[allow(clippy::too_many_arguments)]
pub fn infer_validate_streaming_decoded<R: std::io::BufRead + Send, D: RecordDecoder>(
    source: StreamSource<'_, R>,
    decoder: D,
    equiv: Equivalence,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
) -> Result<(TypedVerdicts, RunReport), StreamError> {
    let stage = InferValidateStage {
        equiv,
        schema,
        options,
        malformed_verdicts: false,
        decoder,
    };
    let (outcome, report) = run_stage(source, &stage, opts, chunk, fault, None)?;
    let ty = outcome.ty.map_err(|(record, e)| StreamError::Record {
        record,
        issue: RecordIssue::Parse(e),
    })?;
    Ok(((ty, outcome.verdicts), report))
}

// ---------------------------------------------------------------------------
// Schema-driven translation stage (§5)
// ---------------------------------------------------------------------------

/// Per-line failure of the streaming translation stage.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateLineError {
    /// The line is not well-formed JSON.
    Malformed(ParseError),
    /// The line parsed but is not a JSON object (columnar batches shred
    /// records only — the streaming face of
    /// [`ShredError::NotARecord`]).
    NotARecord,
}

impl std::fmt::Display for TranslateLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateLineError::Malformed(e) => write!(f, "{e}"),
            TranslateLineError::NotARecord => write!(f, "not a JSON object"),
        }
    }
}

/// The translation stage: one [`ShredStream`] per worker over a shared
/// fixed layout, per-shard batches concatenated in shard order.
pub(crate) struct TranslateStage<'t, D> {
    pub(crate) shredder: &'t Shredder,
    /// How record text becomes a document. The JSON paths pass
    /// [`FastJsonDecoder`] (structural-scanner projection to the shred plan's root
    /// fields, dotted skipped keys rejected so column paths can't alias,
    /// full-parser fallback — batches row-identical either way); any
    /// other decoder feeds the same shredder unchanged.
    pub(crate) decoder: D,
}

impl<'t, D: RecordDecoder> RecordStage for TranslateStage<'t, D> {
    type State = (ShredStream<'t>, D::Scratch);
    type Out = ColumnarBatch;

    fn init(&self) -> Self::State {
        (self.shredder.stream(), self.decoder.scratch())
    }

    fn record(
        &self,
        (stream, scratch): &mut Self::State,
        line: &str,
        _record: usize,
    ) -> Result<(), RecordIssue> {
        let doc = self
            .decoder
            .decode_value(scratch, line)
            .map_err(RecordIssue::Parse)?;
        match stream.push(&doc) {
            Err(ShredError::NotARecord { .. }) => Err(RecordIssue::NotARecord),
            _ => Ok(()),
        }
    }

    fn finish(&self, (stream, _): Self::State) -> ColumnarBatch {
        stream.finish()
    }

    fn merge(&self, mut left: ColumnarBatch, right: ColumnarBatch) -> ColumnarBatch {
        left.append(right);
        left
    }

    fn take(&self, (stream, _): &mut Self::State) -> ColumnarBatch {
        // Column builders reset inside `take_batch`; the decoder's
        // scratch survives across chunks.
        stream.take_batch()
    }
}

/// Translates an NDJSON collection into one columnar batch, sequentially.
///
/// Schema-driven (§5): `shredder` must carry a fixed layout
/// ([`Shredder::from_type`], typically over a type inferred by
/// [`infer_streaming`]). The batch is identical to parsing every line and
/// shredding the whole collection with
/// [`Shredder::shred`](jsonx_translate::Shredder::shred) — property-tested
/// in `tests/pipeline_equivalence.rs`. Errors carry the zero-based line index
/// of the first offending line.
pub fn translate_streaming(
    ndjson: &str,
    shredder: &Shredder,
) -> Result<ColumnarBatch, (usize, TranslateLineError)> {
    translate_streaming_parallel(ndjson, shredder, StreamingOptions::with_workers(1))
}

/// Streaming schema-driven translation on parallel workers.
///
/// Each scoped worker shreds its newline-bounded shard into a private
/// [`ShredStream`] over the shared layout; per-shard batches concatenate
/// in shard order, so the batch is row-identical to [`translate_streaming`]
/// — and to the DOM path — at every worker count.
pub fn translate_streaming_parallel(
    ndjson: &str,
    shredder: &Shredder,
    opts: StreamingOptions,
) -> Result<ColumnarBatch, (usize, TranslateLineError)> {
    let source = StreamSource::slice(ndjson);
    let fault = FaultOptions::default();
    let run = translate_streaming_source(
        source,
        shredder,
        opts,
        ChunkOptions::default(),
        fault,
        false,
    );
    fail_fast(run, translate_issue)
}

/// [`translate_streaming_parallel`] with the fused structural fast path enabled.
///
/// When the shredder carries a fixed record layout
/// ([`Shredder::root_fields`]), each worker first runs the word-parallel
/// structural scanner projected to the layout's top-level fields; records
/// it declines — including any with skipped dotted root keys, which could
/// alias a nested column path — take the full parser. Batches are
/// row-identical to [`translate_streaming_parallel`] at every worker
/// count (pinned by `tests/parsing_fastpath.rs`).
pub fn translate_streaming_parallel_fast(
    ndjson: &str,
    shredder: &Shredder,
    opts: StreamingOptions,
) -> Result<ColumnarBatch, (usize, TranslateLineError)> {
    let source = StreamSource::slice(ndjson);
    let fault = FaultOptions::default();
    let run =
        translate_streaming_source(source, shredder, opts, ChunkOptions::default(), fault, true);
    fail_fast(run, translate_issue)
}

fn translate_issue(issue: RecordIssue) -> TranslateLineError {
    match issue {
        RecordIssue::Parse(e) => TranslateLineError::Malformed(e),
        RecordIssue::NotARecord => TranslateLineError::NotARecord,
    }
}

/// Streaming schema-driven translation under an explicit
/// [error policy](FaultOptions): under `Skip`/`Collect` rejected records
/// (malformed JSON, non-record lines, limit violations) simply contribute
/// no row, and the batch equals what `FailFast` builds on the same corpus
/// with the rejected lines removed.
pub fn translate_streaming_guarded(
    ndjson: &str,
    shredder: &Shredder,
    opts: StreamingOptions,
    fault: FaultOptions,
) -> Result<(ColumnarBatch, RunReport), StreamError> {
    let source = StreamSource::slice(ndjson);
    translate_streaming_source(
        source,
        shredder,
        opts,
        ChunkOptions::default(),
        fault,
        false,
    )
}

/// [`translate_streaming_guarded`] with the fused structural fast path enabled.
///
/// Scanner-accepted records are well-formed objects, so they can reach
/// the fault layer only through the central record-size guard (which runs
/// before either parser) — never as parse or `NotARecord` rejects.
/// Batches, [`RunReport`]s and [`StreamError`]s are identical to
/// [`translate_streaming_guarded`] under every policy.
pub fn translate_streaming_guarded_fast(
    ndjson: &str,
    shredder: &Shredder,
    opts: StreamingOptions,
    fault: FaultOptions,
) -> Result<(ColumnarBatch, RunReport), StreamError> {
    let source = StreamSource::slice(ndjson);
    translate_streaming_source(source, shredder, opts, ChunkOptions::default(), fault, true)
}

/// Streaming schema-driven translation over any [`StreamSource`];
/// `fast` enables the projecting structural fast path when the shredder's
/// layout supports it (batches are row-identical either way). Semantics
/// match [`translate_streaming_guarded`] /
/// [`translate_streaming_guarded_fast`] on the same bytes; readers
/// stream out-of-core with bounded resident memory.
pub fn translate_streaming_source<R: std::io::BufRead + Send>(
    source: StreamSource<'_, R>,
    shredder: &Shredder,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    fast: bool,
) -> Result<(ColumnarBatch, RunReport), StreamError> {
    let decoder = FastJsonDecoder::for_translation(shredder, fast, fault.limits);
    translate_streaming_decoded(source, decoder, shredder, opts, chunk, fault)
}

/// Streaming schema-driven translation through an arbitrary
/// [`RecordDecoder`]: decoded records shred into the fixed columnar
/// layout exactly as parsed JSON objects would — the path that turns a
/// CSV corpus into the same [`ColumnarBatch`] (and on-disk `.jxc` file)
/// as its NDJSON rendering.
pub fn translate_streaming_decoded<R: std::io::BufRead + Send, D: RecordDecoder>(
    source: StreamSource<'_, R>,
    decoder: D,
    shredder: &Shredder,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
) -> Result<(ColumnarBatch, RunReport), StreamError> {
    let stage = TranslateStage { shredder, decoder };
    run_stage(source, &stage, opts, chunk, fault, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_core::infer_collection;
    use jsonx_data::json;
    use jsonx_syntax::parse_ndjson;

    #[test]
    fn matches_dom_inference_on_mixed_documents() {
        let ndjson = r#"
{"id": 1, "tags": ["a", 2], "geo": null}
{"id": "x", "geo": {"lat": 1.5}, "tags": []}
{"dup": 1, "dup": "last-wins"}
42
[1, {"k": true}]
"#;
        let docs = parse_ndjson(ndjson).unwrap();
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            let streamed = infer_streaming(ndjson, equiv).unwrap();
            assert_eq!(streamed, dom, "equiv {equiv:?}");
        }
    }

    #[test]
    fn duplicate_keys_last_wins_like_dom() {
        let doc = br#"{"a": 1, "b": true, "a": "s", "a": null}"#;
        let streamed = infer_document_events(doc, Equivalence::Kind).unwrap();
        let dom = jsonx_syntax::parse(std::str::from_utf8(doc).unwrap()).unwrap();
        assert_eq!(streamed, jsonx_core::infer_value(&dom, Equivalence::Kind));
        match streamed {
            JType::Record(rt) => {
                assert_eq!(rt.fields.len(), 2);
                assert!(matches!(rt.field("a").unwrap().ty, JType::Null { .. }));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn type_and_build_rebuilds_the_dom_value() {
        let mut typer = StreamTyper::new(Equivalence::Kind);
        for doc in [
            r#"{"a": 1, "b": [true, null, {"c": "x\ny"}], "geo": {"lat": 1.5}}"#,
            r#"{"dup": 1, "dup": "last-wins", "keep": 0}"#,
            r#"[[], {}, [1, "s"]]"#,
            "42",
            "\"plain\"",
            "null",
        ] {
            let (ty, built) = typer.type_and_build(doc.as_bytes()).unwrap();
            let dom = jsonx_syntax::parse(doc).unwrap();
            assert_eq!(built, dom, "doc {doc}");
            assert_eq!(ty, jsonx_core::infer_value(&dom, Equivalence::Kind));
        }
    }

    #[test]
    fn reports_line_of_malformed_document() {
        let err = infer_streaming("{\"a\":1}\n{bad\n", Equivalence::Kind).unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn empty_input_is_bottom() {
        assert_eq!(
            infer_streaming("", Equivalence::Kind).unwrap(),
            JType::Bottom
        );
    }

    #[test]
    fn typer_is_reusable_after_error() {
        let mut typer = StreamTyper::new(Equivalence::Kind);
        assert!(typer.type_document(b"{broken").is_err());
        let ty = typer.type_document(br#"{"ok": 1}"#).unwrap();
        assert!(matches!(ty, JType::Record(_)));
    }

    fn corpus_ndjson(n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            match i % 4 {
                0 => out.push_str(&format!("{{\"id\": {i}, \"name\": \"a\"}}\n")),
                1 => out.push_str(&format!("{{\"id\": {i}}}\n")),
                2 => out.push_str(&format!("{{\"id\": \"s{i}\", \"tags\": [1, \"x\"]}}\n")),
                _ => out.push_str(&format!(
                    "{{\"geo\": {{\"lat\": 1.5, \"lon\": -0.5}}, \"id\": {i}}}\n"
                )),
            }
        }
        out
    }

    #[test]
    fn parallel_equals_sequential_and_dom() {
        let ndjson = corpus_ndjson(3_000);
        let docs = parse_ndjson(&ndjson).unwrap();
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            let seq = infer_streaming(&ndjson, equiv).unwrap();
            assert_eq!(seq, dom);
            for workers in [1, 2, 3, 8] {
                let par = infer_streaming_parallel(
                    &ndjson,
                    equiv,
                    StreamingOptions {
                        workers,
                        min_shard_bytes: 256,
                    },
                )
                .unwrap();
                assert_eq!(par, dom, "workers={workers} equiv={equiv:?}");
            }
        }
    }

    #[test]
    fn parallel_reports_first_error_line() {
        let base = corpus_ndjson(500);
        let total = base.lines().count();
        // Corrupt two lines, one early and one late; the early one must win
        // regardless of which shard fails first.
        let mut corrupted: Vec<String> = base.lines().map(str::to_string).collect();
        corrupted[40] = "{oops".to_string();
        corrupted[total - 10] = "[1,".to_string();
        let mut ndjson = corrupted.join("\n");
        ndjson.push('\n');
        let seq_err = infer_streaming(&ndjson, Equivalence::Kind).unwrap_err();
        let par_err = infer_streaming_parallel(
            &ndjson,
            Equivalence::Kind,
            StreamingOptions {
                workers: 4,
                min_shard_bytes: 64,
            },
        )
        .unwrap_err();
        assert_eq!(seq_err.0, 40);
        assert_eq!(par_err.0, seq_err.0);
        assert_eq!(par_err.1.kind, seq_err.1.kind);
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let ndjson = corpus_ndjson(10);
        let par = infer_streaming_parallel(&ndjson, Equivalence::Kind, StreamingOptions::default())
            .unwrap();
        assert_eq!(par, infer_streaming(&ndjson, Equivalence::Kind).unwrap());
    }

    #[test]
    fn combined_pass_matches_two_passes() {
        let schema_doc = json!({
            "type": "object",
            "properties": {"id": {"type": "integer"}},
            "required": ["id"]
        });
        let schema = CompiledSchema::compile(&schema_doc).unwrap();
        let vopts = ValidatorOptions::default();
        let ndjson = corpus_ndjson(600);
        let ty = infer_streaming(&ndjson, Equivalence::Kind).unwrap();
        let verdicts = validate_streaming(&ndjson, &schema, vopts);
        for workers in [1, 2, 3, 8] {
            let combined = infer_validate_streaming_parallel(
                &ndjson,
                Equivalence::Kind,
                &schema,
                vopts,
                StreamingOptions {
                    workers,
                    min_shard_bytes: 128,
                },
            );
            assert_eq!(combined.ty.as_ref().unwrap(), &ty, "workers={workers}");
            assert_eq!(combined.verdicts, verdicts, "workers={workers}");
        }
    }

    #[test]
    fn combined_pass_reports_first_error_and_malformed_verdicts() {
        let schema = CompiledSchema::compile(&json!({"type": "object"})).unwrap();
        let ndjson = "{\"a\": 1}\n{bad\nnot json\n{\"b\": 2}\n";
        let outcome = infer_validate_streaming(
            ndjson,
            Equivalence::Kind,
            &schema,
            ValidatorOptions::default(),
        );
        assert_eq!(outcome.ty.unwrap_err().0, 1);
        assert_eq!(outcome.verdicts.len(), 4);
        assert!(outcome.verdicts[0].1.is_valid());
        assert!(matches!(outcome.verdicts[1].1, LineVerdict::Malformed(_)));
        assert!(matches!(outcome.verdicts[2].1, LineVerdict::Malformed(_)));
        assert!(outcome.verdicts[3].1.is_valid());
    }

    #[test]
    fn streaming_translation_matches_dom_shred() {
        let ndjson = corpus_ndjson(500);
        let docs = parse_ndjson(&ndjson).unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let dom = shredder.clone().shred(&docs).unwrap();
        for workers in [1, 2, 3, 8] {
            let streamed = translate_streaming_parallel(
                &ndjson,
                &shredder,
                StreamingOptions {
                    workers,
                    min_shard_bytes: 128,
                },
            )
            .unwrap();
            assert_eq!(streamed, dom, "workers={workers}");
        }
    }

    #[test]
    fn streaming_translation_reports_first_bad_line() {
        let mut lines: Vec<String> = corpus_ndjson(200).lines().map(str::to_string).collect();
        lines[150] = "{oops".into();
        lines[20] = "[1, 2]".into(); // well-formed but not a record
        let ndjson = lines.join("\n") + "\n";
        let docs_ty = infer_collection(
            &parse_ndjson(&corpus_ndjson(10)).unwrap(),
            Equivalence::Kind,
        );
        let shredder = Shredder::from_type(&docs_ty);
        for workers in [1, 4] {
            let err = translate_streaming_parallel(
                &ndjson,
                &shredder,
                StreamingOptions {
                    workers,
                    min_shard_bytes: 64,
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                (20, TranslateLineError::NotARecord),
                "workers={workers}"
            );
        }
    }

    fn skip_fault(policy: ErrorPolicy) -> FaultOptions {
        FaultOptions {
            policy,
            keep_rejects: true,
            limits: ParseLimits::default(),
        }
    }

    #[test]
    fn skip_policy_infers_type_of_surviving_lines() {
        let mut lines: Vec<String> = corpus_ndjson(100).lines().map(str::to_string).collect();
        lines[13] = "{broken".into();
        lines[55] = "[1, 2".into();
        let dirty = lines.join("\n") + "\n";
        // Reference: blank the bad lines (preserving indices) and fail-fast.
        let mut clean_lines = lines.clone();
        clean_lines[13].clear();
        clean_lines[55].clear();
        let clean = clean_lines.join("\n") + "\n";
        let reference = infer_streaming(&clean, Equivalence::Kind).unwrap();
        for workers in [1, 2, 4] {
            let (ty, report) = infer_streaming_guarded(
                &dirty,
                Equivalence::Kind,
                StreamingOptions {
                    workers,
                    min_shard_bytes: 64,
                },
                skip_fault(ErrorPolicy::Skip { max_errors: None }),
            )
            .unwrap();
            assert_eq!(ty, reference, "workers={workers}");
            assert_eq!(report.errors.total, 2);
            let rejected: Vec<usize> = report.errors.rejects.iter().map(|d| d.record).collect();
            assert_eq!(rejected, vec![13, 55]);
            assert_eq!(report.errors.rejects[0].raw.as_deref(), Some("{broken"));
            assert_eq!(report.records, 100, "rejected lines still count as records");
        }
    }

    #[test]
    fn failfast_guarded_matches_legacy_error() {
        let mut lines: Vec<String> = corpus_ndjson(50).lines().map(str::to_string).collect();
        lines[20] = "{oops".into();
        let ndjson = lines.join("\n") + "\n";
        let legacy = infer_streaming(&ndjson, Equivalence::Kind).unwrap_err();
        let guarded = infer_streaming_guarded(
            &ndjson,
            Equivalence::Kind,
            StreamingOptions::with_workers(1),
            FaultOptions::default(),
        )
        .unwrap_err();
        match guarded {
            StreamError::Record {
                record,
                issue: RecordIssue::Parse(e),
            } => {
                assert_eq!(record, legacy.0);
                assert_eq!(e, legacy.1);
            }
            other => panic!("expected record fault, got {other:?}"),
        }
    }

    #[test]
    fn max_errors_bound_trips_deterministically() {
        let mut lines: Vec<String> = corpus_ndjson(60).lines().map(str::to_string).collect();
        for i in [5, 15, 25, 35] {
            lines[i] = "{bad".into();
        }
        let ndjson = lines.join("\n") + "\n";
        for workers in [1, 3] {
            let opts = StreamingOptions {
                workers,
                min_shard_bytes: 32,
            };
            // Bound above the rejection count: run succeeds.
            let (_, report) = infer_streaming_guarded(
                &ndjson,
                Equivalence::Kind,
                opts,
                skip_fault(ErrorPolicy::Skip {
                    max_errors: Some(4),
                }),
            )
            .unwrap();
            assert_eq!(report.errors.total, 4, "workers={workers}");
            // Bound below: the run fails with TooManyErrors.
            let err = infer_streaming_guarded(
                &ndjson,
                Equivalence::Kind,
                opts,
                skip_fault(ErrorPolicy::Skip {
                    max_errors: Some(3),
                }),
            )
            .unwrap_err();
            assert!(
                matches!(err, StreamError::TooManyErrors { limit: 3, .. }),
                "workers={workers}, got {err:?}"
            );
        }
    }

    #[test]
    fn collect_policy_retains_all_diagnostics_up_to_bound() {
        let mut lines: Vec<String> = corpus_ndjson(40).lines().map(str::to_string).collect();
        for i in [3, 9, 21] {
            lines[i] = "nope!".into();
        }
        let ndjson = lines.join("\n") + "\n";
        let (_, report) = infer_streaming_guarded(
            &ndjson,
            Equivalence::Kind,
            StreamingOptions::with_workers(1),
            FaultOptions {
                policy: ErrorPolicy::Collect { max_errors: 100 },
                keep_rejects: false,
                limits: ParseLimits::default(),
            },
        )
        .unwrap();
        assert_eq!(report.errors.rejects.len(), 3);
        assert_eq!(report.errors.dropped, 0);
        // Without keep_rejects the raw lines are not retained.
        assert!(report.errors.rejects.iter().all(|d| d.raw.is_none()));
    }

    #[test]
    fn resource_limits_reject_pathological_records() {
        let bomb = "[".repeat(200) + &"]".repeat(200);
        let huge = format!("[{}1]", "1, ".repeat(600));
        let ndjson = format!("{{\"ok\": 1}}\n{bomb}\n{huge}\n{{\"ok\": 2}}\n");
        let fault = FaultOptions {
            policy: ErrorPolicy::Skip { max_errors: None },
            keep_rejects: false,
            limits: ParseLimits::new()
                .with_max_depth(128)
                .with_max_input_bytes(1024)
                .with_max_string_bytes(64),
        };
        let (ty, report) = infer_streaming_guarded(
            &ndjson,
            Equivalence::Kind,
            StreamingOptions::with_workers(1),
            fault,
        )
        .unwrap();
        assert_eq!(report.errors.total, 2);
        assert_eq!(report.errors.by_kind["too-deep"], 1);
        assert_eq!(report.errors.by_kind["limit-exceeded-input-bytes"], 1);
        // Only the two {"ok": n} records contribute to the type.
        assert_eq!(ty.count(), 2);
    }

    #[test]
    fn string_limit_rejects_on_event_path() {
        let ndjson = format!("{{\"k\": \"{}\"}}\n{{\"k\": \"s\"}}\n", "y".repeat(100));
        let fault = FaultOptions {
            policy: ErrorPolicy::Skip { max_errors: None },
            keep_rejects: false,
            limits: ParseLimits::new().with_max_string_bytes(16),
        };
        let (_, report) = infer_streaming_guarded(
            &ndjson,
            Equivalence::Kind,
            StreamingOptions::with_workers(1),
            fault,
        )
        .unwrap();
        assert_eq!(report.errors.by_kind["limit-exceeded-string-bytes"], 1);
        assert_eq!(report.errors.total, 1);
    }

    #[test]
    fn guarded_validation_rejects_malformed_instead_of_verdicts() {
        let schema = CompiledSchema::compile(&json!({"type": "object"})).unwrap();
        let ndjson = "{\"a\": 1}\n{oops\n[1, 2]\n";
        let (verdicts, report) = validate_streaming_guarded(
            ndjson,
            &schema,
            ValidatorOptions::default(),
            StreamingOptions::with_workers(1),
            skip_fault(ErrorPolicy::Skip { max_errors: None }),
        )
        .unwrap();
        assert_eq!(
            verdicts,
            vec![(0, LineVerdict::Valid), (2, LineVerdict::Invalid)]
        );
        assert_eq!(report.errors.total, 1);
        assert_eq!(report.errors.rejects[0].record, 1);
    }

    #[test]
    fn guarded_translation_skips_non_records() {
        let ndjson = corpus_ndjson(30);
        let docs = parse_ndjson(&ndjson).unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let mut lines: Vec<String> = ndjson.lines().map(str::to_string).collect();
        lines[10] = "[1, 2]".into();
        lines[17] = "{nope".into();
        let dirty = lines.join("\n") + "\n";
        let mut clean = lines.clone();
        clean[10].clear();
        clean[17].clear();
        let clean = clean.join("\n") + "\n";
        let reference = translate_streaming(&clean, &shredder).unwrap();
        let (batch, report) = translate_streaming_guarded(
            &dirty,
            &shredder,
            StreamingOptions::with_workers(1),
            skip_fault(ErrorPolicy::Skip { max_errors: None }),
        )
        .unwrap();
        assert_eq!(batch, reference);
        assert_eq!(report.errors.total, 2);
        assert_eq!(report.errors.by_kind["not-a-record"], 1);
    }

    /// A stage that panics on a trigger line — the facade-level face of
    /// the engine's panic isolation.
    struct PanicStage;

    impl RecordStage for PanicStage {
        type State = usize;
        type Out = usize;

        fn init(&self) -> usize {
            0
        }

        fn record(&self, seen: &mut usize, line: &str, _record: usize) -> Result<(), RecordIssue> {
            assert!(!line.contains("boom"), "injected stage panic");
            *seen += 1;
            Ok(())
        }

        fn finish(&self, seen: usize) -> usize {
            seen
        }

        fn merge(&self, a: usize, b: usize) -> usize {
            a + b
        }
    }

    #[test]
    fn panicked_shard_fails_cleanly_under_failfast() {
        let mut lines: Vec<String> = (0..80).map(|i| format!("{{\"i\": {i}}}")).collect();
        lines[60] = "{\"i\": \"boom\"}".into();
        let ndjson = lines.join("\n") + "\n";
        let err = run_stage(
            StreamSource::slice(&ndjson),
            &PanicStage,
            StreamingOptions {
                workers: 4,
                min_shard_bytes: 32,
            },
            ChunkOptions::default(),
            FaultOptions::default(),
            None,
        )
        .unwrap_err();
        match err {
            StreamError::ShardPanicked(p) => {
                assert!(p.message.contains("injected stage panic"));
            }
            other => panic!("expected shard panic, got {other:?}"),
        }
    }

    #[test]
    fn panicked_shard_degrades_gracefully_under_skip() {
        let mut lines: Vec<String> = (0..80).map(|i| format!("{{\"i\": {i}}}")).collect();
        lines[60] = "{\"i\": \"boom\"}".into();
        let ndjson = lines.join("\n") + "\n";
        let (seen, report) = run_stage(
            StreamSource::slice(&ndjson),
            &PanicStage,
            StreamingOptions {
                workers: 4,
                min_shard_bytes: 32,
            },
            ChunkOptions::default(),
            skip_fault(ErrorPolicy::Skip { max_errors: None }),
            None,
        )
        .unwrap();
        assert_eq!(report.poisoned.len(), 1, "one shard poisoned");
        assert!(report.poisoned[0].message.contains("injected stage panic"));
        assert!(report.shards > 1);
        // The surviving shards' records merged.
        assert!(seen > 0 && seen < 80, "got {seen}");
    }

    #[test]
    fn interner_shares_repeated_keys() {
        let mut typer = StreamTyper::new(Equivalence::Kind);
        let a = typer.type_document(br#"{"hot": 1}"#).unwrap();
        let b = typer.type_document(br#"{"hot": 2}"#).unwrap();
        let (JType::Record(ra), JType::Record(rb)) = (a, b) else {
            panic!("expected records");
        };
        assert!(FieldName::ptr_eq(&ra.fields[0].0, &rb.fields[0].0));
    }
}
