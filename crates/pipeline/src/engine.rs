//! The fold/merge execution engine.
//!
//! Two dispatch strategies share the same [`ShardFold`] contract and the
//! same sequence-ordered merge:
//!
//! - **Static sharding** ([`run_lines_static_caught`]): the input is
//!   pre-split into one shard per worker and each worker folds exactly
//!   one shard. Simple, but a straggler shard idles every other worker.
//! - **Work-stealing chunk dispatch** ([`run_lines_stealing`],
//!   [`run_source_controlled`]): the input becomes a
//!   queue of sequence-numbered newline-aligned chunks
//!   ([`ChunkSource`]) and a fixed pool of workers claims chunks until
//!   the queue drains, so fast workers steal the share a slow worker
//!   would have been stuck with. Per-chunk results are extracted with
//!   [`ShardFold::take`] (worker state survives across the chunks a
//!   worker claims) and fused **in chunk-sequence order**, which is
//!   byte-for-byte the static shard order — FailFast first-error-line
//!   selection and `RunReport` merging are unchanged.
//!
//! ## Record framing contract
//!
//! The engine is deliberately **format-blind**: at `ShardFold<str>` its
//! only syntactic assumption is that *one record is one line* — chunk
//! boundaries snap to `\n` and each line is fed with its global index
//! (std `lines()` framing, so a trailing `\r` is stripped and CRLF
//! sources work unchanged). What the bytes of a line *mean* is decided
//! entirely above this crate, by a `RecordDecoder` implementation
//! (`jsonx-syntax`): NDJSON, CSV rows, or any future line-framed source
//! run on this same engine — stealing, fault policies, out-of-core
//! chunking included — without it knowing the difference. Formats whose
//! records may span lines need their own `ChunkSource` framing; they are
//! out of scope for the line-based entry points.

use crate::checkpoint::{CheckpointSink, ChunkMeta};
use crate::chunk::{ChunkError, ChunkOptions, ChunkSource, SliceChunks};
use crate::chunk::{CHUNKS_PER_WORKER, DEFAULT_CHUNK_BYTES};
use crate::options::{PipelineOptions, SliceOptions};
use crate::report::{ShardPanic, WorkerTiming};
use crate::shard::shard_lines;
use jsonx_data::crc32;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A sharded fold: the contract every pipeline stage implements.
///
/// The engine feeds one `Item` at a time (with its global index) into a
/// per-worker `State`, finishes each worker's state into an `Out`, and
/// fuses the `Out`s **in shard order** with [`merge`](Self::merge). When
/// `merge` is commutative and associative (or when `Out` is
/// order-sensitive but concatenation-shaped, like per-line verdicts), the
/// sharded result is identical to the sequential fold for every worker
/// count.
///
/// The fold value itself is shared immutably across workers (`Sync`), so
/// it is the right home for per-stage configuration: an equivalence, a
/// compiled schema, a column layout.
pub trait ShardFold<Item: ?Sized>: Sync {
    /// Per-worker scratch state (typers, validators, column builders).
    type State;
    /// Per-shard result, fused across shards.
    type Out: Send;

    /// Fresh state for one worker.
    fn init(&self) -> Self::State;
    /// Folds one item (an NDJSON line or a slice element) into the state.
    /// `index` is the item's global position (line number / document
    /// index); blank-line skipping is the fold's own business.
    fn feed(&self, state: &mut Self::State, item: &Item, index: usize);
    /// Converts a worker's final state into the shard result.
    fn finish(&self, state: Self::State) -> Self::Out;
    /// Fuses two shard results, left shard first.
    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out;

    /// Extracts the current chunk's result from a worker state **without
    /// consuming the state**, leaving it ready for the worker's next
    /// claimed chunk. The work-stealing dispatcher calls this once per
    /// chunk so expensive per-worker machinery (interners, validators,
    /// column builders) survives across the chunks a worker claims.
    ///
    /// The default resets the whole state to [`init`](Self::init) and
    /// finishes the old one — always correct. Override it when part of
    /// the state is reusable machinery that should not be rebuilt per
    /// chunk; the override must leave the state as if freshly
    /// initialised with respect to *output* (the taken `Out` plus a
    /// subsequent `take` must equal two separate folds).
    fn take(&self, state: &mut Self::State) -> Self::Out {
        self.finish(std::mem::replace(state, self.init()))
    }
}

/// What a caught (panic-isolated) run produced: the fused output of the
/// surviving shards plus provenance for any shard whose worker panicked.
///
/// A poisoned shard's partial state is lost — its records simply do not
/// contribute to `out` — but the remaining shards still merge in shard
/// order, so the caller can decide whether a degraded result is usable.
#[derive(Debug)]
pub struct RunOutcome<Out> {
    /// The shard-order fusion of every shard that completed.
    pub out: Out,
    /// How many work units (static shards or claimed chunks) the input
    /// was split into (1 on the sequential path).
    pub shards: usize,
    /// Shards whose fold panicked, in shard order.
    pub poisoned: Vec<ShardPanic>,
    /// Per-worker dispatch accounting, populated only when the run asked
    /// for timing ([`ChunkOptions::timing`]); empty otherwise.
    pub timings: Vec<WorkerTiming>,
    /// Whether a graceful-stop latch ([`RunControl::stop`]) was observed
    /// during the run: workers stopped claiming chunks and drained their
    /// in-flight work, so `out` covers a committed prefix of the input,
    /// not all of it. Always `false` on uncontrolled runs.
    pub interrupted: bool,
}

/// External control for a dispatched run: an optional per-chunk commit
/// hook and an optional graceful-stop latch. The default (no sink, no
/// latch) is a plain run over the whole source.
pub struct RunControl<'a, Out> {
    /// Called once per successfully folded chunk with its [`ChunkMeta`]
    /// and result, before the result is fused (see [`CheckpointSink`]).
    pub sink: Option<&'a dyn CheckpointSink<Out>>,
    /// When set to `true` (by a signal handler, a crashpoint, an
    /// operator), workers stop claiming new chunks, finish what they
    /// hold, and the outcome reports `interrupted`.
    pub stop: Option<&'a AtomicBool>,
}

impl<Out> Default for RunControl<'_, Out> {
    fn default() -> Self {
        RunControl {
            sink: None,
            stop: None,
        }
    }
}

impl<Out> Clone for RunControl<'_, Out> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Out> Copy for RunControl<'_, Out> {}

/// One sequence-numbered chunk result: the taken output, or the panic
/// that poisoned the chunk.
type SeqResult<Out> = (usize, Result<Out, ShardPanic>);

/// Extracts the human-readable payload of a caught panic.
///
/// Public so other `catch_unwind` layers (e.g. the resident service's
/// per-request isolation) report panics in the same shape the engine does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the whole fold on the caller's thread as one panic-isolated
/// shard — the tiny-input / single-worker path of both the line and the
/// slice engines. A panic poisons the shard: the outcome records it and
/// carries the value an empty input folds to.
fn run_sequential<'i, Item: ?Sized + 'i, F: ShardFold<Item>>(
    fold: &F,
    items: impl Iterator<Item = &'i Item>,
) -> RunOutcome<F::Out> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut state = fold.init();
        for (i, item) in items.enumerate() {
            fold.feed(&mut state, item, i);
        }
        fold.finish(state)
    }));
    let result = caught.map_err(|payload| ShardPanic {
        shard: 0,
        first_record: 0,
        message: panic_message(payload.as_ref()),
    });
    collect_outcome(fold, 1, vec![result])
}

/// Runs `fold` over the lines of an in-memory input, isolating worker
/// panics.
///
/// Every line — including blank ones — is fed with its global line index,
/// exactly as a sequential `input.lines().enumerate()` would produce it.
/// The input is pre-split into newline-aligned chunks (roughly
/// [`ChunkOptions::chunk_bytes`] each, or an automatic size targeting
/// [`CHUNKS_PER_WORKER`] chunks per worker) and a fixed worker pool claims
/// chunks through a shared atomic cursor until the queue drains. Results
/// fuse in chunk-sequence order, so the outcome equals
/// [`run_lines_static_caught`] for every worker count and chunk size.
/// Each chunk's fold runs under `catch_unwind`: a panic poisons only that
/// chunk, and the outcome records it instead of unwinding the caller.
///
/// Sequential fallback: inputs below the options' shard threshold and
/// single-worker runs fold on the caller's thread as one chunk — unless
/// timing was requested, in which case the run always dispatches through
/// the chunk queue so the timing account exists.
pub fn run_lines_stealing<F: ShardFold<str>>(
    input: &str,
    fold: &F,
    opts: PipelineOptions,
    chunk: ChunkOptions,
) -> RunOutcome<F::Out> {
    if !chunk.timing && opts.should_run_sequential(input.len()) {
        return run_sequential(fold, input.lines());
    }
    let workers = opts.effective_workers().max(1);
    let target = if chunk.chunk_bytes > 0 {
        chunk.chunk_bytes
    } else {
        auto_chunk_bytes(input.len(), workers, opts.min_shard_bytes)
    };
    let source = SliceChunks::new(input, target);
    run_source_controlled(&source, fold, workers, chunk.timing, RunControl::default())
        .unwrap_or_else(|_| unreachable!("in-memory chunk sources cannot fail"))
}

/// Automatic chunk sizing for in-memory inputs: aim for
/// [`CHUNKS_PER_WORKER`] chunks per worker (fine-grained enough that a
/// straggler redistributes), floored at the options' shard threshold so
/// chunks stay worth their dispatch overhead, capped at
/// [`DEFAULT_CHUNK_BYTES`].
fn auto_chunk_bytes(input_len: usize, workers: usize, min_shard_bytes: usize) -> usize {
    let floor = min_shard_bytes.max(1);
    let cap = DEFAULT_CHUNK_BYTES.max(floor);
    input_len
        .div_ceil(workers.saturating_mul(CHUNKS_PER_WORKER).max(1))
        .clamp(floor, cap)
}

/// The work-stealing dispatcher core: a fixed pool of `workers` threads
/// claims sequence-numbered chunks from `source` until exhaustion, folds
/// each chunk under `catch_unwind`, and fuses every chunk's
/// [`ShardFold::take`]n result in sequence order. A panic poisons only
/// the chunk being folded (the worker discards its state and re-inits on
/// its next claim); a source error aborts the run.
///
/// `control` adds a per-chunk commit hook (fired on the claiming worker,
/// after the chunk's fold succeeds and before its result is fused) and a
/// graceful-stop latch checked before every claim. When the latch trips,
/// workers finish the chunks they hold and stop; the outcome carries
/// `interrupted: true` and the fused prefix of results — which, combined
/// with a [`CheckpointSink`] journal, is what makes an interrupted run
/// resumable. Out-of-core runs pass a
/// [`ReaderChunks`](crate::ReaderChunks) source, whose bounded ring of
/// chunk buffers keeps peak residency at `O(workers × chunk_bytes)`
/// regardless of input size.
pub fn run_source_controlled<S: ChunkSource, F: ShardFold<str>>(
    source: &S,
    fold: &F,
    workers: usize,
    timing: bool,
    control: RunControl<'_, F::Out>,
) -> Result<RunOutcome<F::Out>, ChunkError> {
    let workers = workers.max(1);
    let failure: Mutex<Option<ChunkError>> = Mutex::new(None);
    let per_worker: Vec<(Vec<SeqResult<F::Out>>, WorkerTiming)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let failure = &failure;
                scope.spawn(move || {
                    let mut state: Option<F::State> = None;
                    let mut results = Vec::new();
                    let mut acct = WorkerTiming {
                        worker,
                        ..WorkerTiming::default()
                    };
                    loop {
                        if control.stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                            break;
                        }
                        let chunk = match source.next_chunk() {
                            Ok(Some(chunk)) => chunk,
                            Ok(None) => break,
                            Err(e) => {
                                failure.lock().unwrap().get_or_insert(e);
                                break;
                            }
                        };
                        let seq = chunk.seq;
                        let first_line = chunk.first_line;
                        let started = timing.then(Instant::now);
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            let st = state.get_or_insert_with(|| fold.init());
                            let mut lines = 0usize;
                            for (i, line) in chunk.text.lines().enumerate() {
                                fold.feed(st, line, first_line + i);
                                lines += 1;
                            }
                            (fold.take(st), lines)
                        }));
                        match caught {
                            Ok((mut out, lines)) => {
                                if let Some(sink) = control.sink {
                                    sink.chunk_done(
                                        &ChunkMeta {
                                            seq,
                                            first_line,
                                            lines,
                                            bytes: chunk.text.len(),
                                            input_crc: crc32(chunk.text.as_bytes()),
                                        },
                                        &mut out,
                                    );
                                }
                                acct.records += lines;
                                results.push((seq, Ok(out)));
                            }
                            Err(payload) => {
                                // The state saw a partial chunk; drop
                                // it so the next claim starts fresh.
                                state = None;
                                results.push((
                                    seq,
                                    Err(ShardPanic {
                                        shard: seq,
                                        first_record: first_line,
                                        message: panic_message(payload.as_ref()),
                                    }),
                                ));
                            }
                        }
                        if let Some(t0) = started {
                            acct.busy += t0.elapsed();
                        }
                        acct.chunks += 1;
                        acct.bytes += chunk.text.len();
                        if let Cow::Owned(buf) = chunk.text {
                            source.recycle(buf);
                        }
                    }
                    (results, acct)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatcher worker panicked outside a fold"))
            .collect()
    });
    if let Some(err) = failure.into_inner().unwrap() {
        return Err(err);
    }
    let mut results: Vec<SeqResult<F::Out>> = Vec::new();
    let mut timings: Vec<WorkerTiming> = Vec::with_capacity(if timing { workers } else { 0 });
    for (worker_results, acct) in per_worker {
        results.extend(worker_results);
        if timing {
            timings.push(acct);
        }
    }
    // Sequence order *is* shard order: fuse exactly as the static path.
    results.sort_unstable_by_key(|(seq, _)| *seq);
    let chunk_count = results.len();
    let fair_share = chunk_count.div_ceil(workers);
    for acct in &mut timings {
        acct.steals = acct.chunks.saturating_sub(fair_share);
    }
    let mut outcome = collect_outcome(
        fold,
        chunk_count.max(1),
        results.into_iter().map(|(_, r)| r).collect(),
    );
    outcome.timings = timings;
    outcome.interrupted = control.stop.is_some_and(|s| s.load(Ordering::SeqCst));
    Ok(outcome)
}

/// The historical static-shard dispatch: the input is pre-split into one
/// shard per worker and each worker folds exactly one shard on its own
/// scoped thread. Kept (a) as the baseline the work-stealing dispatcher
/// is benchmarked and differentially tested against, and (b) for callers
/// that specifically want the one-thread-per-shard shape.
pub fn run_lines_static_caught<F: ShardFold<str>>(
    input: &str,
    fold: &F,
    opts: PipelineOptions,
) -> RunOutcome<F::Out> {
    if opts.should_run_sequential(input.len()) {
        return run_sequential(fold, input.lines());
    }
    let shards = shard_lines(input, opts.effective_workers());
    let shard_count = shards.len();
    let results: Vec<Result<F::Out, ShardPanic>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(shard_no, &shard)| {
                let handle = scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut state = fold.init();
                        for (i, line) in shard.text.lines().enumerate() {
                            fold.feed(&mut state, line, shard.first_line + i);
                        }
                        fold.finish(state)
                    }))
                });
                (shard_no, shard.first_line, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(shard_no, first_record, h)| {
                // `join` only fails if a panic escaped `catch_unwind`
                // (e.g. a panicking Drop of the payload); fold both
                // failure shapes into the same per-shard error.
                let caught = h.join().unwrap_or_else(Err);
                caught.map_err(|payload| ShardPanic {
                    shard: shard_no,
                    first_record,
                    message: panic_message(payload.as_ref()),
                })
            })
            .collect()
    });
    collect_outcome(fold, shard_count, results)
}

/// Runs `fold` over `items`, split into contiguous item chunks claimed by
/// a work-stealing worker pool, isolating worker panics (see
/// [`run_lines_stealing`] for the panic contract).
///
/// Chunks hold roughly `len / (workers × CHUNKS_PER_WORKER)` items (never
/// fewer than `min_chunk`) and are claimed through a shared atomic
/// cursor; per-chunk results are [`ShardFold::take`]n and fused in chunk
/// order, so the outcome matches a static split for every worker count.
pub fn run_slice_caught<T: Sync, F: ShardFold<T>>(
    items: &[T],
    fold: &F,
    opts: SliceOptions,
) -> RunOutcome<F::Out> {
    if opts.should_run_sequential(items.len()) {
        return run_sequential(fold, items.iter());
    }
    let workers = opts.effective_workers().max(1);
    let chunk = items
        .len()
        .div_ceil(workers.saturating_mul(CHUNKS_PER_WORKER).max(1))
        .max(opts.min_chunk.max(1));
    let chunk_count = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<SeqResult<F::Out>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(chunk_count))
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut state: Option<F::State> = None;
                    let mut results = Vec::new();
                    loop {
                        let part_no = cursor.fetch_add(1, Ordering::Relaxed);
                        if part_no >= chunk_count {
                            break;
                        }
                        let start = part_no * chunk;
                        let part = &items[start..items.len().min(start + chunk)];
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            let st = state.get_or_insert_with(|| fold.init());
                            for (i, item) in part.iter().enumerate() {
                                fold.feed(st, item, start + i);
                            }
                            fold.take(st)
                        }));
                        match caught {
                            Ok(out) => results.push((part_no, Ok(out))),
                            Err(payload) => {
                                state = None;
                                results.push((
                                    part_no,
                                    Err(ShardPanic {
                                        shard: part_no,
                                        first_record: start,
                                        message: panic_message(payload.as_ref()),
                                    }),
                                ));
                            }
                        }
                    }
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatcher worker panicked outside a fold"))
            .collect()
    });
    let mut results: Vec<SeqResult<F::Out>> = per_worker.into_iter().flatten().collect();
    results.sort_unstable_by_key(|(seq, _)| *seq);
    collect_outcome(
        fold,
        chunk_count,
        results.into_iter().map(|(_, r)| r).collect(),
    )
}

/// Splits per-shard results into surviving outputs and panic provenance,
/// fusing the survivors in shard order.
fn collect_outcome<Item: ?Sized, F: ShardFold<Item>>(
    fold: &F,
    shards: usize,
    results: Vec<Result<F::Out, ShardPanic>>,
) -> RunOutcome<F::Out> {
    let mut outs = Vec::with_capacity(results.len());
    let mut poisoned = Vec::new();
    for result in results {
        match result {
            Ok(out) => outs.push(out),
            Err(panic) => poisoned.push(panic),
        }
    }
    RunOutcome {
        out: fuse_outs(fold, outs),
        shards,
        poisoned,
        timings: Vec::new(),
        interrupted: false,
    }
}

/// Shard-order fusion; an empty shard list folds an empty state so the
/// engine returns the same value the sequential path gives empty input.
fn fuse_outs<Item: ?Sized, F: ShardFold<Item>>(fold: &F, outs: Vec<F::Out>) -> F::Out {
    outs.into_iter()
        .reduce(|a, b| fold.merge(a, b))
        .unwrap_or_else(|| fold.finish(fold.init()))
}

/// First-error-line selection for folds whose shard result is
/// `Result<T, (line, E)>`: successful shards fuse with `merge_ok`, and
/// among failing shards the **lowest line number** wins — the error a
/// sequential scan would have hit first.
pub fn merge_line_results<T, E>(
    left: Result<T, (usize, E)>,
    right: Result<T, (usize, E)>,
    merge_ok: impl FnOnce(T, T) -> T,
) -> Result<T, (usize, E)> {
    match (left, right) {
        (Ok(a), Ok(b)) => Ok(merge_ok(a, b)),
        (Err(a), Err(b)) => Err(if b.0 < a.0 { b } else { a }),
        (Err(a), Ok(_)) => Err(a),
        (Ok(_), Err(b)) => Err(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy fold: sum of parsed integers, first bad line as error.
    struct SumFold;

    impl ShardFold<str> for SumFold {
        type State = Result<i64, (usize, String)>;
        type Out = Result<i64, (usize, String)>;

        fn init(&self) -> Self::State {
            Ok(0)
        }

        fn feed(&self, state: &mut Self::State, line: &str, index: usize) {
            let Ok(acc) = state else { return };
            if line.trim().is_empty() {
                return;
            }
            match line.trim().parse::<i64>() {
                Ok(n) => *acc += n,
                Err(e) => *state = Err((index, e.to_string())),
            }
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
            merge_line_results(left, right, |a, b| a + b)
        }
    }

    fn opts(workers: usize) -> PipelineOptions {
        PipelineOptions {
            workers,
            min_shard_bytes: 4,
        }
    }

    /// The fused output of a run in which no chunk may be poisoned.
    fn clean<T>(outcome: RunOutcome<T>) -> T {
        assert!(outcome.poisoned.is_empty(), "{:?}", outcome.poisoned);
        outcome.out
    }

    fn stealing<F: ShardFold<str>>(input: &str, fold: &F, workers: usize) -> RunOutcome<F::Out> {
        run_lines_stealing(input, fold, opts(workers), ChunkOptions::default())
    }

    /// An out-of-core run over `input` through a [`ReaderChunks`] ring.
    fn reader<F: ShardFold<str>>(
        input: &[u8],
        fold: &F,
        workers: usize,
        chunk_bytes: usize,
    ) -> Result<RunOutcome<F::Out>, ChunkError> {
        let source = crate::ReaderChunks::new(std::io::Cursor::new(input), chunk_bytes, workers);
        run_source_controlled(&source, fold, workers, false, RunControl::default())
    }

    #[test]
    fn sharded_sum_equals_sequential_at_every_worker_count() {
        let input: String = (1..=200).map(|i| format!("{i}\n")).collect();
        let expected = clean(stealing(&input, &SumFold, 1));
        assert_eq!(expected, Ok((1..=200i64).sum()));
        for workers in [2, 3, 8, 16] {
            assert_eq!(clean(stealing(&input, &SumFold, workers)), expected);
        }
    }

    #[test]
    fn first_error_line_wins_across_shards() {
        let mut lines: Vec<String> = (1..=100).map(|i| i.to_string()).collect();
        lines[90] = "late-bad".into();
        lines[7] = "early-bad".into();
        let input = lines.join("\n");
        for workers in [1, 2, 4, 8] {
            let out = clean(stealing(&input, &SumFold, workers));
            assert_eq!(out.as_ref().unwrap_err().0, 7, "workers={workers}");
        }
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline() {
        let input = "1\n\n2\n\n3"; // blank lines, no trailing newline
        for workers in [1, 2, 4] {
            assert_eq!(clean(stealing(input, &SumFold, workers)), Ok(6));
        }
    }

    #[test]
    fn empty_input_yields_unit() {
        assert_eq!(clean(stealing("", &SumFold, 4)), Ok(0));
    }

    /// Slice engine: concatenation-shaped fold keeps input order.
    struct CollectFold;

    impl ShardFold<i32> for CollectFold {
        type State = Vec<(usize, i32)>;
        type Out = Vec<(usize, i32)>;

        fn init(&self) -> Self::State {
            Vec::new()
        }

        fn feed(&self, state: &mut Self::State, item: &i32, index: usize) {
            state.push((index, *item));
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
            left.extend(right);
            left
        }
    }

    #[test]
    fn slice_engine_preserves_order_and_indices() {
        let items: Vec<i32> = (0..500).collect();
        let expected: Vec<(usize, i32)> = items.iter().map(|&v| (v as usize, v)).collect();
        for workers in [1, 2, 3, 8] {
            let out = clean(run_slice_caught(
                &items,
                &CollectFold,
                SliceOptions {
                    workers,
                    min_chunk: 16,
                },
            ));
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn slice_engine_small_inputs_fall_back() {
        let items = [1, 2, 3];
        let out = clean(run_slice_caught(
            &items,
            &CollectFold,
            SliceOptions::default(),
        ));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    /// A fold that panics on a trigger line, for panic-isolation tests.
    struct PanicOnFold;

    impl ShardFold<str> for PanicOnFold {
        type State = Vec<usize>;
        type Out = Vec<usize>;

        fn init(&self) -> Self::State {
            Vec::new()
        }

        fn feed(&self, state: &mut Self::State, line: &str, index: usize) {
            if line == "boom" {
                panic!("injected fold panic at record {index}");
            }
            if !line.is_empty() {
                state.push(index);
            }
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
            left.extend(right);
            left
        }
    }

    #[test]
    fn panicking_shard_is_isolated_and_named() {
        // Enough lines that 4 workers shard; "boom" lands in one shard.
        let mut lines: Vec<String> = (0..100).map(|i| format!("line-{i:04}")).collect();
        lines[60] = "boom".into();
        let input = lines.join("\n");
        let outcome = stealing(&input, &PanicOnFold, 4);
        assert!(outcome.shards > 1, "input must actually shard");
        assert_eq!(outcome.poisoned.len(), 1);
        let poisoned = &outcome.poisoned[0];
        assert!(poisoned.message.contains("injected fold panic"));
        assert!(poisoned.first_record <= 60);
        // Surviving shards still merged: every record outside the
        // poisoned shard is present and in order.
        assert!(!outcome.out.is_empty());
        assert!(outcome.out.windows(2).all(|w| w[0] < w[1]));
        assert!(!outcome.out.contains(&60));
    }

    #[test]
    fn single_worker_panic_names_shard_zero() {
        let outcome = stealing("boom", &PanicOnFold, 1);
        let err = &outcome.poisoned[0];
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("injected fold panic"));
    }

    #[test]
    fn sequential_path_is_panic_isolated_too() {
        let outcome = stealing("a\nboom\nb", &PanicOnFold, 1);
        assert_eq!(outcome.shards, 1);
        assert_eq!(outcome.poisoned.len(), 1);
        assert!(outcome.out.is_empty(), "poisoned shard's output is lost");
    }

    #[test]
    fn stealing_matches_static_across_chunk_sizes() {
        let input: String = (1..=500).map(|i| format!("{i}\n")).collect();
        let expected = run_lines_static_caught(&input, &SumFold, opts(4)).out;
        for workers in [1, 2, 3, 8] {
            for chunk_bytes in [1usize, 64, 4096, 1 << 20] {
                let outcome = run_lines_stealing(
                    &input,
                    &SumFold,
                    opts(workers),
                    ChunkOptions::with_chunk_bytes(chunk_bytes),
                );
                assert_eq!(
                    outcome.out, expected,
                    "workers={workers} chunk_bytes={chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn reader_matches_slice_dispatch() {
        let mut lines: Vec<String> = (1..=300).map(|i| i.to_string()).collect();
        lines[123] = "bad".into();
        let input = lines.join("\n");
        let expected = stealing(&input, &SumFold, 3).out;
        let outcome = reader(input.as_bytes(), &SumFold, 3, 128).unwrap();
        assert_eq!(outcome.out, expected);
        assert_eq!(outcome.out.as_ref().unwrap_err().0, 123);
        assert!(outcome.shards > 1);
    }

    #[test]
    fn timing_accounts_for_every_chunk() {
        let input: String = (1..=400).map(|i| format!("{i}\n")).collect();
        let chunk = ChunkOptions {
            chunk_bytes: 64,
            ring: 0,
            timing: true,
        };
        let outcome = run_lines_stealing(&input, &SumFold, opts(3), chunk);
        assert_eq!(outcome.out, Ok((1..=400i64).sum()));
        assert_eq!(outcome.timings.len(), 3);
        let chunks: usize = outcome.timings.iter().map(|t| t.chunks).sum();
        assert_eq!(chunks, outcome.shards);
        let records: usize = outcome.timings.iter().map(|t| t.records).sum();
        assert_eq!(records, 400);
        let bytes: usize = outcome.timings.iter().map(|t| t.bytes).sum();
        assert_eq!(bytes, input.len());
        // With a single worker every chunk lands on worker 0 and its
        // fair share is the whole queue: zero steals by definition.
        let solo = run_lines_stealing(&input, &SumFold, opts(1), chunk);
        assert_eq!(solo.timings.len(), 1);
        assert_eq!(solo.timings[0].steals, 0);
    }

    #[test]
    fn timing_forces_dispatch_on_tiny_input() {
        let outcome = run_lines_stealing(
            "1\n2\n",
            &SumFold,
            opts(2),
            ChunkOptions {
                timing: true,
                ..ChunkOptions::default()
            },
        );
        assert_eq!(outcome.out, Ok(3));
        assert!(!outcome.timings.is_empty());
    }

    #[test]
    fn stealing_panic_poisons_only_its_chunk_and_worker_state_recovers() {
        let mut lines: Vec<String> = (0..200).map(|i| format!("line-{i:04}")).collect();
        lines[60] = "boom".into();
        let input = lines.join("\n");
        // One worker claims every chunk, so the poisoned chunk's state
        // reset must not leak records from before the panic.
        let outcome = run_lines_stealing(
            &input,
            &PanicOnFold,
            opts(1),
            ChunkOptions {
                chunk_bytes: 256,
                ring: 0,
                timing: true,
            },
        );
        assert!(outcome.shards > 1);
        assert_eq!(outcome.poisoned.len(), 1);
        assert!(outcome.poisoned[0].first_record <= 60);
        assert!(!outcome.out.contains(&60));
        assert!(outcome.out.windows(2).all(|w| w[0] < w[1]));
        // Records after the poisoned chunk are present: the worker
        // recovered with a fresh state.
        assert!(outcome.out.contains(&199));
    }

    #[test]
    fn reader_surfaces_input_errors() {
        let mut bytes = b"1\n2\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let err = reader(&bytes, &SumFold, 2, 2).unwrap_err();
        assert!(matches!(err, ChunkError::NotUtf8 { .. }));
    }

    #[test]
    fn slice_panic_is_isolated() {
        struct PanicOnNegative;
        impl ShardFold<i32> for PanicOnNegative {
            type State = i64;
            type Out = i64;
            fn init(&self) -> i64 {
                0
            }
            fn feed(&self, acc: &mut i64, item: &i32, _index: usize) {
                assert!(*item >= 0, "negative item");
                *acc += i64::from(*item);
            }
            fn finish(&self, acc: i64) -> i64 {
                acc
            }
            fn merge(&self, a: i64, b: i64) -> i64 {
                a + b
            }
        }
        let mut items: Vec<i32> = (0..400).collect();
        items[350] = -1;
        let outcome = run_slice_caught(
            &items,
            &PanicOnNegative,
            SliceOptions {
                workers: 4,
                min_chunk: 16,
            },
        );
        assert_eq!(outcome.poisoned.len(), 1);
        assert!(outcome.poisoned[0].first_record <= 350);
        assert!(outcome.poisoned[0].message.contains("negative item"));
    }
}
