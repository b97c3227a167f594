//! # jsonx-pipeline
//!
//! The generic sharded execution engine behind every parallel workload in
//! the workspace. §4.1's inference line is built on a per-shard fold plus a
//! commutative, associative merge — exactly the algebra streaming
//! validation (PR 2) and schema-driven translation (§5) need as well.
//! Before this crate, each of those paths hand-rolled the same
//! shard → scoped-spawn → ordered-merge machinery; now they are thin
//! [`ShardFold`] adapters over one engine.
//!
//! The pieces:
//!
//! * [`ShardFold`] — the fold/merge contract: per-worker [`State`]
//!   (`ShardFold::State`) fed one item at a time, finished into an
//!   `Out`, and `Out`s fused **in shard order**. When `merge` is
//!   commutative and associative the sharded result is identical to the
//!   sequential fold for every worker count — the property all adapter
//!   suites pin.
//! * [`run_lines`] — NDJSON execution: newline-boundary sharding
//!   ([`shard_lines`], which counts lines in the same scan that finds the
//!   boundaries), scoped worker threads, shard-order merge.
//! * [`run_slice`] — the same engine over an in-memory `&[T]` (the DOM
//!   inference path), chunked by item count instead of bytes.
//! * [`merge_line_results`] — first-error-line selection for folds whose
//!   `Out` is `Result<T, (line, E)>`: the lowest failing line wins,
//!   matching what a sequential scan would have reported first.
//! * [`PipelineOptions`] / [`SliceOptions`] — the shared worker-count and
//!   sequential-fallback knobs. Two thin structs remain only because the
//!   byte-sharded and item-sharded engines measure "too small to shard"
//!   in different units (bytes vs documents); the worker-resolution logic
//!   ([`resolve_workers`]) and the fallback decisions live here once.

//! * [`run_lines_caught`] / [`run_slice_caught`] — the panic-isolated
//!   engine underneath: each shard's fold runs under `catch_unwind`, and a
//!   [`RunOutcome`] carries the surviving shards' fusion next to
//!   [`ShardPanic`] provenance for the poisoned ones. [`run_lines`] /
//!   [`run_slice`] are their fail-fast faces, returning `Err` on the
//!   first poisoned shard.
//! * [`ErrorPolicy`] / [`ErrorSummary`] / [`RunReport`] — the
//!   fault-tolerance vocabulary tolerant stages fold per shard and merge
//!   in shard order, so dirty collections degrade into an account of
//!   rejected records instead of a dead run.
//! * [`ChunkSource`] / [`run_lines_stealing`] / [`run_reader_caught`] —
//!   out-of-core chunked input and work-stealing dispatch: the input
//!   becomes a queue of sequence-numbered newline-aligned chunks (an
//!   atomic cursor over a pre-split in-memory slice, [`SliceChunks`], or
//!   a bounded ring of reusable buffers over any `BufRead`,
//!   [`ReaderChunks`]) claimed by a fixed worker pool, with per-chunk
//!   results extracted via [`ShardFold::take`] and fused in sequence
//!   order — identical outcomes to static sharding, without stragglers
//!   idling workers and without materializing the corpus.

mod checkpoint;
mod chunk;
mod engine;
mod options;
mod report;
mod shard;

pub use checkpoint::{
    read_journal, CheckpointSink, ChunkJournal, ChunkMeta, Committer, JournalRead, JournalWriter,
};
pub use chunk::{
    Chunk, ChunkError, ChunkOptions, ChunkSource, ReaderChunks, SliceChunks, DEFAULT_CHUNK_BYTES,
};
pub use engine::{
    merge_line_results, panic_message, run_lines, run_lines_caught, run_lines_static_caught,
    run_lines_stealing, run_reader_caught, run_slice, run_slice_caught, run_source_caught,
    run_source_controlled, RunControl, RunOutcome, ShardFold,
};
pub use options::{resolve_workers, PipelineOptions, SliceOptions};
pub use report::{
    ErrorPolicy, ErrorSummary, RecordDiagnostic, RunReport, ShardPanic, WorkerTiming,
    DIAGNOSTIC_SAMPLES,
};
pub use shard::{chunk_lines, shard_lines, Shard};
