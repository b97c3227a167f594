//! Crash-safe journaled runs: durable chunk-commit journals and
//! `--resume` for the out-of-core streaming stages, plus translation
//! straight into a row-grouped `.jxc` file.
//!
//! A journaled run writes one CRC-framed, fsync'd record per committed
//! chunk to a [journal](jsonx_pipeline::JournalWriter) *before* the
//! chunk's result is fused — and chunks commit strictly in input order
//! (see [`ChunkJournal`]). Because chunk boundaries depend only on the
//! byte stream and the chunk-size target (never on worker count or
//! scheduling), the journal is a durable, deterministic prefix of the
//! run: after a crash, a signal, or an operator stop, rerunning with the
//! same journal skips every committed chunk, seeks the input to the
//! first uncommitted byte, and merges fresh tail results onto the
//! decoded prefix. The final output is byte-identical to an
//! uninterrupted run at any worker count.
//!
//! What goes in a journal record is the chunk's **entire observable
//! effect** — the record count, the full rejection account (including
//! raw quarantined lines when the run keeps them) and the stage output
//! (an inferred [`JType`], a verdict vector) — plus the CRC-32 of the
//! chunk's input bytes. Translation is the exception for the output:
//! its chunks become row groups of the `.jxc` file itself, written and
//! `sync_data`'d before the record that points at them (offset, length,
//! CRC, rows) is appended, so the journal never holds a second copy of
//! the output. Other final artifacts — stdout verdicts, the quarantine
//! sidecar — are only written at end-of-run, exactly like an unjournaled
//! run.
//!
//! Torn tails are expected, not fatal: [`read_journal`] stops at the
//! first incomplete or CRC-failing record, and the resume path truncates
//! the file back to the intact prefix before appending
//! ([`JournalWriter::resume`]); a resumed translation likewise checks
//! every committed row group and cuts the `.jxc` after the last one
//! ([`JxcWriter::resume`]). A record damaged *before* the tail, a header
//! that does not match the current invocation, or committed input bytes
//! whose CRC no longer matches mean the journal belongs to a different
//! run (input replaced or edited, options changed, incompatible
//! version) and the resume refuses instead of guessing.
//!
//! Translation journals both of its passes into one file, phase-tagged,
//! with a `type` marker record sealing phase 1 — so a kill during either
//! pass resumes precisely, and the shred layout is reconstructed from
//! the journal rather than re-inferred.

use crate::fastpath::{FastJsonDecoder, FastPlan};
use crate::streaming::{
    infer_streaming_source, seal_stage_outcome, FaultFold, FaultOptions, InferStage, LineVerdict,
    RecordStage, ShardYield, StreamError, StreamSource, StreamingOptions, TranslateStage,
    ValidateStage,
};
use jsonx_core::{parse_type, print_type, Equivalence, JType, PrintOptions};
use jsonx_data::{crc32_update, Number, Object, Value};
use jsonx_pipeline::{
    read_journal, run_source_controlled, ChunkJournal, ChunkMeta, ChunkOptions, Committer,
    ErrorPolicy, ErrorSummary, JournalWriter, ReaderChunks, RecordDiagnostic, RunControl,
    RunReport, DEFAULT_CHUNK_BYTES,
};
use jsonx_schema::{CompiledSchema, ValidatorOptions};
use jsonx_syntax::{parse, ParseLimits};
use jsonx_translate::{encode_group, ColumnarBatch, GroupEntry, JxcWriter, RowGroup, Shredder};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock};

/// Journal format version — bumped whenever record shapes change, so a
/// stale journal refuses cleanly instead of decoding garbage. Version 2:
/// canonical header config, input CRCs in chunk records, translation
/// records pointing at `.jxc` row groups.
const JOURNAL_VERSION: i64 = 2;

/// How a journaled entry point finds its journal and reacts to stop
/// requests.
pub struct JournalControl<'a> {
    /// Path of the journal file.
    pub journal: &'a Path,
    /// `false` starts a fresh run (truncating any prior journal); `true`
    /// resumes from the journal's committed prefix.
    pub resume: bool,
    /// Graceful-stop latch: when set (signal handler, operator), workers
    /// stop claiming chunks, drain in-flight work, and the run returns
    /// [`StreamError::Interrupted`] with everything committed so far
    /// durable in the journal.
    pub stop: Option<&'a AtomicBool>,
    /// Called after each journal commit with the running commit count —
    /// the crash/stop injection hook the kill-and-resume harness uses.
    pub after_commit: Option<Arc<dyn Fn(u64) + Send + Sync>>,
}

impl<'a> JournalControl<'a> {
    /// A control with just a journal path: fresh run, no stop latch.
    pub fn new(journal: &'a Path) -> Self {
        JournalControl {
            journal,
            resume: false,
            stop: None,
            after_commit: None,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON codec plumbing
// ---------------------------------------------------------------------------

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn num(n: usize) -> Value {
    Value::Num(Number::Int(n as i64))
}

fn num64(n: u64) -> Value {
    Value::Num(Number::Int(
        i64::try_from(n).expect("journal integers fit in i64"),
    ))
}

fn opt_num(n: Option<usize>) -> Value {
    n.map_or(Value::Null, num)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut o = Object::new();
    for (k, v) in entries {
        o.insert(k, v);
    }
    Value::Obj(o)
}

fn get_usize(v: &Value, key: &str) -> Option<usize> {
    let n = v.get(key)?.as_i64()?;
    usize::try_from(n).ok()
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    u64::try_from(v.get(key)?.as_i64()?).ok()
}

fn get_u32(v: &Value, key: &str) -> Option<u32> {
    u32::try_from(v.get(key)?.as_i64()?).ok()
}

fn get_str<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key)?.as_str()
}
/// Re-interns a diagnostic kind label read back from a journal.
///
/// [`RecordDiagnostic::kind`] is `&'static str` in memory; labels are a
/// small closed set (one per error kind), so leaking each distinct label
/// once on resume is bounded and keeps the report types unchanged.
fn intern_kind(kind: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap();
    if let Some(interned) = cache.get(kind) {
        return interned;
    }
    let leaked: &'static str = Box::leak(kind.to_string().into_boxed_str());
    cache.insert(kind.to_string(), leaked);
    leaked
}

fn encode_errors(e: &ErrorSummary) -> Value {
    let kinds = e
        .by_kind
        .iter()
        .map(|(k, n)| Value::Arr(vec![s(*k), num(*n)]))
        .collect();
    let rejects = e
        .rejects
        .iter()
        .map(|d| {
            obj(vec![
                ("record", num(d.record)),
                ("offset", num(d.offset)),
                ("kind", s(d.kind)),
                ("message", s(d.message.clone())),
                ("raw", d.raw.clone().map(Value::Str).unwrap_or(Value::Null)),
            ])
        })
        .collect();
    obj(vec![
        ("total", num(e.total)),
        ("dropped", num(e.dropped)),
        ("kinds", Value::Arr(kinds)),
        ("rejects", Value::Arr(rejects)),
    ])
}

fn decode_errors(v: &Value) -> Option<ErrorSummary> {
    let mut by_kind = BTreeMap::new();
    for pair in v.get("kinds")?.as_array()? {
        let kind = pair.get_index(0)?.as_str()?;
        let n = usize::try_from(pair.get_index(1)?.as_i64()?).ok()?;
        by_kind.insert(intern_kind(kind), n);
    }
    let mut rejects = Vec::new();
    for d in v.get("rejects")?.as_array()? {
        rejects.push(RecordDiagnostic {
            record: get_usize(d, "record")?,
            offset: get_usize(d, "offset")?,
            kind: intern_kind(get_str(d, "kind")?),
            message: get_str(d, "message")?.to_string(),
            raw: match d.get("raw")? {
                Value::Null => None,
                raw => Some(raw.as_str()?.to_string()),
            },
        });
    }
    Some(ErrorSummary {
        total: get_usize(v, "total")?,
        by_kind,
        rejects,
        dropped: get_usize(v, "dropped")?,
    })
}

/// How one stage output round-trips through a journal record. Plain
/// function pointers so the commit closure handed to [`ChunkJournal`]
/// stays `'static` without capturing borrowed stage state.
struct OutCodec<T> {
    encode: fn(&T) -> Option<Value>,
    decode: fn(&Value) -> Option<T>,
}

fn infer_codec() -> OutCodec<JType> {
    OutCodec {
        // The counting printer/parser round-trip is exact (pinned by
        // `counting_round_trip_exact`), so the journaled prefix fuses to
        // the same type the live run computed.
        encode: |ty| Some(s(print_type(ty, PrintOptions::with_counts()))),
        decode: |v| parse_type(v.as_str()?).ok(),
    }
}

fn validate_codec() -> OutCodec<Vec<(usize, LineVerdict)>> {
    OutCodec {
        encode: |verdicts| {
            let mut rows = Vec::with_capacity(verdicts.len());
            for (record, verdict) in verdicts {
                let flag = match verdict {
                    LineVerdict::Valid => 1,
                    LineVerdict::Invalid => 0,
                    // Guarded source runs reject malformed lines to the
                    // fault layer instead of recording inline verdicts,
                    // so this arm is unreachable on the journaled path —
                    // refuse to commit rather than journal a lie.
                    LineVerdict::Malformed(_) => return None,
                };
                rows.push(Value::Arr(vec![num(*record), num(flag)]));
            }
            Some(Value::Arr(rows))
        },
        decode: |v| {
            let mut verdicts = Vec::new();
            for row in v.as_array()? {
                let record = usize::try_from(row.get_index(0)?.as_i64()?).ok()?;
                let verdict = match row.get_index(1)?.as_i64()? {
                    1 => LineVerdict::Valid,
                    0 => LineVerdict::Invalid,
                    _ => return None,
                };
                verdicts.push((record, verdict));
            }
            Some(verdicts)
        },
    }
}

/// A translation chunk record's output: where its row group landed.
fn group_value(g: &GroupEntry) -> Value {
    obj(vec![
        ("offset", num64(g.offset)),
        ("len", num64(g.len)),
        ("rows", num64(g.rows)),
        ("crc", num64(u64::from(g.crc))),
    ])
}

fn decode_group(v: &Value) -> Option<GroupEntry> {
    Some(GroupEntry {
        offset: get_u64(v, "offset")?,
        len: get_u64(v, "len")?,
        rows: get_u64(v, "rows")?,
        crc: get_u32(v, "crc")?,
    })
}

// ---------------------------------------------------------------------------
// Journal session: header validation, input identity, prefix decoding
// ---------------------------------------------------------------------------

/// The fault options, field by field under stable names — so renaming a
/// Rust field or variant cannot make a valid journal unresumable.
fn fault_config(fault: &FaultOptions) -> Vec<(&'static str, Value)> {
    let (policy, max_errors) = match fault.policy {
        ErrorPolicy::FailFast => ("fail-fast", None),
        ErrorPolicy::Skip { max_errors } => ("skip", max_errors),
        ErrorPolicy::Collect { max_errors } => ("collect", Some(max_errors)),
    };
    let ParseLimits {
        max_depth,
        max_input_bytes,
        max_string_bytes,
    } = fault.limits;
    vec![
        ("policy", s(policy)),
        ("max_errors", opt_num(max_errors)),
        ("keep_rejects", Value::Bool(fault.keep_rejects)),
        ("max_depth", num(max_depth)),
        ("max_input_bytes", opt_num(max_input_bytes)),
        ("max_string_bytes", opt_num(max_string_bytes)),
    ]
}

fn equiv_config(equiv: Equivalence) -> (&'static str, Value) {
    let name = match equiv {
        Equivalence::Kind => "kind",
        Equivalence::Label => "label",
    };
    ("equiv", s(name))
}

fn header_record(
    stage: &str,
    chunk_bytes: usize,
    input_bytes: u64,
    config: Vec<(&str, Value)>,
) -> Value {
    obj(vec![
        ("kind", s("header")),
        ("v", Value::Num(Number::Int(JOURNAL_VERSION))),
        ("stage", s(stage)),
        ("chunk_bytes", num(chunk_bytes)),
        ("input_bytes", num64(input_bytes)),
        ("config", obj(config)),
    ])
}

fn input_err(e: impl std::fmt::Display) -> StreamError {
    StreamError::Input(e.to_string())
}

fn journal_err(context: &str, e: impl std::fmt::Display) -> StreamError {
    StreamError::Input(format!("checkpoint journal: {context}: {e}"))
}

/// Opens the journal for this run: fresh runs truncate and write the
/// header; resumes read the intact prefix back, verify the header
/// matches this invocation and the committed input bytes are unchanged,
/// cut any torn tail, and return the committed records for replay.
fn open_session(
    ctrl: &JournalControl<'_>,
    input: &Path,
    header: Value,
) -> Result<(JournalWriter, Vec<Value>), StreamError> {
    let path = ctrl.journal;
    if !ctrl.resume {
        let mut writer =
            JournalWriter::create(path).map_err(|e| journal_err(&path.display().to_string(), e))?;
        writer
            .append(&header.to_json_string())
            .map_err(|e| journal_err("writing header", e))?;
        return Ok((writer, Vec::new()));
    }
    let read = read_journal(path).map_err(|e| {
        StreamError::Input(format!(
            "--resume: cannot read checkpoint journal {}: {e}",
            path.display()
        ))
    })?;
    let mut records = Vec::with_capacity(read.records.len());
    for (idx, line) in read.records.iter().enumerate() {
        let value = parse(line).map_err(|e| {
            journal_err(
                &format!("record {idx} is framed correctly but is not JSON"),
                e,
            )
        })?;
        records.push(value);
    }
    match records.first() {
        // A journal that died before its header committed holds no
        // progress; restart it as a fresh run.
        None => {
            let mut writer = JournalWriter::resume(path, read.valid_bytes)
                .map_err(|e| journal_err("truncating torn tail", e))?;
            writer
                .append(&header.to_json_string())
                .map_err(|e| journal_err("writing header", e))?;
            Ok((writer, Vec::new()))
        }
        Some(found) if *found == header => {
            records.remove(0);
            verify_input(input, &records)?;
            let writer = JournalWriter::resume(path, read.valid_bytes)
                .map_err(|e| journal_err("truncating torn tail", e))?;
            Ok((writer, records))
        }
        Some(found) if found.get("v") != header.get("v") => Err(StreamError::Input(format!(
            "--resume: checkpoint journal {} has format version {}, but this build \
             resumes only version {JOURNAL_VERSION}; pass a fresh --checkpoint path \
             or drop --resume",
            path.display(),
            found
                .get("v")
                .map_or("(none)".to_string(), Value::to_json_string),
        ))),
        Some(found) => Err(StreamError::Input(format!(
            "--resume: checkpoint journal {} was written by a different run \
             (expected header {header}, found {found}); \
             pass a fresh --checkpoint path or drop --resume",
            path.display()
        ))),
    }
}

/// Re-reads the committed prefix of `input` (sequentially, no parsing)
/// and checks each committed chunk's bytes against the CRC-32 its record
/// carries: a resume must skip exactly the bytes that were committed,
/// not same-length bytes with different content.
fn verify_input(input: &Path, records: &[Value]) -> Result<(), StreamError> {
    let bad = |what: &str| journal_err("committed chunk records", what);
    // Both phases of a translation chunk the same bytes the same way, so
    // the longest committed list covers every other one.
    let mut chunks: Vec<(usize, u32)> = Vec::new();
    for phase in [1, 2] {
        for (i, rec) in phase_chunks(records, phase).into_iter().enumerate() {
            let chunk = get_usize(rec, "bytes")
                .zip(get_u32(rec, "crc"))
                .ok_or_else(|| bad("a record lacks its input size or CRC"))?;
            match chunks.get(i) {
                Some(seen) if *seen != chunk => return Err(bad("the two phases disagree")),
                Some(_) => {}
                None => chunks.push(chunk),
            }
        }
    }
    let mut file = File::open(input).map_err(|e| input_err(format!("{}: {e}", input.display())))?;
    let mut buf = vec![0u8; 64 * 1024];
    for (seq, (bytes, crc)) in chunks.into_iter().enumerate() {
        let mut left = bytes;
        let mut state = 0xFFFF_FFFF;
        while left > 0 {
            let n = left.min(buf.len());
            file.read_exact(&mut buf[..n])
                .map_err(|e| input_err(format!("{}: {e}", input.display())))?;
            state = crc32_update(state, &buf[..n]);
            left -= n;
        }
        if state ^ 0xFFFF_FFFF != crc {
            return Err(StreamError::Input(format!(
                "--resume: {} changed since chunk {seq} was committed (its bytes no longer \
                 match the journal's CRC); pass a fresh --checkpoint path or drop --resume",
                input.display()
            )));
        }
    }
    Ok(())
}

fn phase_chunks(records: &[Value], phase: usize) -> Vec<&Value> {
    records
        .iter()
        .filter(|r| {
            r.get("kind").and_then(Value::as_str) == Some("chunk")
                && r.get("phase").and_then(Value::as_i64) == Some(phase as i64)
        })
        .collect()
}

fn type_marker(records: &[Value]) -> Option<&str> {
    records
        .iter()
        .find(|r| r.get("kind").and_then(Value::as_str) == Some("type"))
        .and_then(|r| r.get("type"))
        .and_then(Value::as_str)
}

/// A chunk record's fields except its stage output, or `None` for a
/// halted chunk: it stopped feeding mid-way, so its partial output must
/// never become durable (and `None` latches the committer, so nothing
/// after it commits either).
fn chunk_fields<T>(phase: usize, meta: &ChunkMeta, y: &ShardYield<T>) -> Option<Object> {
    if y.halt.is_some() {
        return None;
    }
    let Value::Obj(fields) = obj(vec![
        ("kind", s("chunk")),
        ("phase", num(phase)),
        ("seq", num(meta.seq)),
        ("first", num(meta.first_line)),
        ("lines", num(meta.lines)),
        ("bytes", num(meta.bytes)),
        ("crc", num64(u64::from(meta.input_crc))),
        ("records", num(y.records)),
        ("errors", encode_errors(&y.errors)),
    ]) else {
        unreachable!("obj builds an object")
    };
    Some(fields)
}

/// The journal payload for a chunk of a stage whose output the record
/// carries itself (inference, validation).
fn record_payload<T>(
    phase: usize,
    encode: fn(&T) -> Option<Value>,
) -> impl Fn(&ChunkMeta, &mut ShardYield<T>) -> Option<String> {
    move |meta, y| {
        let mut record = chunk_fields(phase, meta, y)?;
        record.insert("out", encode(&y.out)?);
        Some(Value::Obj(record).to_json_string())
    }
}

/// A committed chunk record, decoded.
struct ChunkRecord<'v> {
    seq: usize,
    first_line: usize,
    lines: usize,
    bytes: usize,
    records: usize,
    errors: ErrorSummary,
    out: &'v Value,
}

fn decode_record(value: &Value) -> Option<ChunkRecord<'_>> {
    Some(ChunkRecord {
        seq: get_usize(value, "seq")?,
        first_line: get_usize(value, "first")?,
        lines: get_usize(value, "lines")?,
        bytes: get_usize(value, "bytes")?,
        records: get_usize(value, "records")?,
        errors: decode_errors(value.get("errors")?)?,
        out: value.get("out")?,
    })
}

fn decode_records<'v>(records: &[&'v Value]) -> Result<Vec<ChunkRecord<'v>>, StreamError> {
    records
        .iter()
        .enumerate()
        .map(|(idx, value)| {
            decode_record(value).ok_or_else(|| {
                StreamError::Input(format!(
                    "checkpoint journal: committed chunk record {idx} cannot be decoded"
                ))
            })
        })
        .collect()
}

/// Folds the committed prefix's outputs in seq order with the stage's
/// own merge — the same fusion the live run applied.
fn replay_outs<S: RecordStage>(
    stage: &S,
    committed: &[ChunkRecord<'_>],
    decode: fn(&Value) -> Option<S::Out>,
) -> Result<Option<S::Out>, StreamError> {
    let mut acc: Option<S::Out> = None;
    for (idx, c) in committed.iter().enumerate() {
        let out = decode(c.out).ok_or_else(|| {
            StreamError::Input(format!(
                "checkpoint journal: committed chunk record {idx} has an undecodable output"
            ))
        })?;
        acc = Some(match acc.take() {
            Some(prefix) => stage.merge(prefix, out),
            None => out,
        });
    }
    Ok(acc)
}

// ---------------------------------------------------------------------------
// The journaled runner
// ---------------------------------------------------------------------------

fn effective_chunk_bytes(chunk: &ChunkOptions) -> usize {
    if chunk.chunk_bytes > 0 {
        chunk.chunk_bytes
    } else {
        DEFAULT_CHUNK_BYTES
    }
}

fn input_len(input: &Path) -> Result<u64, StreamError> {
    std::fs::metadata(input)
        .map(|m| m.len())
        .map_err(|e| StreamError::Input(format!("{}: {e}", input.display())))
}

/// Runs one stage pass with in-order chunk commits: accounts for the
/// committed prefix, seeks the input past it, streams the tail through
/// the engine with a [`ChunkJournal`] over `committer` as commit sink,
/// and fuses `prefix_out` + tail into the same `(out, report)` contract
/// the unjournaled entry points return. Interruption surfaces as
/// [`StreamError::Interrupted`] *after* data-level failures, which a
/// resume would deterministically re-hit.
#[allow(clippy::too_many_arguments)]
fn run_phase<S: RecordStage, C: Committer>(
    input: &Path,
    stage: &S,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    committed: &[ChunkRecord<'_>],
    prefix_out: Option<S::Out>,
    committer: C,
    prepare: impl Fn(&ChunkMeta, &mut ShardYield<S::Out>) -> Option<C::Payload> + Send + Sync + 'static,
    ctrl: Option<&JournalControl<'_>>,
) -> Result<(S::Out, RunReport, C), StreamError>
where
    S::Out: 'static,
{
    let fold = FaultFold::new(stage, fault);
    let cap = fold.retention_cap();

    let mut bytes = 0u64;
    let mut lines = 0usize;
    let mut records = 0usize;
    let mut errors = ErrorSummary::new();
    for (idx, c) in committed.iter().enumerate() {
        if c.seq != idx || c.first_line != lines {
            return Err(StreamError::Input(format!(
                "checkpoint journal: committed chunks are not contiguous at record {idx}"
            )));
        }
        bytes += c.bytes as u64;
        lines += c.lines;
        records += c.records;
        errors.merge(c.errors.clone(), cap);
    }
    let resumed_chunks = committed.len();

    // Chunk boundaries depend only on bytes and the chunk target, so
    // seeking to the committed byte total lands exactly on the first
    // uncommitted chunk's first byte.
    let mut file =
        File::open(input).map_err(|e| StreamError::Input(format!("{}: {e}", input.display())))?;
    if bytes > 0 {
        file.seek(SeekFrom::Start(bytes)).map_err(input_err)?;
    }
    let workers = opts.effective_workers().max(1);
    let target = effective_chunk_bytes(&chunk);
    let ring = if chunk.ring > 0 { chunk.ring } else { workers };
    let source =
        ReaderChunks::with_offset(BufReader::new(file), target, ring, resumed_chunks, lines);

    let journal = ChunkJournal::new(committer, resumed_chunks, prepare);
    let journal = match ctrl.and_then(|c| c.after_commit.clone()) {
        Some(hook) => journal.with_after_commit(move |n| hook(n)),
        None => journal,
    };
    let control = RunControl {
        sink: Some(&journal),
        stop: ctrl.and_then(|c| c.stop),
    };
    let outcome =
        run_source_controlled(&source, &fold, workers, chunk.timing, control).map_err(input_err)?;
    let (committer, _committed_now) = journal
        .finish()
        .map_err(|e| StreamError::Input(format!("committing a chunk failed: {e}")))?;

    let tail = outcome.out;
    errors.merge(tail.errors, cap);
    let out = match prefix_out {
        Some(prefix) => stage.merge(prefix, tail.out),
        None => tail.out,
    };
    let report = RunReport {
        records: records + tail.records,
        shards: resumed_chunks + outcome.shards,
        errors,
        poisoned: outcome.poisoned,
        timings: outcome.timings,
    };
    let (out, report) = seal_stage_outcome(out, tail.halt, report, fault)?;
    if outcome.interrupted {
        return Err(StreamError::Interrupted);
    }
    Ok((out, report, committer))
}

/// A journaled pass whose records carry the stage output themselves:
/// replays the committed prefix of `phase` and runs the rest.
#[allow(clippy::too_many_arguments)]
fn run_recorded_phase<S: RecordStage>(
    input: &Path,
    stage: &S,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    codec: OutCodec<S::Out>,
    phase: usize,
    records: &[Value],
    writer: JournalWriter,
    ctrl: &JournalControl<'_>,
) -> Result<(S::Out, RunReport, JournalWriter), StreamError>
where
    S::Out: 'static,
{
    let committed = decode_records(&phase_chunks(records, phase))?;
    let prefix_out = replay_outs(stage, &committed, codec.decode)?;
    run_phase(
        input,
        stage,
        opts,
        chunk,
        fault,
        &committed,
        prefix_out,
        writer,
        record_payload(phase, codec.encode),
        Some(ctrl),
    )
}

// ---------------------------------------------------------------------------
// Public journaled entry points
// ---------------------------------------------------------------------------

/// Journaled out-of-core streaming inference over an NDJSON file.
///
/// Semantics (type, report, errors) are identical to
/// [`infer_streaming_source`] on the same
/// file; additionally every committed chunk is durable in
/// `ctrl.journal`, and with `ctrl.resume` the run continues from the
/// last committed chunk instead of starting over.
pub fn infer_streaming_journaled(
    input: &Path,
    equiv: Equivalence,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    ctrl: &JournalControl<'_>,
) -> Result<(JType, RunReport), StreamError> {
    let mut config = vec![equiv_config(equiv)];
    config.extend(fault_config(&fault));
    let header = header_record(
        "infer",
        effective_chunk_bytes(&chunk),
        input_len(input)?,
        config,
    );
    let (writer, committed) = open_session(ctrl, input, header)?;
    let stage = InferStage {
        equiv,
        decoder: jsonx_syntax::JsonDecoder::new().with_limits(fault.limits),
    };
    let (ty, report, _writer) = run_recorded_phase(
        input,
        &stage,
        opts,
        chunk,
        fault,
        infer_codec(),
        1,
        &committed,
        writer,
        ctrl,
    )?;
    Ok((ty, report))
}

/// Journaled out-of-core streaming validation over an NDJSON file.
///
/// Verdicts, reports and errors are identical to
/// [`validate_streaming_source`](crate::validate_streaming_source) on
/// the same file (malformed records go to the fault layer, never into
/// the verdict vector); commits and resume behave as in
/// [`infer_streaming_journaled`]. `schema_tag` is a caller-computed
/// fingerprint of the schema text, baked into the journal header so a
/// resume against a different schema refuses.
#[allow(clippy::too_many_arguments)]
pub fn validate_streaming_journaled(
    input: &Path,
    schema: &CompiledSchema,
    options: ValidatorOptions,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    fast: bool,
    schema_tag: u32,
    ctrl: &JournalControl<'_>,
) -> Result<(Vec<(usize, LineVerdict)>, RunReport), StreamError> {
    // `fast` is deliberately absent: the fast path is verdict-identical,
    // so a resume may toggle it freely.
    let ValidatorOptions { enforce_formats } = options;
    let mut config = vec![
        ("schema", s(format!("{schema_tag:08x}"))),
        ("enforce_formats", Value::Bool(enforce_formats)),
    ];
    config.extend(fault_config(&fault));
    let header = header_record(
        "validate",
        effective_chunk_bytes(&chunk),
        input_len(input)?,
        config,
    );
    let (writer, committed) = open_session(ctrl, input, header)?;
    let stage = ValidateStage {
        schema,
        options,
        malformed_verdicts: false,
        decoder: FastJsonDecoder::new(
            if fast {
                FastPlan::for_validation(schema, &fault.limits)
            } else {
                None
            },
            fault.limits,
        ),
    };
    let (verdicts, report, _writer) = run_recorded_phase(
        input,
        &stage,
        opts,
        chunk,
        fault,
        validate_codec(),
        1,
        &committed,
        writer,
        ctrl,
    )?;
    Ok((verdicts, report))
}

/// One translated chunk on its way to the `.jxc` file: the encoded row
/// group, and — on journaled runs — its chunk record minus the group's
/// coordinates, which only the commit knows.
struct GroupCommit {
    group: RowGroup,
    record: Option<Object>,
}

/// Appends row groups to the `.jxc` file in chunk order. With a
/// journal, each group is `sync_data`'d before the record that points
/// at it is appended (write-ahead order), so every committed record
/// names bytes that are already durable.
struct GroupCommitter {
    jxc: JxcWriter<File>,
    journal: Option<JournalWriter>,
}

impl Committer for GroupCommitter {
    type Payload = GroupCommit;

    fn commit(&mut self, payload: GroupCommit) -> std::io::Result<()> {
        let entry = self.jxc.append(&payload.group)?;
        if let (Some(journal), Some(mut record)) = (&mut self.journal, payload.record) {
            self.jxc.get_mut().sync_data()?;
            record.insert("out", group_value(&entry));
            journal.append(&Value::Obj(record).to_json_string())?;
        }
        Ok(())
    }
}

/// What a translation into a `.jxc` file wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct JxcTranslation {
    /// The inferred type the column layout was built from.
    pub ty: JType,
    /// Rows written, over every row group.
    pub rows: u64,
    /// The finished file's size in bytes.
    pub bytes: u64,
}

/// Out-of-core translation of an NDJSON file into a `.jxc` file at
/// `out`, in two passes: infer the type, then shred. Each input chunk's
/// rows are encoded as one row group on the worker that shredded them
/// and appended to `out` in chunk order, so neither the merged batch nor
/// the encoded output is ever resident: memory is bounded by the input's
/// chunks. Group boundaries depend only on the input bytes and the chunk
/// target, so the file is byte-identical at every worker count, and
/// [`read_jxc`](jsonx_translate::read_jxc) of it equals
/// [`translate_streaming_source`](crate::translate_streaming_source)'s
/// batch. The report covers the shredding pass.
///
/// With `journal`, both passes commit into one journal, phase-tagged,
/// with a `type` marker sealing phase 1: a kill during inference resumes
/// inference, and a kill during shredding reconstructs the layout from
/// the marker (no re-inference), keeps the row groups the journal
/// committed, cuts the `.jxc` after the last of them and appends from
/// there. The resumed file is byte-identical to an uninterrupted run.
///
/// Without a journal, a failed run removes its partial `out`.
#[allow(clippy::too_many_arguments)]
pub fn translate_streaming_to_jxc(
    input: &Path,
    equiv: Equivalence,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    fast: bool,
    out: &Path,
    journal: Option<&JournalControl<'_>>,
) -> Result<(JxcTranslation, RunReport), StreamError> {
    let result = translate_to_jxc(input, equiv, opts, chunk, fault, fast, out, journal);
    if result.is_err() && journal.is_none() {
        let _ = std::fs::remove_file(out);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn translate_to_jxc(
    input: &Path,
    equiv: Equivalence,
    opts: StreamingOptions,
    chunk: ChunkOptions,
    fault: FaultOptions,
    fast: bool,
    out: &Path,
    journal: Option<&JournalControl<'_>>,
) -> Result<(JxcTranslation, RunReport), StreamError> {
    let infer = InferStage {
        equiv,
        decoder: jsonx_syntax::JsonDecoder::new().with_limits(fault.limits),
    };
    let (ty, writer, committed) = match journal {
        None => {
            let file =
                File::open(input).map_err(|e| input_err(format!("{}: {e}", input.display())))?;
            let source = StreamSource::Reader(BufReader::new(file));
            let (ty, _) = infer_streaming_source(source, equiv, opts, chunk, fault)?;
            (ty, None, Vec::new())
        }
        Some(ctrl) => {
            let mut config = vec![equiv_config(equiv)];
            config.extend(fault_config(&fault));
            let header = header_record(
                "translate",
                effective_chunk_bytes(&chunk),
                input_len(input)?,
                config,
            );
            let (mut writer, committed) = open_session(ctrl, input, header)?;
            let ty = match type_marker(&committed) {
                Some(printed) => parse_type(printed)
                    .map_err(|e| journal_err("type marker does not parse", format!("{e:?}")))?,
                None => {
                    let (ty, _report, w) = run_recorded_phase(
                        input,
                        &infer,
                        opts,
                        chunk,
                        fault,
                        infer_codec(),
                        1,
                        &committed,
                        writer,
                        ctrl,
                    )?;
                    writer = w;
                    // Seal phase 1: once this marker is durable, a resume
                    // never re-infers — the layout is pinned for phase 2.
                    let marker = obj(vec![
                        ("kind", s("type")),
                        ("type", s(print_type(&ty, PrintOptions::with_counts()))),
                    ]);
                    writer
                        .append(&marker.to_json_string())
                        .map_err(|e| journal_err("writing type marker", e))?;
                    ty
                }
            };
            (ty, Some(writer), committed)
        }
    };

    let shredder = Shredder::from_type(&ty);
    let layout = shredder.stream().finish();
    let stage = TranslateStage {
        shredder: &shredder,
        decoder: FastJsonDecoder::new(
            if fast {
                FastPlan::for_translation(&shredder, &fault.limits)
            } else {
                None
            },
            fault.limits,
        ),
    };
    let prefix = decode_records(&phase_chunks(&committed, 2))?;
    let groups = prefix
        .iter()
        .enumerate()
        .map(|(idx, c)| {
            decode_group(c.out).ok_or_else(|| {
                journal_err(&format!("committed chunk record {idx}"), "no row group")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let out_err = |e: &dyn std::fmt::Display| StreamError::Input(format!("{}: {e}", out.display()));
    let jxc = if groups.is_empty() {
        let file = File::create(out).map_err(|e| out_err(&e))?;
        JxcWriter::new(file, &layout).map_err(|e| out_err(&e))?
    } else {
        JxcWriter::resume(out, &layout, groups).map_err(|e| {
            StreamError::Input(format!(
                "--resume: {} does not hold the row groups the journal committed ({e}); \
                 pass a fresh --checkpoint path or drop --resume",
                out.display()
            ))
        })?
    };
    let journaled = writer.is_some();
    let committer = GroupCommitter {
        jxc,
        journal: writer,
    };
    // Runs on the worker that shredded the chunk: the batch moves out of
    // the chunk's result (nothing of it stays resident after the commit)
    // and is encoded here, in parallel with other workers.
    let prepare = move |meta: &ChunkMeta, y: &mut ShardYield<ColumnarBatch>| {
        let batch = std::mem::replace(
            &mut y.out,
            ColumnarBatch {
                columns: Vec::new(),
                rows: 0,
            },
        );
        if y.halt.is_some() {
            return None;
        }
        Some(GroupCommit {
            group: encode_group(&batch),
            record: if journaled {
                chunk_fields(2, meta, y)
            } else {
                None
            },
        })
    };
    let (_, report, committer) = run_phase(
        input, &stage, opts, chunk, fault, &prefix, None, committer, prepare, journal,
    )?;
    let rows = committer.jxc.rows();
    // The footer is not synced: every row group already is, so if it
    // is lost the file reads as truncated and `--resume` rewrites it.
    let (_, bytes) = committer.jxc.finish().map_err(|e| out_err(&e))?;
    Ok((JxcTranslation { ty, rows, bytes }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::translate_streaming_source;
    use jsonx_translate::read_jxc;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("jsonx-ckpt-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn corpus(lines: usize) -> String {
        let mut text = String::new();
        for i in 0..lines {
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":\"row {i}\",\"flag\":{}}}\n",
                i % 2 == 0
            ));
        }
        text
    }

    fn write_input(dir: &TempDir, name: &str, text: &str) -> std::path::PathBuf {
        let path = dir.path(name);
        std::fs::File::create(&path)
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
        path
    }

    fn small_chunks() -> ChunkOptions {
        ChunkOptions {
            chunk_bytes: 64,
            ..ChunkOptions::default()
        }
    }

    #[test]
    fn journaled_infer_matches_plain_run() {
        let dir = TempDir::new("infer-plain");
        let text = corpus(40);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let opts = StreamingOptions::with_workers(3);
        let fault = FaultOptions::default();

        let (ty, report) = infer_streaming_journaled(
            &input,
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
            &JournalControl::new(&journal),
        )
        .unwrap();
        let (want_ty, want_report) = infer_streaming_source(
            StreamSource::slice(&text),
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
        )
        .unwrap();
        assert_eq!(ty, want_ty);
        assert_eq!(report.records, want_report.records);
        assert!(journal.exists());
    }

    #[test]
    fn interrupted_run_resumes_to_identical_result() {
        let dir = TempDir::new("stop-resume");
        let text = corpus(60);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let opts = StreamingOptions::with_workers(2);
        let fault = FaultOptions {
            policy: ErrorPolicy::Skip { max_errors: None },
            ..FaultOptions::default()
        };

        // Stop after 3 committed chunks. The flag is leaked so the
        // 'static commit hook can store to it — the same wiring the CLI
        // uses for `JSONX_CRASHPOINT=stop:N`.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let commits = Arc::new(AtomicU64::new(0));
        let err = {
            let commits = commits.clone();
            let ctrl = JournalControl {
                journal: &journal,
                resume: false,
                stop: Some(stop),
                after_commit: Some(Arc::new(move |_| {
                    if commits.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
                        stop.store(true, Ordering::SeqCst);
                    }
                })),
            };
            infer_streaming_journaled(
                &input,
                Equivalence::Kind,
                opts,
                small_chunks(),
                fault,
                &ctrl,
            )
            .unwrap_err()
        };
        assert_eq!(err, StreamError::Interrupted);
        assert!(commits.load(Ordering::SeqCst) >= 3);

        let ctrl = JournalControl {
            journal: &journal,
            resume: true,
            stop: None,
            after_commit: None,
        };
        let (ty, report) = infer_streaming_journaled(
            &input,
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
            &ctrl,
        )
        .unwrap();
        let (want_ty, want_report) = infer_streaming_source(
            StreamSource::slice(&text),
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
        )
        .unwrap();
        assert_eq!(ty, want_ty, "resumed type identical to uninterrupted run");
        assert_eq!(report.records, want_report.records);
    }

    #[test]
    fn resume_with_torn_tail_continues_from_last_valid_record() {
        let dir = TempDir::new("torn-tail");
        let text = corpus(50);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let opts = StreamingOptions::with_workers(2);
        let fault = FaultOptions::default();

        // Interrupt after 2 commits, then tear the journal's tail.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let ctrl = JournalControl {
            journal: &journal,
            resume: false,
            stop: Some(stop),
            after_commit: Some(Arc::new(move |n| {
                if n >= 2 {
                    stop.store(true, Ordering::SeqCst);
                }
            })),
        };
        let err = infer_streaming_journaled(
            &input,
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
            &ctrl,
        )
        .unwrap_err();
        assert_eq!(err, StreamError::Interrupted);
        let mut file = std::fs::File::options()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(b"00000000 {\"kind\":\"chunk\",\"torn")
            .unwrap();

        let ctrl = JournalControl {
            journal: &journal,
            resume: true,
            stop: None,
            after_commit: None,
        };
        let (ty, _report) = infer_streaming_journaled(
            &input,
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
            &ctrl,
        )
        .unwrap();
        let (want_ty, _) = infer_streaming_source(
            StreamSource::slice(&text),
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
        )
        .unwrap();
        assert_eq!(ty, want_ty);
    }

    #[test]
    fn resume_refuses_mismatched_header() {
        let dir = TempDir::new("bad-header");
        let text = corpus(10);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let fault = FaultOptions::default();

        infer_streaming_journaled(
            &input,
            Equivalence::Kind,
            StreamingOptions::with_workers(1),
            small_chunks(),
            fault,
            &JournalControl::new(&journal),
        )
        .unwrap();

        // Same journal, different equivalence: the header no longer
        // matches, so the resume must refuse.
        let ctrl = JournalControl {
            journal: &journal,
            resume: true,
            stop: None,
            after_commit: None,
        };
        let err = infer_streaming_journaled(
            &input,
            Equivalence::Label,
            StreamingOptions::with_workers(1),
            small_chunks(),
            fault,
            &ctrl,
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Input(msg) if msg.contains("different run")),
            "got {err:?}"
        );
    }

    #[test]
    fn journaled_translate_two_phase_resume_is_batch_identical() {
        let dir = TempDir::new("translate");
        let text = corpus(60);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let out = dir.path("resumed.jxc");
        let opts = StreamingOptions::with_workers(2);
        let fault = FaultOptions::default();

        // Stop during phase 2: phase 1 commits ~13 chunks of 64B, so a
        // threshold past that lands the interruption mid-shred.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let commits = Arc::new(AtomicU64::new(0));
        let commits_hook = commits.clone();
        let ctrl = JournalControl {
            journal: &journal,
            resume: false,
            stop: Some(stop),
            after_commit: Some(Arc::new(move |_| {
                // The counter spans both phases, mirroring the CLI hook.
                if commits_hook.fetch_add(1, Ordering::SeqCst) + 1 >= 40 {
                    stop.store(true, Ordering::SeqCst);
                }
            })),
        };
        let err = translate_streaming_to_jxc(
            &input,
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
            true,
            &out,
            Some(&ctrl),
        )
        .unwrap_err();
        assert_eq!(err, StreamError::Interrupted);

        let ctrl = JournalControl {
            journal: &journal,
            resume: true,
            stop: None,
            after_commit: None,
        };
        let (written, report) = translate_streaming_to_jxc(
            &input,
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
            true,
            &out,
            Some(&ctrl),
        )
        .unwrap();

        let (want_ty, _) = infer_streaming_source(
            StreamSource::slice(&text),
            Equivalence::Kind,
            opts,
            small_chunks(),
            fault,
        )
        .unwrap();
        let shredder = Shredder::from_type(&want_ty);
        let (want_batch, want_report) = translate_streaming_source(
            StreamSource::slice(&text),
            &shredder,
            opts,
            small_chunks(),
            fault,
            true,
        )
        .unwrap();
        assert_eq!(written.ty, want_ty);
        assert_eq!(report.records, want_report.records);
        assert_eq!(written.rows, want_batch.rows as u64);
        let resumed = std::fs::read(&out).unwrap();
        assert_eq!(written.bytes, resumed.len() as u64);
        assert_eq!(
            read_jxc(&resumed).unwrap().batch,
            want_batch,
            "resumed .jxc reads back as the uninterrupted batch"
        );

        // And byte-identical to an uninterrupted, unjournaled run.
        let plain = dir.path("plain.jxc");
        translate_streaming_to_jxc(
            &input,
            Equivalence::Kind,
            StreamingOptions::with_workers(3),
            small_chunks(),
            fault,
            true,
            &plain,
            None,
        )
        .unwrap();
        assert_eq!(
            resumed,
            std::fs::read(&plain).unwrap(),
            "resumed .jxc bytes identical to uninterrupted run"
        );
    }

    #[test]
    fn translate_journal_records_offsets_not_batches() {
        let dir = TempDir::new("translate-offsets");
        let text = corpus(2000);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let out = dir.path("out.jxc");
        let chunk = ChunkOptions {
            chunk_bytes: 4096,
            ..ChunkOptions::default()
        };
        let (written, _) = translate_streaming_to_jxc(
            &input,
            Equivalence::Kind,
            StreamingOptions::with_workers(2),
            chunk,
            FaultOptions::default(),
            true,
            &out,
            Some(&JournalControl::new(&journal)),
        )
        .unwrap();
        let payloads = read_journal(&journal).unwrap().records;
        let records: Vec<Value> = payloads.iter().map(|r| parse(r).unwrap()).collect();
        let groups: Vec<GroupEntry> = phase_chunks(&records, 2)
            .iter()
            .map(|r| decode_group(r.get("out").unwrap()).unwrap())
            .collect();
        let file = read_jxc(&std::fs::read(&out).unwrap()).unwrap();
        assert!(groups.len() > 5, "several chunks: {}", groups.len());
        assert_eq!(groups.len(), file.groups.len(), "one row group per chunk");
        assert_eq!(groups.iter().map(|g| g.rows).sum::<u64>(), written.rows);
        // A phase-2 record is a few small integers, never the group.
        let phase2_bytes: usize = payloads
            .iter()
            .zip(&records)
            .filter(|(_, r)| r.get("phase").and_then(Value::as_i64) == Some(2))
            .map(|(p, _)| p.len())
            .sum();
        assert!(
            (phase2_bytes as u64) * 4 < written.bytes,
            "phase-2 records {phase2_bytes} B vs .jxc {} B",
            written.bytes
        );
    }

    #[test]
    fn resume_refuses_a_journal_of_another_version() {
        let dir = TempDir::new("old-version");
        let text = corpus(10);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let mut writer = JournalWriter::create(&journal).unwrap();
        writer
            .append(
                r#"{"kind":"header","v":1,"stage":"infer","chunk_bytes":64,"input_bytes":0,"config":"equiv=Kind"}"#,
            )
            .unwrap();
        drop(writer);
        let ctrl = JournalControl {
            journal: &journal,
            resume: true,
            stop: None,
            after_commit: None,
        };
        let err = infer_streaming_journaled(
            &input,
            Equivalence::Kind,
            StreamingOptions::with_workers(1),
            small_chunks(),
            FaultOptions::default(),
            &ctrl,
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::Input(msg) if msg.contains("format version 1")),
            "got {err:?}"
        );
    }

    #[test]
    fn resume_refuses_input_changed_inside_the_committed_prefix() {
        let dir = TempDir::new("changed-input");
        let text = corpus(60);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let ctrl = JournalControl {
            journal: &journal,
            resume: false,
            stop: Some(stop),
            after_commit: Some(Arc::new(move |n| {
                if n >= 3 {
                    stop.store(true, Ordering::SeqCst);
                }
            })),
        };
        let run = |ctrl: &JournalControl<'_>| {
            infer_streaming_journaled(
                &input,
                Equivalence::Kind,
                StreamingOptions::with_workers(2),
                small_chunks(),
                FaultOptions::default(),
                ctrl,
            )
        };
        assert_eq!(run(&ctrl).unwrap_err(), StreamError::Interrupted);
        // Same length, different bytes, inside the first committed chunk.
        write_input(&dir, "in.ndjson", &text.replacen("row 0", "ROW 0", 1));
        let ctrl = JournalControl {
            journal: &journal,
            resume: true,
            stop: None,
            after_commit: None,
        };
        let err = run(&ctrl).unwrap_err();
        assert!(
            matches!(&err, StreamError::Input(msg) if msg.contains("changed since chunk 0")),
            "got {err:?}"
        );
    }
}
