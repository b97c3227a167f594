//! `jsonx` — command-line front end for the workspace.
//!
//! ```text
//! jsonx infer     [--equiv K|L] [--counts] [--schema] [--streaming] [--workers N]
//!                 [--validate SCHEMA.json] [--format json|csv] [FILE]
//! jsonx validate  --schema SCHEMA.json [--formats] [--streaming] [--workers N]
//!                 [--no-fast-parse] [--format json|csv] [FILE]
//! jsonx profile   [FILE]
//! jsonx skeleton  [--coverage 0.9] [FILE]
//! jsonx project   --fields a,b.c [FILE]
//! jsonx convert   --to avro|columnar|relational [--out FILE.jxc] [FILE]
//! jsonx translate [--to avro|columnar|relational] [--out FILE.jxc] [--streaming]
//!                 [--workers N] [--no-fast-parse] [--format json|csv] [FILE]
//! jsonx query     [--where-exists p] [--expand p] [--project a,b.c] [--top n] [FILE]
//! jsonx cat       FILE.jxc [--head N] [--flatten]
//! jsonx serve     [--listen ADDR] [--schema FILE] [--queue-depth N] [--deadline-ms N]
//!                 [--max-conns N] [--workers N] [--max-depth N] [--max-line-bytes N]
//! ```
//!
//! `FILE` is newline-delimited JSON — or header-led CSV with
//! `--format csv`, which routes the same corpus through the same typed
//! pipeline via the CSV record decoder. `-` or no file reads stdin. The
//! streaming commands also accept `--input FILE` to process the corpus
//! out-of-core, plus `--chunk-bytes N` and `--report-timing` to tune
//! and observe the work-stealing dispatch, and `--checkpoint FILE` /
//! `--resume` to journal chunk commits durably and continue an
//! interrupted run.
//!
//! Every command's flags live in one [`FlagSpec`] table; `jsonx help`
//! is generated from those tables, so "implies --streaming" markers and
//! value placeholders can never drift from what the parser accepts.
//!
//! Exit codes are uniform across subcommands (see README):
//! `0` success, `1` invalid data (malformed input or failed validation
//! verdicts), `2` usage error, `3` I/O error, `4` interrupted with a
//! resumable checkpoint.

use jsonx::baselines::MongoProfiler;
use jsonx::core::{infer_collection, print_type, to_json_schema, Equivalence, PrintOptions};
use jsonx::mison::ProjectedParser;
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::skeleton::Skeleton;
use jsonx::syntax::{parse, parse_ndjson, to_string, to_string_pretty};
use jsonx::translate::{flatten_rows, read_jxc_file, rows_as_values, OutputSink, Shredder};
use jsonx::Value;
use jsonx::{
    infer_streaming_decoded, infer_streaming_journaled, infer_streaming_source,
    infer_validate_streaming_decoded, translate_streaming_decoded, translate_streaming_source,
    translate_streaming_to_jxc, validate_streaming_decoded, validate_streaming_journaled,
    validate_streaming_source, write_quarantine_file, ChunkOptions, CsvDecoder, ErrorPolicy,
    FaultOptions, JournalControl, JsonDecoder, LineVerdict, ParseLimits, RecordDecoder, RunReport,
    StreamError, StreamSource, StreamingOptions,
};
use std::io::{BufRead, Read, Write as _};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Flag tables: one source of truth for parsing AND `jsonx help`
// ---------------------------------------------------------------------------

/// One CLI flag: name, optional value placeholder, help text, and
/// whether its presence routes the run through the streaming engine.
#[derive(Clone, Copy)]
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
    implies_streaming: bool,
}

const fn flag(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: None,
        help,
        implies_streaming: false,
    }
}

const fn valued(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: Some(value),
        help,
        implies_streaming: false,
    }
}

/// A flag whose presence implies `--streaming` (the help text gets the
/// marker appended automatically).
const fn implies(mut spec: FlagSpec) -> FlagSpec {
    spec.implies_streaming = true;
    spec
}

/// `--format json|csv`, shared by the streaming commands.
const FORMAT_FLAG: FlagSpec = implies(valued(
    "format",
    "json|csv",
    "input format: csv reads a header-led CSV corpus through the same typed pipeline",
));

/// The fault-tolerance flags shared by the streaming commands; any of
/// them routes the run through the guarded pipeline.
const FAULT_FLAGS: &[FlagSpec] = &[
    implies(valued(
        "on-error",
        "fail|skip|collect",
        "record-error policy (default fail). skip drops bad records and keeps going; collect additionally retains every diagnostic (bounded by --max-errors, default 1000)",
    )),
    implies(valued("max-errors", "N", "abort once more than N records reject")),
    implies(valued(
        "quarantine",
        "FILE",
        "write one JSON diagnostic per rejected record (with the raw line) to FILE",
    )),
    implies(valued(
        "max-depth",
        "N",
        "reject records nested deeper than N (default 128)",
    )),
    implies(valued(
        "max-line-bytes",
        "N",
        "reject records longer than N bytes",
    )),
];

/// The out-of-core flags shared by the streaming commands; any of them
/// routes the run through the chunk-source work-stealing engine.
const CHUNK_FLAGS: &[FlagSpec] = &[
    implies(valued(
        "input",
        "FILE",
        "stream FILE through a bounded ring of reusable chunk buffers instead of materialising it ('-' streams stdin); invalid-document diagnostics shrink to line numbers",
    )),
    implies(valued(
        "chunk-bytes",
        "N",
        "target chunk size in bytes (default: sized from the input, capped at 1 MiB)",
    )),
    implies(flag(
        "report-timing",
        "print per-worker chunk/record/byte counts, steal counts and throughput to stderr",
    )),
    implies(valued(
        "checkpoint",
        "FILE",
        "journal every committed chunk to FILE (fsync'd, CRC-framed, committed in input order) so a crashed or interrupted run can be resumed; needs --input with a regular file",
    )),
    implies(flag(
        "resume",
        "continue from the last committed chunk in the --checkpoint journal instead of starting over; the final output is byte-identical to an uninterrupted run",
    )),
];

const INFER_FLAGS: &[FlagSpec] = &[
    valued("equiv", "K|L", "equivalence (default K)"),
    flag("counts", "show counting annotations"),
    flag("schema", "emit JSON Schema instead of type syntax"),
    flag("streaming", "type the event stream directly (no DOMs)"),
    implies(valued(
        "workers",
        "N",
        "shard across N threads (0 = one per CPU)",
    )),
    implies(valued(
        "validate",
        "F",
        "also validate against schema F in the same pass (one tokenisation per line)",
    )),
    FORMAT_FLAG,
];

const VALIDATE_FLAGS: &[FlagSpec] = &[
    valued("schema", "FILE", "schema document (required)"),
    flag("formats", "enforce the `format` keyword"),
    flag("streaming", "fail-fast per line, diagnostics on demand"),
    implies(valued(
        "workers",
        "N",
        "shard across N threads (0 = one per CPU)",
    )),
    flag(
        "fast-parse",
        "SWAR structural fast path with projection pushdown (default on for --streaming); --no-fast-parse forces the full parser",
    ),
    flag("no-fast-parse", "force the full parser"),
    FORMAT_FLAG,
];

const SKELETON_FLAGS: &[FlagSpec] = &[valued(
    "coverage",
    "F",
    "coverage threshold in (0,1] (default 0.9)",
)];

const PROJECT_FLAGS: &[FlagSpec] = &[valued("fields", "a,b.c", "dotted field paths (required)")];

const CONVERT_FLAGS: &[FlagSpec] = &[
    valued("to", "TARGET", "avro | columnar | relational (required)"),
    valued(
        "out",
        "FILE",
        "persist the batch as a binary .jxc file (columnar only)",
    ),
];

const TRANSLATE_FLAGS: &[FlagSpec] = &[
    valued(
        "to",
        "TARGET",
        "avro | columnar | relational (default columnar)",
    ),
    valued(
        "out",
        "FILE",
        "persist the batch as a binary .jxc file (columnar only)",
    ),
    flag(
        "streaming",
        "shred newline-bounded shards incrementally (columnar only)",
    ),
    implies(valued(
        "workers",
        "N",
        "shard across N threads (0 = one per CPU)",
    )),
    flag(
        "fast-parse",
        "SWAR structural fast path projected to the shred plan (default on for --streaming); --no-fast-parse forces the full parser",
    ),
    flag("no-fast-parse", "force the full parser"),
    FORMAT_FLAG,
];

const QUERY_FLAGS: &[FlagSpec] = &[
    valued(
        "where-exists",
        "P",
        "keep documents where path P is non-null",
    ),
    valued("expand", "P", "flatten the array at path P"),
    valued(
        "project",
        "a,b.c",
        "transform to a record of the given paths",
    ),
    valued("top", "N", "keep the first N results"),
];

const CAT_FLAGS: &[FlagSpec] = &[
    valued("head", "N", "show at most N rows (default 10)"),
    flag(
        "flatten",
        "cross-join list columns into flat rows (unnest semantics)",
    ),
];

const SERVE_FLAGS: &[FlagSpec] = &[
    valued(
        "listen",
        "ADDR",
        "listen address (default 127.0.0.1:7077; port 0 picks a free port, printed on stdout)",
    ),
    valued(
        "schema",
        "FILE",
        "schema to compile once and serve; the RELOAD verb recompiles it and swaps epochs without interrupting in-flight requests",
    ),
    valued(
        "queue-depth",
        "N",
        "bounded request-queue depth; a full queue sheds load with a structured busy response instead of buffering (default 64)",
    ),
    valued(
        "deadline-ms",
        "N",
        "answer deadline-exceeded when a request waited in the queue longer than N ms",
    ),
    valued(
        "max-conns",
        "N",
        "concurrent-connection cap; excess connections get one busy line and are closed (default 64)",
    ),
    valued("workers", "N", "worker threads (0 = one per CPU)"),
    valued(
        "max-depth",
        "N",
        "reject payloads nested deeper than N (default 128)",
    ),
    valued(
        "max-line-bytes",
        "N",
        "reject payloads longer than N bytes (also caps the frame buffer)",
    ),
    valued(
        "frame-budget-ms",
        "N",
        "cut off frames that do not finish arriving within N ms — the slow-loris guard (default 2000)",
    ),
    flag(
        "debug-faults",
        "enable the deterministic fault verbs (BOOM, SLEEP) the fault-injection harness drives",
    ),
];

/// One subcommand: its summary line, flag table, and whether it also
/// accepts the shared fault-tolerance / out-of-core flag groups.
struct CommandSpec {
    name: &'static str,
    summary: &'static str,
    flags: &'static [FlagSpec],
    guarded: bool,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "infer",
        summary: "infer a schema for an NDJSON (or CSV) collection",
        flags: INFER_FLAGS,
        guarded: true,
    },
    CommandSpec {
        name: "validate",
        summary: "validate documents against a JSON Schema",
        flags: VALIDATE_FLAGS,
        guarded: true,
    },
    CommandSpec {
        name: "profile",
        summary: "mongodb-schema-style streaming field profile",
        flags: &[],
        guarded: false,
    },
    CommandSpec {
        name: "skeleton",
        summary: "mine the frequent-structure skeleton",
        flags: SKELETON_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "project",
        summary: "parse only selected fields (Mison-style)",
        flags: PROJECT_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "convert",
        summary: "translate the collection",
        flags: CONVERT_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "translate",
        summary: "schema-driven translation with a streaming columnar path",
        flags: TRANSLATE_FLAGS,
        guarded: true,
    },
    CommandSpec {
        name: "query",
        summary: "run a Jaql-style pipeline and show its inferred output schema (stages apply in flag order)",
        flags: QUERY_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "cat",
        summary: "inspect a binary .jxc columnar file (schema, rows, encodings)",
        flags: CAT_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "serve",
        summary: "run the resident schema service (validate/infer/translate over a line protocol)",
        flags: SERVE_FLAGS,
        guarded: false,
    },
];

impl CommandSpec {
    /// Every flag this command accepts: its own plus the shared groups.
    fn all_flags(&self) -> impl Iterator<Item = &'static FlagSpec> {
        self.flags
            .iter()
            .chain(self.guarded.then_some(FAULT_FLAGS).into_iter().flatten())
            .chain(self.guarded.then_some(CHUNK_FLAGS).into_iter().flatten())
    }
}

/// Greedy word-wrap for generated help text.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}

fn render_flag(out: &mut String, spec: &FlagSpec) {
    let head = match spec.value {
        Some(v) => format!("--{} {v}", spec.name),
        None => format!("--{}", spec.name),
    };
    let mut help = spec.help.to_string();
    if spec.implies_streaming {
        help.push_str(" (implies --streaming)");
    }
    for (i, line) in wrap(&help, 42).into_iter().enumerate() {
        if i == 0 {
            out.push_str(&format!("              {head:<19} {line}\n"));
        } else {
            out.push_str(&format!("              {:<19} {line}\n", ""));
        }
    }
}

/// The help text, generated from the command and flag tables.
fn usage() -> String {
    let mut s = String::from("usage: jsonx <command> [options] [FILE]\n\ncommands:\n");
    for cmd in COMMANDS {
        s.push_str(&format!("  {:<9} {}\n", cmd.name, cmd.summary));
        for spec in cmd.flags {
            render_flag(&mut s, spec);
        }
        if cmd.guarded {
            s.push_str("            (plus the fault-tolerance and out-of-core flags below)\n");
        }
    }
    s.push_str("\nfault-tolerance flags (streaming infer / validate / translate):\n");
    for spec in FAULT_FLAGS {
        render_flag(&mut s, spec);
    }
    s.push_str("\nout-of-core flags (route through the chunked work-stealing engine):\n");
    for spec in CHUNK_FLAGS {
        render_flag(&mut s, spec);
    }
    s.push_str(
        "\nFILE is newline-delimited JSON (header-led CSV with --format csv);\n'-' or absent reads stdin.",
    );
    s
}

/// A classified CLI failure. Every subcommand exits through one of
/// these, so exit codes are uniform across the tool: `0` success,
/// `1` invalid data, `2` usage, `3` I/O, `4` interrupted-resumable.
/// Plain `String` errors (the bulk of the data-shaped failures) convert
/// to [`CliError::Data`].
#[derive(Debug)]
enum CliError {
    /// Bad flags, bad flag values, wrong command shape — exit 2.
    Usage(String),
    /// The input is malformed or failed its validation verdicts — exit 1.
    Data(String),
    /// A file or stream could not be read or written — exit 3.
    Io(String),
    /// Stopped gracefully with a resumable checkpoint journal — exit 4.
    Interrupted(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn data(msg: impl Into<String>) -> CliError {
        CliError::Data(msg.into())
    }

    fn io(msg: impl Into<String>) -> CliError {
        CliError::Io(msg.into())
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Data(m) | CliError::Io(m) | CliError::Interrupted(m) => {
                m
            }
        }
    }

    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 1,
            CliError::Io(_) => 3,
            CliError::Interrupted(_) => 4,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Data(msg)
    }
}

/// Classifies a streaming-run failure: a failed read or write is I/O, a
/// graceful stop is interrupted-resumable, and everything else — input
/// that is not UTF-8 ([`StreamError::NotUtf8`]) included — is bad data.
fn stream_err(e: StreamError) -> CliError {
    match e {
        StreamError::Interrupted => CliError::Interrupted(format!(
            "{e} — rerun with --resume to continue from the last committed chunk"
        )),
        StreamError::Input(msg) => CliError::Io(msg),
        other => CliError::Data(other.to_string()),
    }
}

/// Parses `--name VALUE` through `FromStr`, reporting failures as usage
/// errors (exit 2) naming the flag.
fn parse_flag<T: std::str::FromStr>(opts: &Opts, name: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    opts.get(name)
        .map(str::parse)
        .transpose()
        .map_err(|e| CliError::usage(format!("bad --{name}: {e}")))
}

/// SIGINT/SIGTERM handling for journaled runs: the handler only trips a
/// latch; workers drain their in-flight chunks and the run exits as
/// interrupted-resumable. Installed only when a checkpoint is active —
/// unjournaled runs keep the default die-on-signal behaviour, because
/// without a journal there is nothing graceful to save.
mod sig {
    use std::sync::atomic::AtomicBool;

    static STOP: AtomicBool = AtomicBool::new(false);

    pub fn stop_flag() -> &'static AtomicBool {
        &STOP
    }

    #[cfg(unix)]
    pub fn install() {
        // Declared locally instead of pulling in a libc dependency;
        // glibc's `signal` installs BSD semantics (SA_RESTART), so
        // blocked reads resume after the handler runs and the stop
        // latch is observed at the next chunk-claim boundary.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_sig: i32) {
            STOP.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("jsonx: {}", err.message());
            ExitCode::from(err.code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage(format!("missing command\n{}", usage())));
    };
    let rest = &args[1..];
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == command.as_str()) else {
        return Err(CliError::usage(format!(
            "unknown command '{command}'\n{}",
            usage()
        )));
    };
    let opts = parse_opts(rest, cmd)?;
    match cmd.name {
        "infer" => cmd_infer(&opts),
        "validate" => cmd_validate(&opts),
        "profile" => cmd_profile(&opts),
        "skeleton" => cmd_skeleton(&opts),
        "project" => cmd_project(&opts),
        "convert" => cmd_convert(&opts),
        "translate" => cmd_translate(&opts),
        "query" => cmd_query(&opts),
        "cat" => cmd_cat(&opts),
        "serve" => cmd_serve(&opts),
        _ => unreachable!("command table and dispatch table agree"),
    }
}

/// Parsed flags (with optional values) plus the positional FILE argument.
struct Opts {
    flags: Vec<(String, Option<String>)>,
    file: Option<String>,
    /// Some present flag's spec implies `--streaming`.
    streaming_implied: bool,
}

/// Splits `args` into flags and the positional FILE according to the
/// command's flag table — whether a flag takes a value is read off its
/// spec, so the same name can be boolean in one command and valued in
/// another (`infer --schema` vs `validate --schema FILE`).
fn parse_opts(args: &[String], cmd: &CommandSpec) -> Result<Opts, CliError> {
    let mut flags = Vec::new();
    let mut file = None;
    let mut streaming_implied = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let Some(spec) = cmd.all_flags().find(|s| s.name == name) else {
                return Err(CliError::usage(format!(
                    "unknown flag --{name} (see `jsonx help`)"
                )));
            };
            streaming_implied |= spec.implies_streaming;
            if spec.value.is_some() {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::usage(format!("flag --{name} needs a value")))?;
                flags.push((name.to_string(), Some(v.clone())));
                i += 2;
            } else {
                flags.push((name.to_string(), None));
                i += 1;
            }
        } else {
            if file.is_some() {
                return Err(CliError::usage(format!("unexpected extra argument '{a}'")));
            }
            file = Some(a.clone());
            i += 1;
        }
    }
    Ok(Opts {
        flags,
        file,
        streaming_implied,
    })
}

impl Opts {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// `--streaming` itself, or any present flag whose spec implies it.
    fn streaming_requested(&self) -> bool {
        self.has("streaming") || self.streaming_implied
    }
}

// ---------------------------------------------------------------------------
// Shared run configuration (fault tolerance, out-of-core, input format)
// ---------------------------------------------------------------------------

/// Builds [`FaultOptions`] from the shared fault-tolerance flags; with
/// none of them the run fails fast under the default limits.
fn fault_options(opts: &Opts) -> Result<FaultOptions, CliError> {
    let max_errors: Option<usize> = parse_flag(opts, "max-errors")?;
    let policy = match opts.get("on-error").unwrap_or("fail") {
        "fail" => ErrorPolicy::FailFast,
        "skip" => ErrorPolicy::Skip { max_errors },
        "collect" => ErrorPolicy::Collect {
            max_errors: max_errors.unwrap_or(1000),
        },
        other => {
            return Err(CliError::usage(format!(
                "unknown --on-error policy '{other}' (use fail, skip or collect)"
            )))
        }
    };
    let mut limits = ParseLimits::new();
    if let Some(depth) = parse_flag(opts, "max-depth")? {
        limits = limits.with_max_depth(depth);
    }
    if let Some(bytes) = parse_flag(opts, "max-line-bytes")? {
        limits = limits.with_max_input_bytes(bytes);
    }
    Ok(FaultOptions {
        policy,
        keep_rejects: opts.has("quarantine"),
        limits,
    })
}

/// Parses and validates `--checkpoint FILE` / `--resume`. Resume seeks
/// the input by committed byte offset, so the journal requires `--input`
/// with a regular file (stdin cannot be re-read); the CSV front-end is
/// refused because its row identity hangs off a peeled header line the
/// journal's byte accounting does not cover.
fn checkpoint_cli(
    opts: &Opts,
    input: Option<&str>,
    csv: bool,
) -> Result<Option<(String, bool)>, CliError> {
    let resume = opts.has("resume");
    let Some(journal) = opts.get("checkpoint") else {
        if resume {
            return Err(CliError::usage("--resume needs --checkpoint FILE"));
        }
        return Ok(None);
    };
    if csv {
        return Err(CliError::usage(
            "--checkpoint does not support --format csv",
        ));
    }
    let Some(input) = input else {
        return Err(CliError::usage(
            "--checkpoint needs --input FILE (resume seeks the input by byte offset)",
        ));
    };
    if input == "-" {
        return Err(CliError::usage(
            "--checkpoint cannot journal stdin; pass --input with a regular file",
        ));
    }
    if let Ok(meta) = std::fs::metadata(input) {
        if !meta.is_file() {
            return Err(CliError::usage(format!(
                "--checkpoint needs --input with a regular file, but {input} is not one"
            )));
        }
    }
    Ok(Some((journal.to_string(), resume)))
}

/// Post-run bookkeeping shared by the streaming commands: writes the
/// quarantine sidecar when requested, surfaces poisoned shards on
/// stderr, and prints the per-worker timing account.
fn report_run(opts: &Opts, report: &RunReport) -> Result<(), CliError> {
    if let Some(path) = opts.get("quarantine") {
        let n = write_quarantine_file(std::path::Path::new(path), report)
            .map_err(|e| CliError::io(format!("writing {path}: {e}")))?;
        eprintln!("» {n} diagnostics quarantined to {path}");
    }
    for p in &report.poisoned {
        eprintln!("» warning: {p}");
    }
    for t in &report.timings {
        eprintln!(
            "» worker {}: {} chunks ({} stolen), {} records, {} bytes, {:.3}s busy ({:.0} rec/s, {:.2} MB/s)",
            t.worker,
            t.chunks,
            t.steals,
            t.records,
            t.bytes,
            t.busy.as_secs_f64(),
            t.records_per_sec(),
            t.bytes_per_sec() / 1e6,
        );
    }
    Ok(())
}

/// Everything a streaming command (`infer --streaming`, `infer
/// --validate`, `validate --streaming`, `translate --streaming`) reads
/// from the shared flags. Every such command runs the same way: it opens
/// one [`Corpus`] per pass (or hands `--input` to the journaled entry
/// point under `--checkpoint`), makes one library call per pass, reports
/// through [`report_run`], prints verdicts through
/// [`print_verdicts`](Self::print_verdicts) and closes with
/// [`summary`](Self::summary).
struct StreamRun {
    sopts: StreamingOptions,
    fault: FaultOptions,
    chunk: ChunkOptions,
    /// `--input FILE`: stream this file instead of loading the positional
    /// FILE.
    input: Option<String>,
    /// `--format csv`.
    csv: bool,
    /// `--checkpoint FILE` and whether `--resume` was given.
    checkpoint: Option<(String, bool)>,
    /// Whether the projecting fast path runs first (on unless
    /// `--no-fast-parse`, which wins over an explicit `--fast-parse`).
    fast: bool,
    /// A fault-tolerance, out-of-core or format flag was given: the
    /// summary line then carries the `, N rejected` account.
    counts_rejects: bool,
    /// Invalid records get the interpreter's diagnostics, not just their
    /// line number: only JSON loaded in memory with no out-of-core flag.
    diagnose: bool,
}

/// One pass's records, as the library's entry points take them.
enum Corpus<'a> {
    /// NDJSON from memory or from `--input`.
    Json(StreamSource<'a, Box<dyn BufRead + Send>>),
    /// CSV rows behind their peeled header, with the decoder it built.
    Csv(StreamSource<'a, Box<dyn BufRead + Send>>, CsvDecoder),
}

impl StreamRun {
    fn from_opts(opts: &Opts) -> Result<StreamRun, CliError> {
        let workers: Option<usize> = parse_flag(opts, "workers")?;
        let fault = fault_options(opts)?;
        let chunk = ChunkOptions {
            chunk_bytes: parse_flag(opts, "chunk-bytes")?.unwrap_or(0),
            timing: opts.has("report-timing"),
            ..ChunkOptions::default()
        };
        let csv = match opts.get("format") {
            None | Some("json") => false,
            Some("csv") => true,
            Some(other) => {
                return Err(CliError::usage(format!(
                    "unknown --format '{other}' (use json or csv)"
                )))
            }
        };
        let input = opts.get("input").map(str::to_string);
        let checkpoint = checkpoint_cli(opts, input.as_deref(), csv)?;
        let chunked = CHUNK_FLAGS.iter().any(|f| opts.has(f.name));
        let faulted = FAULT_FLAGS.iter().any(|f| opts.has(f.name));
        Ok(StreamRun {
            sopts: StreamingOptions::with_workers(workers.unwrap_or(0)),
            fault,
            chunk,
            input,
            csv,
            checkpoint,
            fast: !opts.has("no-fast-parse"),
            counts_rejects: faulted || chunked || csv,
            diagnose: !chunked && !csv,
        })
    }

    /// Loads the positional FILE (or stdin) for an in-memory run; `None`
    /// under `--input`, whose passes each stream the file.
    fn load(&self, opts: &Opts) -> Result<Option<String>, CliError> {
        match self.input {
            Some(_) => Ok(None),
            None => read_text(opts.file.as_deref()).map(Some),
        }
    }

    /// Opens one pass over the corpus: the loaded text, or `--input`
    /// afresh through a bounded ring of chunk buffers (`-` streams
    /// stdin). Under `--format csv` the header row becomes the decoder.
    fn open<'a>(&self, text: &'a Option<String>) -> Result<Corpus<'a>, CliError> {
        let source = match self.input.as_deref() {
            Some("-") => {
                StreamSource::Reader(Box::new(std::io::BufReader::new(std::io::stdin())) as Box<_>)
            }
            Some(path) => {
                let file = std::fs::File::open(path)
                    .map_err(|e| CliError::io(format!("reading {path}: {e}")))?;
                StreamSource::Reader(Box::new(std::io::BufReader::new(file)) as Box<_>)
            }
            None => StreamSource::Slice(text.as_deref().unwrap_or_default()),
        };
        if !self.csv {
            return Ok(Corpus::Json(source));
        }
        let (header, source) = peel_csv_header(source)?;
        let decoder = CsvDecoder::from_header(&header)
            .map_err(|e| CliError::data(format!("csv header: {e}")))?
            .with_limits(self.fault.limits);
        Ok(Corpus::Csv(source, decoder))
    }

    /// The `--input` path and journal control of a `--checkpoint` run.
    /// Installs the SIGINT/SIGTERM stop latch and wires the deterministic
    /// crash injector (`JSONX_CRASHPOINT`) the kill-and-resume harness
    /// drives. The injector counts commits across the whole run —
    /// translate's two phases share one counter — so `commits:N` always
    /// means the Nth journal record.
    fn journal(&self) -> Option<(&std::path::Path, JournalControl<'_>)> {
        let (journal, resume) = self.checkpoint.as_ref()?;
        let input = std::path::Path::new(self.input.as_deref()?);
        sig::install();
        let mut ctrl = JournalControl::new(std::path::Path::new(journal));
        ctrl.resume = *resume;
        ctrl.stop = Some(sig::stop_flag());
        if let Some(cp) = jsonx::gen::Crashpoint::from_env() {
            let total = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            ctrl.after_commit = Some(std::sync::Arc::new(move |_phase_commits| {
                let n = total.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                cp.observe_commit(n, sig::stop_flag());
            }));
        }
        Some((input, ctrl))
    }

    /// Prints one `doc N: …` line per invalid verdict and returns how many
    /// there were. When the run [diagnoses](Self::diagnose), each invalid
    /// record is re-parsed under the run's limits and re-run through the
    /// error-collecting interpreter, so its diagnostics match the DOM
    /// path; otherwise the line just says `invalid`.
    fn print_verdicts(
        &self,
        verdicts: &[(usize, LineVerdict)],
        text: Option<&str>,
        schema: &CompiledSchema,
        vopts: ValidatorOptions,
    ) -> Result<usize, CliError> {
        let decoder = JsonDecoder::new().with_limits(self.fault.limits);
        // Verdicts come in line order, so one pass over the lines finds
        // every invalid record.
        let mut lines = text
            .filter(|_| self.diagnose)
            .map(|t| t.lines().enumerate());
        let mut out = PipeOut::new();
        let mut invalid = 0usize;
        for (line_no, verdict) in verdicts {
            if verdict.is_valid() {
                continue;
            }
            invalid += 1;
            let line = lines.as_mut().and_then(|ls| ls.find(|(i, _)| i == line_no));
            let Some((_, line)) = line else {
                out.line(&format!("doc {line_no}: invalid"))?;
                continue;
            };
            match decoder.decode_value(&mut (), line) {
                Ok(doc) => {
                    if let Err(errors) = schema.validate_with(&doc, vopts) {
                        for e in errors {
                            out.line(&format!("doc {line_no}: {e}"))?;
                        }
                    }
                }
                Err(e) => {
                    out.line(&format!("doc {line_no}: {e}"))?;
                }
            }
        }
        out.finish()?;
        Ok(invalid)
    }

    /// The closing `» …` line of a streaming command: `what`, the run's
    /// mode (`modes[1]` under `--format csv`), `detail`, and the
    /// `, N rejected` account when the run [counts it](Self::counts_rejects).
    fn summary(&self, what: &str, modes: [&str; 2], detail: &str, report: &RunReport) -> String {
        let mode = modes[usize::from(self.csv)];
        let rejected = if self.counts_rejects {
            format!(", {} rejected", report.errors.total)
        } else {
            String::new()
        };
        format!("» {what} ({mode}){detail}{rejected}")
    }
}

/// Splits the CSV header row off a source, returning it together with
/// the remainder (whose record indices then count data rows from 0, as
/// the decoder expects).
fn peel_csv_header<R: BufRead + Send>(
    source: StreamSource<'_, R>,
) -> Result<(String, StreamSource<'_, R>), CliError> {
    let (header, rest) = match source {
        StreamSource::Slice(text) => match text.find('\n') {
            Some(i) => (text[..i].to_string(), StreamSource::Slice(&text[i + 1..])),
            None => (text.to_string(), StreamSource::Slice("")),
        },
        StreamSource::Reader(mut reader) => {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| {
                // `read_line` reports bytes that are not UTF-8 as
                // invalid data: malformed input, not a failed read.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    CliError::data("csv header: input is not valid UTF-8")
                } else {
                    CliError::io(format!("reading csv header: {e}"))
                }
            })?;
            (line, StreamSource::Reader(reader))
        }
    };
    let header = header.trim_end_matches(['\n', '\r']).to_string();
    if header.trim().is_empty() {
        return Err(CliError::data("csv input has no header row"));
    }
    Ok((header, rest))
}

/// Loads the whole corpus into memory — the in-memory path shared by
/// every command (`--input` is the out-of-core alternative). Raw bytes
/// are read first so non-UTF-8 input gets a clean diagnostic naming the
/// offending byte offset instead of a generic io error.
fn read_text(file: Option<&str>) -> Result<String, CliError> {
    let (bytes, name) = match file {
        None | Some("-") => {
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| CliError::io(format!("reading stdin: {e}")))?;
            (buf, "stdin")
        }
        Some(path) => (
            std::fs::read(path).map_err(|e| CliError::io(format!("reading {path}: {e}")))?,
            path,
        ),
    };
    String::from_utf8(bytes).map_err(|e| {
        CliError::data(format!(
            "{name}: input is not valid UTF-8 (bad byte at offset {})",
            e.utf8_error().valid_up_to()
        ))
    })
}

fn read_collection(file: Option<&str>) -> Result<Vec<Value>, CliError> {
    let text = read_text(file)?;
    parse_ndjson(&text).map_err(|(line, e)| CliError::data(format!("line {}: {e}", line + 1)))
}

/// Stdout wrapped for pipeline use (`jsonx cat big.jxc | head`): a
/// broken pipe quietly stops output instead of failing the run, so the
/// process still exits 0 — verdict loops keep counting, they just stop
/// printing. Any other write failure is a real I/O error (exit 3).
struct PipeOut {
    out: std::io::BufWriter<std::io::Stdout>,
    open: bool,
}

impl PipeOut {
    fn new() -> PipeOut {
        PipeOut {
            out: std::io::BufWriter::new(std::io::stdout()),
            open: true,
        }
    }

    /// Writes one line; returns `false` once the reader has gone away.
    /// Print-only callers may stop early on `false`; counting callers
    /// carry on and every later call is a cheap no-op.
    fn line(&mut self, text: &str) -> Result<bool, CliError> {
        if !self.open {
            return Ok(false);
        }
        match writeln!(self.out, "{text}") {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.open = false;
                Ok(false)
            }
            Err(e) => Err(CliError::io(format!("writing stdout: {e}"))),
        }
    }

    fn finish(mut self) -> Result<(), CliError> {
        match self.out.flush() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
            Err(e) => Err(CliError::io(format!("writing stdout: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// infer
// ---------------------------------------------------------------------------

fn cmd_infer(opts: &Opts) -> Result<(), CliError> {
    let equiv = match opts.get("equiv").unwrap_or("K") {
        "K" | "k" | "kind" => Equivalence::Kind,
        "L" | "l" | "label" => Equivalence::Label,
        other => {
            return Err(CliError::usage(format!(
                "unknown equivalence '{other}' (use K or L)"
            )))
        }
    };
    if !opts.streaming_requested() {
        let docs = read_collection(opts.file.as_deref())?;
        let ty = infer_collection(&docs, equiv);
        print_inferred_type(opts, &ty)?;
        eprintln!(
            "» {} documents (dom){}",
            docs.len(),
            type_detail(equiv, &ty)
        );
        return Ok(());
    }
    let run = StreamRun::from_opts(opts)?;
    if let Some(schema_path) = opts.get("validate") {
        if run.checkpoint.is_some() {
            return Err(CliError::usage(
                "--checkpoint does not support infer --validate (journal one pass at a time)",
            ));
        }
        return infer_validate_cli(opts, &run, equiv, schema_path);
    }
    let text = run.load(opts)?;
    let (sopts, chunk, fault) = (run.sopts, run.chunk, run.fault);
    let (ty, report) = match run.journal() {
        Some((input, ctrl)) => infer_streaming_journaled(input, equiv, sopts, chunk, fault, &ctrl),
        None => match run.open(&text)? {
            Corpus::Json(source) => infer_streaming_source(source, equiv, sopts, chunk, fault),
            Corpus::Csv(source, csv) => {
                infer_streaming_decoded(source, csv, equiv, sopts, chunk, fault)
            }
        },
    }
    .map_err(stream_err)?;
    report_run(opts, &report)?;
    print_inferred_type(opts, &ty)?;
    let documents = format!("{} documents", report.records - report.errors.total);
    let modes = ["streaming", "streaming csv"];
    let detail = type_detail(equiv, &ty);
    eprintln!("{}", run.summary(&documents, modes, &detail, &report));
    Ok(())
}

/// The `, equivalence K, type size N nodes` tail of an inference summary.
fn type_detail(equiv: Equivalence, ty: &jsonx::core::JType) -> String {
    let size = jsonx::core::type_size(ty);
    format!(", equivalence {}, type size {size} nodes", equiv.name())
}

fn print_inferred_type(opts: &Opts, ty: &jsonx::core::JType) -> Result<(), CliError> {
    let text = if opts.has("schema") {
        to_string_pretty(&to_json_schema(ty))
    } else {
        let popts = if opts.has("counts") {
            PrintOptions::with_counts()
        } else {
            PrintOptions::plain()
        };
        print_type(ty, popts)
    };
    let mut out = PipeOut::new();
    for line in text.lines() {
        if !out.line(line)? {
            break;
        }
    }
    out.finish()
}

/// Reads and compiles a schema document.
fn load_schema(path: &str) -> Result<(String, CompiledSchema), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::io(format!("reading {path}: {e}")))?;
    let doc = parse(&text).map_err(|e| CliError::data(format!("{path}: {e}")))?;
    let schema = CompiledSchema::compile(&doc).map_err(|e| e.to_string())?;
    Ok((text, schema))
}

/// The combined single-pass path behind `infer --validate SCHEMA.json`:
/// one tokenisation per line feeds both type fusion and the compiled
/// fail-fast validator. Invalid documents are reported but don't fail the
/// run — the primary output is still the inferred type.
fn infer_validate_cli(
    opts: &Opts,
    run: &StreamRun,
    equiv: Equivalence,
    schema_path: &str,
) -> Result<(), CliError> {
    let (_, schema) = load_schema(schema_path)?;
    let vopts = ValidatorOptions::default();
    let text = run.load(opts)?;
    let (sopts, chunk, fault) = (run.sopts, run.chunk, run.fault);
    let ((ty, verdicts), report) = match run.open(&text)? {
        Corpus::Json(source) => {
            let json = JsonDecoder::new().with_limits(fault.limits);
            infer_validate_streaming_decoded(
                source, json, equiv, &schema, vopts, sopts, chunk, fault,
            )
        }
        Corpus::Csv(source, csv) => infer_validate_streaming_decoded(
            source, csv, equiv, &schema, vopts, sopts, chunk, fault,
        ),
    }
    .map_err(stream_err)?;
    report_run(opts, &report)?;
    let invalid = run.print_verdicts(&verdicts, text.as_deref(), &schema, vopts)?;
    print_inferred_type(opts, &ty)?;
    let valid = format!(
        "{}/{} documents valid",
        verdicts.len() - invalid,
        verdicts.len()
    );
    let modes = ["combined pass", "combined pass, csv"];
    let detail = type_detail(equiv, &ty);
    eprintln!("{}", run.summary(&valid, modes, &detail, &report));
    Ok(())
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

fn cmd_validate(opts: &Opts) -> Result<(), CliError> {
    let schema_path = opts
        .get("schema")
        .ok_or_else(|| CliError::usage("validate needs --schema SCHEMA.json"))?;
    let (schema_text, schema) = load_schema(schema_path)?;
    let vopts = ValidatorOptions {
        enforce_formats: opts.has("formats"),
    };
    if !opts.streaming_requested() {
        let docs = read_collection(opts.file.as_deref())?;
        let mut out = PipeOut::new();
        let mut invalid = 0usize;
        for (i, doc) in docs.iter().enumerate() {
            if let Err(errors) = schema.validate_with(doc, vopts) {
                invalid += 1;
                for e in errors {
                    out.line(&format!("doc {i}: {e}"))?;
                }
            }
        }
        out.finish()?;
        eprintln!("» {}/{} documents valid", docs.len() - invalid, docs.len());
        if invalid > 0 {
            return Err(CliError::data(format!("{invalid} invalid documents")));
        }
        return Ok(());
    }
    // Streaming: fail-fast probe per record on shared workers, then the
    // error-collecting interpreter re-runs on *just* the invalid records.
    let run = StreamRun::from_opts(opts)?;
    let text = run.load(opts)?;
    let (sopts, chunk, fault, fast) = (run.sopts, run.chunk, run.fault, run.fast);
    let (verdicts, report) = match run.journal() {
        Some((input, ctrl)) => {
            // Identifies the schema in the journal's header, so a resume
            // with a different schema is refused instead of mixing
            // verdicts from two schemas in one output.
            let schema_tag = jsonx::data::crc32(schema_text.as_bytes());
            validate_streaming_journaled(
                input, &schema, vopts, sopts, chunk, fault, fast, schema_tag, &ctrl,
            )
        }
        None => match run.open(&text)? {
            Corpus::Json(source) => {
                validate_streaming_source(source, &schema, vopts, sopts, chunk, fault, fast)
            }
            Corpus::Csv(source, csv) => {
                validate_streaming_decoded(source, csv, &schema, vopts, sopts, chunk, fault)
            }
        },
    }
    .map_err(stream_err)?;
    report_run(opts, &report)?;
    let invalid = run.print_verdicts(&verdicts, text.as_deref(), &schema, vopts)?;
    let valid = format!(
        "{}/{} documents valid",
        verdicts.len() - invalid,
        verdicts.len()
    );
    let modes = ["streaming", "streaming csv"];
    eprintln!("{}", run.summary(&valid, modes, "", &report));
    if invalid > 0 {
        return Err(CliError::data(format!("{invalid} invalid documents")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// profile / skeleton / project
// ---------------------------------------------------------------------------

fn cmd_profile(opts: &Opts) -> Result<(), CliError> {
    let docs = read_collection(opts.file.as_deref())?;
    let mut profiler = MongoProfiler::default();
    for d in &docs {
        profiler.observe(d);
    }
    let mut out = PipeOut::new();
    for line in profiler.report().lines() {
        if !out.line(line)? {
            break;
        }
    }
    out.finish()?;
    eprintln!("» {} documents, {} paths", docs.len(), profiler.size());
    Ok(())
}

fn cmd_skeleton(opts: &Opts) -> Result<(), CliError> {
    let coverage: f64 = parse_flag(opts, "coverage")?.unwrap_or(0.9);
    let docs = read_collection(opts.file.as_deref())?;
    let sk = Skeleton::mine(&docs, coverage);
    let mut out = PipeOut::new();
    for (tree, count) in &sk.structures {
        if !out.line(&format!("{count:>8}  {tree}"))? {
            break;
        }
    }
    out.finish()?;
    let stats = sk.stats();
    eprintln!(
        "» {} structures, {:.1}% coverage, {} queryable paths",
        stats.structures,
        stats.coverage * 100.0,
        stats.paths
    );
    Ok(())
}

fn cmd_project(opts: &Opts) -> Result<(), CliError> {
    let fields_arg = opts
        .get("fields")
        .ok_or_else(|| CliError::usage("project needs --fields a,b.c"))?;
    let fields: Vec<&str> = fields_arg.split(',').collect();
    let parser = ProjectedParser::new(&fields).map_err(|e| e.to_string())?;
    let docs_text = read_text(opts.file.as_deref())?;
    let mut out = PipeOut::new();
    for line in docs_text.lines().filter(|l| !l.trim().is_empty()) {
        let projected = parser.parse(line.as_bytes()).map_err(|e| {
            let prefix: String = line.chars().take(60).collect();
            format!("{e} in document starting {prefix}...")
        })?;
        if !out.line(&to_string(&Value::Obj(projected)))? {
            break;
        }
    }
    out.finish()
}

// ---------------------------------------------------------------------------
// convert / translate / cat
// ---------------------------------------------------------------------------

fn cmd_convert(opts: &Opts) -> Result<(), CliError> {
    let target = opts
        .get("to")
        .ok_or_else(|| CliError::usage("convert needs --to avro|columnar|relational"))?;
    let sink = OutputSink::for_target(target, opts.get("out")).map_err(CliError::Usage)?;
    let docs = read_collection(opts.file.as_deref())?;
    convert_collection(&sink, &docs)
}

/// Schema-driven translation with a streaming columnar path.
///
/// `--streaming` (or `--workers`) shreds newline-bounded chunks into
/// per-worker columnar batches concatenated in input order — the type is
/// inferred from the same records by a first streaming pass, so no DOM
/// for the whole collection ever exists. `--format csv` swaps the record
/// decoder for the CSV front-end on the same engine; `--out FILE`
/// persists the batch as binary `.jxc`, written row group by row group
/// under `--input`. Other targets fall back to the DOM path shared with
/// `convert`.
fn cmd_translate(opts: &Opts) -> Result<(), CliError> {
    let target = opts.get("to").unwrap_or("columnar");
    let sink = OutputSink::for_target(target, opts.get("out")).map_err(CliError::Usage)?;
    if !opts.streaming_requested() {
        let docs = read_collection(opts.file.as_deref())?;
        return convert_collection(&sink, &docs);
    }
    let run = StreamRun::from_opts(opts)?;
    if !sink.wants_batch() {
        return Err(CliError::usage(format!(
            "--streaming supports only columnar, not '{target}'"
        )));
    }
    if run.input.as_deref() == Some("-") {
        return Err(CliError::usage(
            "translate needs two passes over the corpus; --input - (stdin) cannot be \
             re-read — pass a regular file",
        ));
    }
    let (sopts, chunk, fault, fast) = (run.sopts, run.chunk, run.fault, run.fast);
    let modes = ["streaming", "streaming csv"];
    if let (Some(input), Some(out), false) = (run.input.as_deref(), sink.jxc_out(), run.csv) {
        // Row-grouped output: each chunk's rows are encoded on the
        // worker that shredded them and appended to the `.jxc` in chunk
        // order, so no merged batch is ever resident. With --checkpoint
        // both passes commit into one journal (the inferred type is
        // sealed between them), so a resume lands in whichever phase the
        // run died in.
        let journal = run.journal().map(|(_, ctrl)| ctrl);
        let input = std::path::Path::new(input);
        let (written, report) = translate_streaming_to_jxc(
            input,
            Equivalence::Kind,
            sopts,
            chunk,
            fault,
            fast,
            out,
            journal.as_ref(),
        )
        .map_err(stream_err)?;
        report_run(opts, &report)?;
        let layout = Shredder::from_type(&written.ty).stream().finish();
        let out = OutputSink::written_report(&layout, written.rows, written.bytes, out);
        println!("{}", out.body);
        eprintln!("{}", run.summary(&out.summary, modes, "", &report));
        return Ok(());
    }
    if run.checkpoint.is_some() {
        return Err(CliError::usage(
            "translate --checkpoint needs --out FILE.jxc: the journal records where \
             each chunk's row group lands in that file",
        ));
    }
    // Two passes over the corpus, type then shred; `--input` is re-opened
    // so neither pass materialises it. Both passes run under the same
    // policy: a record the typer rejected is rejected again (and
    // quarantined) by the shredding pass, so the sidecar reflects what
    // the batch actually dropped.
    let text = run.load(opts)?;
    let kind = Equivalence::Kind;
    let (ty, _) = match run.open(&text)? {
        Corpus::Json(source) => infer_streaming_source(source, kind, sopts, chunk, fault),
        Corpus::Csv(source, csv) => infer_streaming_decoded(source, csv, kind, sopts, chunk, fault),
    }
    .map_err(stream_err)?;
    let shredder = Shredder::from_type(&ty);
    let (batch, report) = match run.open(&text)? {
        Corpus::Json(source) => {
            translate_streaming_source(source, &shredder, sopts, chunk, fault, fast)
        }
        Corpus::Csv(source, csv) => {
            translate_streaming_decoded(source, csv, &shredder, sopts, chunk, fault)
        }
    }
    .map_err(stream_err)?;
    report_run(opts, &report)?;
    let out = sink.consume_batch(&batch)?;
    println!("{}", out.body);
    eprintln!("{}", run.summary(&out.summary, modes, "", &report));
    Ok(())
}

/// The DOM translation path shared by `convert` and non-streaming
/// `translate`: infer, hand the collection to the sink, print its report.
fn convert_collection(sink: &OutputSink, docs: &[Value]) -> Result<(), CliError> {
    let ty = infer_collection(docs, Equivalence::Kind);
    let report = sink.consume(&ty, docs)?;
    if !report.body.is_empty() {
        println!("{}", report.body);
    }
    if !report.summary.is_empty() {
        eprintln!("» {}", report.summary);
    }
    Ok(())
}

/// `jsonx cat FILE.jxc`: schema and rows on stdout, per-column encoding
/// summary on stderr. `--flatten` cross-joins list columns into flat
/// rows; `--head N` bounds the rows shown.
fn cmd_cat(opts: &Opts) -> Result<(), CliError> {
    use jsonx::translate::JxcError;
    let path = opts
        .file
        .as_deref()
        .ok_or_else(|| CliError::usage("cat needs a FILE.jxc argument"))?;
    let head: usize = parse_flag(opts, "head")?.unwrap_or(10);
    let file = read_jxc_file(std::path::Path::new(path)).map_err(|e| match e {
        JxcError::Io(_) => CliError::io(e.to_string()),
        _ => CliError::data(e.to_string()),
    })?;
    let mut out = PipeOut::new();
    out.line(&file.batch.schema_string())?;
    let rows = if opts.has("flatten") {
        flatten_rows(&file, head)
    } else {
        rows_as_values(&file.batch, head)
    };
    for row in &rows {
        if !out.line(&to_string(row))? {
            break;
        }
    }
    out.finish()?;
    for (c, info) in file.columns.iter().enumerate() {
        // Row groups encode a column independently; name every encoding
        // the file used for it, in order of first use.
        let mut encodings: Vec<&str> = Vec::new();
        for group in &file.groups {
            let label = group.columns[c].encoding.label();
            if !encodings.contains(&label) {
                encodings.push(label);
            }
        }
        if encodings.is_empty() {
            encodings.push(info.encoding.label());
        }
        let detail = match (info.dict_len, info.list_items) {
            (Some(d), Some(items)) => format!(" ({items} items, dict {d})"),
            (Some(d), None) => format!(" (dict {d})"),
            (None, Some(items)) => format!(" ({items} items)"),
            (None, None) => String::new(),
        };
        eprintln!(
            "» {}: {} {}{detail}, {}/{} valid, {} bytes",
            info.path,
            info.type_name,
            encodings.join("+"),
            info.valid_count,
            file.batch.rows,
            info.block_bytes
        );
    }
    eprintln!(
        "» {} columns x {} rows in {} row groups, showing {}",
        file.columns.len(),
        file.batch.rows,
        file.groups.len(),
        rows.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    use jsonx::serve::{ServeConfig, Server};
    if opts.file.is_some() {
        return Err(CliError::usage(
            "serve takes no FILE argument (payloads arrive over the socket)",
        ));
    }
    let mut limits = ParseLimits::new();
    if let Some(depth) = parse_flag(opts, "max-depth")? {
        limits = limits.with_max_depth(depth);
    }
    if let Some(bytes) = parse_flag(opts, "max-line-bytes")? {
        limits = limits.with_max_input_bytes(bytes);
    }
    let mut config = ServeConfig {
        listen: opts.get("listen").unwrap_or("127.0.0.1:7077").to_string(),
        schema_path: opts.get("schema").map(std::path::PathBuf::from),
        limits,
        debug_faults: opts.has("debug-faults"),
        ..ServeConfig::default()
    };
    if let Some(depth) = parse_flag(opts, "queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(ms) = parse_flag::<u64>(opts, "deadline-ms")? {
        config.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = parse_flag(opts, "max-conns")? {
        config.max_conns = n;
    }
    if let Some(n) = parse_flag(opts, "workers")? {
        config.workers = n;
    }
    if let Some(ms) = parse_flag::<u64>(opts, "frame-budget-ms")? {
        config.frame_budget = std::time::Duration::from_millis(ms);
    }
    let server = Server::bind(config).map_err(|e| CliError::io(e.to_string()))?;
    let addr = server
        .local_addr()
        .ok_or_else(|| CliError::io("could not determine listen address"))?;
    // The harness and the CI gate scrape this line, so flush it past any
    // pipe buffering before blocking in the accept loop.
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    let report = server.run();
    eprintln!("{}", report.to_json_line());
    if report.reconciled() {
        Ok(())
    } else {
        Err(CliError::data("final report failed reconciliation"))
    }
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

fn cmd_query(opts: &Opts) -> Result<(), CliError> {
    use jsonx::jaql::{expr, infer_output_type, Pipeline};
    let mut q = Pipeline::new();
    if let Some(path) = opts.get("where-exists") {
        q = q.filter(expr::exists(expr::path(path)));
    }
    if let Some(path) = opts.get("expand") {
        q = q.expand(expr::path(path));
    }
    if let Some(projection) = opts.get("project") {
        let fields: Vec<(&str, jsonx::jaql::Expr)> = projection
            .split(',')
            .map(|p| {
                let name = p.rsplit('.').next().unwrap_or(p);
                (name, expr::path(p))
            })
            .collect();
        q = q.transform(expr::record(fields));
    }
    if let Some(n) = parse_flag::<usize>(opts, "top")? {
        q = q.top(n);
    }
    let docs = read_collection(opts.file.as_deref())?;
    // Static output schema first — the Jaql §4.1 feature.
    let input_ty = infer_collection(&docs, Equivalence::Kind);
    let output_ty = infer_output_type(&q, &input_ty);
    eprintln!("» pipeline: {q}");
    eprintln!(
        "» inferred output type: {}",
        print_type(&output_ty, PrintOptions::plain())
    );
    let mut out = PipeOut::new();
    for row in q.eval(&docs) {
        if !out.line(&to_string(&row))? {
            break;
        }
    }
    out.finish()
}
