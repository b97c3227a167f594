//! The traced run: each layer's public functions called over the
//! workload's corpus, a span around each call, and the per-layer metrics
//! and reconciliation checks derived from those spans.
//!
//! Every layer is measured on every workload, so each metric exists on
//! each; `README.md` says which workload's end-to-end numbers each layer
//! can move. The composition is single-threaded and layer-major within
//! each chunk: all records of a chunk pass one layer before the next,
//! so a span covers one layer's calls for one chunk.

use crate::corpus::Files;
use crate::e2e::{batch_command, mismatches, validate_frames};
use crate::proc::run_measured;
use crate::serve::{self, Daemon, Pace, Reply};
use crate::trace::Recorder;
use crate::{median, metric, oracle, quantile, Metric, Outcome, Workload, WORKERS};
use jsonx::core::{fuse, print_type, Equivalence, JType, PrintOptions};
use jsonx::pipeline::{
    read_journal, ChunkSource, JournalWriter, ReaderChunks, DEFAULT_CHUNK_BYTES,
};
use jsonx::schema::CompiledSchema;
use jsonx::syntax::{
    parse, parse_with, FieldSet, ParserOptions, RawEventParser, ScanOptions, StructuralScanner,
};
use jsonx::translate::{write_jxc, ColumnData, ColumnarBatch, Shredder};
use jsonx::{ChunkOptions, FaultOptions, StreamSource, StreamTyper, StreamingOptions, Value};
use std::io::{BufReader, Write};
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Open-loop rates tried against the daemon, requests per second.
const LADDER: [u32; 5] = [2_000, 4_000, 8_000, 16_000, 32_000];
/// The rate `serve.p50_ms` and `serve.p99_ms` are reported at.
const REFERENCE_RPS: u32 = 2_000;
/// A ladder rate is sustained when its p99 stays under this limit with
/// no failed request and the generator never falls this far behind.
const P99_LIMIT_MS: f64 = 10.0;
/// Timed repeats per worker count for the engine speed-up.
const ENGINE_REPEATS: usize = 3;
/// Untraced/traced composition pairs behind `trace.overhead_frac`; an
/// even count, so each order runs equally often.
const OVERHEAD_PAIRS: usize = 2;

/// Counts one composition pass collects besides its spans.
#[derive(Default)]
struct Counts {
    chunks: usize,
    chunk_bytes: u64,
    chunk_records: usize,
    event_records: usize,
    typed_records: usize,
    validate: ScanCount,
    shred: ScanCount,
    validated: usize,
    invalid: usize,
    shredded_rows: usize,
}

/// What one scan pass saw.
#[derive(Default, Clone, Copy)]
struct ScanCount {
    records: usize,
    bytes: u64,
    projected: u64,
    skipped: u64,
    declined: usize,
}

/// The outputs a composition produces, for the reconciliation checks.
struct Composed {
    ty: JType,
    batch: ColumnarBatch,
    jxc_bytes: u64,
    counts: Counts,
    journal_records: usize,
    journal_bytes: u64,
    /// Wall time from the first chunk read to the end of the encode.
    wall: Duration,
}

/// A projection plan: the field set and the scan limits.
struct Plan {
    set: FieldSet,
    opts: ScanOptions,
}

/// One record's projected `(key, value)` byte spans; `None` when the
/// scanner declined it and the full parser takes the whole record.
type FieldSpans = Option<Vec<(Range<usize>, Range<usize>)>>;

/// Scans every line of `text` under `plan`, keeping each accepted
/// record's projected field spans (`None` for a declined record, which
/// the full parser then takes).
fn scan_chunk(
    scanner: &mut StructuralScanner,
    text: &str,
    plan: &Option<Plan>,
    count: &mut ScanCount,
) -> Vec<FieldSpans> {
    text.lines()
        .map(|line| {
            let bytes = line.len() as u64 + 1;
            count.records += 1;
            count.bytes += bytes;
            let spans = plan.as_ref().and_then(|p| {
                scanner.scan(line.as_bytes(), &p.set, &p.opts).then(|| {
                    scanner
                        .fields()
                        .iter()
                        .map(|f| (f.key.clone(), f.value.clone()))
                        .collect::<Vec<_>>()
                })
            });
            match &spans {
                Some(fields) => {
                    let kept: u64 = fields.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
                    count.projected += kept;
                    count.skipped += bytes - kept;
                }
                None => {
                    count.declined += 1;
                    count.projected += bytes;
                }
            }
            spans
        })
        .collect()
}

/// Builds each record's document: only the projected fields (each
/// parsed from its exact span, last duplicate wins) for accepted
/// records, the full parse for declined ones.
fn parse_chunk(text: &str, scans: &[FieldSpans]) -> Result<Vec<Value>, String> {
    let popts = ParserOptions {
        max_depth: jsonx::syntax::DEFAULT_MAX_DEPTH,
        allow_trailing: false,
        max_string_bytes: None,
    };
    text.lines()
        .zip(scans)
        .map(|(line, scan)| match scan {
            None => parse(line).map_err(|e| e.to_string()),
            Some(fields) => {
                let mut obj = jsonx::Object::new();
                for (k, v) in fields {
                    let value = parse_with(&line.as_bytes()[v.clone()], popts)
                        .map_err(|e| e.to_string())?;
                    obj.insert(&line[k.clone()], value);
                }
                Ok(Value::Obj(obj))
            }
        })
        .collect()
}

/// Heap bytes held by a batch's column vectors.
fn batch_bytes(batch: &ColumnarBatch) -> u64 {
    let strs = |v: &Vec<String>| v.iter().map(|s| 24 + s.len() as u64).sum::<u64>();
    batch
        .columns
        .iter()
        .map(|c| {
            c.validity.len() as u64
                + match &c.data {
                    ColumnData::Bools(v) => v.len() as u64,
                    ColumnData::Ints(v) => 8 * v.len() as u64,
                    ColumnData::Floats(v) => 8 * v.len() as u64,
                    ColumnData::Strs(v) | ColumnData::Json(v) => strs(v),
                }
        })
        .sum()
}

/// One pass of every layer over the corpus.
#[allow(clippy::too_many_arguments)]
fn compose(
    rec: &mut Recorder,
    input: &Path,
    schema: &CompiledSchema,
    lib_ty: &JType,
    cli_journal: &Path,
    dir: &Path,
    tag: &str,
) -> Result<Composed, String> {
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    let root = rec.open("compose", None);
    let validate_plan = schema.root_projection().map(|names| Plan {
        set: FieldSet::new(names),
        opts: ScanOptions::default(),
    });
    let shredder = Shredder::from_type(lib_ty);
    let shred_plan = shredder.root_fields().map(|names| Plan {
        set: FieldSet::new(names.iter().cloned()),
        opts: ScanOptions {
            reject_dotted_skipped: true,
            ..ScanOptions::default()
        },
    });
    let mut validator = schema.fast_validator();
    let mut typer = StreamTyper::new(Equivalence::Kind);
    let mut scanner = StructuralScanner::new();
    let mut stream = shredder.stream();
    let mut ty = JType::Bottom;
    let mut batch: Option<ColumnarBatch> = None;
    let mut n = Counts::default();

    let file = std::fs::File::open(input).map_err(io)?;
    let source = ReaderChunks::new(BufReader::new(file), DEFAULT_CHUNK_BYTES, 1);
    loop {
        let next = rec.span("chunk.read", root, Some(n.chunks), || source.next_chunk());
        let Some(chunk) = next.map_err(|e| e.to_string())? else {
            break;
        };
        let c = Some(chunk.seq);
        let text: &str = &chunk.text;
        n.chunks += 1;
        n.chunk_bytes += text.len() as u64;
        n.chunk_records += text.lines().count();

        let r = rec.span("parse.events", root, c, || {
            text.lines()
                .map(|l| RawEventParser::new(l.as_bytes()).finish())
                .collect::<Result<Vec<()>, _>>()
                .map(|v| v.len())
        });
        n.event_records += r.map_err(|e| e.to_string())?;
        let r = rec.span("fold.infer", root, c, || {
            let mut acc = JType::Bottom;
            for l in text.lines() {
                acc = fuse(acc, typer.type_document(l.as_bytes())?, Equivalence::Kind);
                n.typed_records += 1;
            }
            Ok::<_, jsonx::syntax::ParseError>(acc)
        });
        let chunk_ty = r.map_err(|e| e.to_string())?;
        rec.span("merge.fuse", root, c, || {
            ty = fuse(
                std::mem::replace(&mut ty, JType::Bottom),
                chunk_ty,
                Equivalence::Kind,
            )
        });

        let scans = rec.span("scan.validate", root, c, || {
            scan_chunk(&mut scanner, text, &validate_plan, &mut n.validate)
        });
        let docs = rec.span("parse.validate", root, c, || parse_chunk(text, &scans))?;
        rec.span("fold.validate", root, c, || {
            for d in &docs {
                n.validated += 1;
                n.invalid += usize::from(!validator.is_valid(d));
            }
        });

        let scans = rec.span("scan.shred", root, c, || {
            scan_chunk(&mut scanner, text, &shred_plan, &mut n.shred)
        });
        let docs = rec.span("parse.shred", root, c, || parse_chunk(text, &scans))?;
        let part = rec.span("fold.shred", root, c, || {
            for d in &docs {
                stream.push(d)?;
            }
            Ok::<_, jsonx::translate::ShredError>(stream.take_batch())
        });
        let part = part.map_err(|e| e.to_string())?;
        n.shredded_rows += part.rows;
        rec.span("merge.append", root, c, || match &mut batch {
            Some(b) => b.append(part),
            None => batch = Some(part),
        });
        drop(docs);
        source.recycle(chunk.text.into_owned());
    }
    let batch = batch.unwrap_or_else(|| shredder.stream().finish());

    let bytes = rec.span("sink.encode", root, None, || write_jxc(&batch));
    // The file write and the fsync'd journal are disk-bound and far
    // noisier than the rest, so the overhead comparison stops here.
    let wall = start.elapsed();
    let jxc = dir.join(format!("{tag}.jxc"));
    rec.span("sink.write", root, None, || {
        std::fs::File::create(&jxc).and_then(|mut f| f.write_all(&bytes))
    })
    .map_err(io)?;

    // The journal layer replays the records the CLI's journaled run
    // committed, through the same writer (one fsync per record).
    let records = read_journal(cli_journal).map_err(io)?.records;
    let replay = dir.join(format!("{tag}.journal"));
    let mut writer = JournalWriter::create(&replay).map_err(io)?;
    for (i, payload) in records.iter().enumerate() {
        rec.span("journal.append", root, Some(i), || writer.append(payload))
            .map_err(io)?;
    }
    drop(writer);
    rec.close(root);
    Ok(Composed {
        ty,
        batch,
        jxc_bytes: bytes.len() as u64,
        counts: n,
        journal_records: records.len(),
        journal_bytes: std::fs::metadata(&replay).map_err(io)?.len(),
        wall,
    })
}

/// The engine layer: the workload's library stage over a file reader
/// with per-worker timing, at one and at two workers.
struct Engine {
    busy_s: f64,
    idle_frac: f64,
    steals: f64,
    speedup_w2: f64,
}

fn engine(
    w: Workload,
    input: &Path,
    schema: &CompiledSchema,
    ty: &JType,
    records: usize,
) -> Result<Engine, String> {
    let shredder = Shredder::from_type(ty);
    let once = |workers: usize| -> Result<(f64, jsonx::RunReport), String> {
        let reader = BufReader::new(std::fs::File::open(input).map_err(|e| e.to_string())?);
        let source = StreamSource::Reader(reader);
        let sopts = StreamingOptions::with_workers(workers);
        let chunk = ChunkOptions {
            timing: true,
            ..ChunkOptions::default()
        };
        let fault = FaultOptions::default();
        let start = Instant::now();
        let report = match w {
            Workload::InferGithub => {
                jsonx::infer_streaming_source(source, Equivalence::Kind, sopts, chunk, fault)
                    .map(|r| r.1)
            }
            Workload::ValidateEnvelopeNyt | Workload::ServeValidate => {
                jsonx::validate_streaming_source(
                    source,
                    schema,
                    jsonx::schema::ValidatorOptions::default(),
                    sopts,
                    chunk,
                    fault,
                    true,
                )
                .map(|r| r.1)
            }
            Workload::TranslateJournaledGithub => {
                jsonx::translate_streaming_source(source, &shredder, sopts, chunk, fault, true)
                    .map(|r| r.1)
            }
        }
        .map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        if report.records != records {
            return Err(format!(
                "engine saw {} records, corpus has {records}",
                report.records
            ));
        }
        Ok((wall, report))
    };
    let (mut w1, mut w2, mut busy, mut steals, mut idle) = (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..ENGINE_REPEATS {
        w1.push(once(1)?.0);
        let (wall, report) = once(WORKERS)?;
        let b: f64 = report.timings.iter().map(|t| t.busy.as_secs_f64()).sum();
        w2.push(wall);
        busy.push(b);
        steals.push(report.timings.iter().map(|t| t.steals).sum::<usize>() as f64);
        idle.push(1.0 - b / (WORKERS as f64 * wall));
    }
    Ok(Engine {
        busy_s: median(&busy),
        idle_frac: median(&idle),
        steals: median(&steals),
        speedup_w2: median(&w1) / median(&w2),
    })
}

/// The serve layer, from outside: idle round trip, an open-loop ladder
/// of `VALIDATE` rates, `STATS` and the final report.
#[derive(Default)]
struct ServeProbe {
    idle_rtt_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    gen_late_ms: f64,
    max_rps: f64,
    enqueued: u64,
    shed: u64,
    expired: u64,
    failures: Vec<String>,
    sent: u64,
}

fn serve_probe(
    jsonx: &Path,
    schema_path: &Path,
    text: &str,
    want: &[bool],
    step: Duration,
) -> Result<ServeProbe, String> {
    let io = |e: std::io::Error| e.to_string();
    let frames = validate_frames(text);
    let daemon = Daemon::spawn(jsonx, schema_path, WORKERS).map_err(io)?;
    let mut probe = ServeProbe::default();
    let mut conns = vec![daemon.connect().map_err(io)?, daemon.connect().map_err(io)?];
    let mut rtts = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let reply = serve::request(&mut conns[0], "PING").map_err(io)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
        if !reply.contains("\"ok\":true") {
            probe.failures.push(format!("PING answered {reply}"));
        }
    }
    probe.idle_rtt_ms = median(&rtts);

    let mut sustained = true;
    for rate in LADDER {
        let count = (rate as f64 * step.as_secs_f64()) as usize;
        let idx: Vec<usize> = (0..count).map(|i| i % frames.len()).collect();
        let batch: Vec<&[u8]> = idx.iter().map(|&i| frames[i].as_slice()).collect();
        let want_step: Vec<bool> = idx.iter().map(|&i| want[i]).collect();
        let interval = Duration::from_secs_f64(conns.len() as f64 / rate as f64);
        let t0 = Instant::now() + Duration::from_millis(5);
        let driven = serve::drive_all(&mut conns, &batch, |c| Pace::Open {
            start: t0 + Duration::from_secs_f64(c as f64 / rate as f64),
            interval,
        })
        .map_err(io)?;
        probe.sent += count as u64;
        let bad = mismatches(&driven, &want_step);
        let failed = driven
            .iter()
            .flat_map(|(_, d)| &d.replies)
            .filter(|r| **r == Reply::Failed)
            .count();
        let lat: Vec<f64> = driven
            .iter()
            .flat_map(|(_, d)| d.latency_ns.iter().map(|&ns| ns as f64 * 1e-6))
            .collect();
        let late = driven.iter().map(|(_, d)| d.gen_late_ns).max().unwrap_or(0) as f64 * 1e-6;
        let (p50, p99) = (quantile(&lat, 0.5), quantile(&lat, 0.99));
        println!("ladder: {rate} req/s  n={count} p50={p50:.3}ms p99={p99:.3}ms gen_late={late:.3}ms failed={failed}");
        if bad > 0 {
            probe.failures.push(format!(
                "{bad} replies at {rate} req/s differ from the batch verdicts"
            ));
        }
        if rate == REFERENCE_RPS {
            probe.p50_ms = p50;
            probe.p99_ms = p99;
            probe.samples = lat.len();
            probe.gen_late_ms = late;
        }
        sustained &= failed == 0 && p99 <= P99_LIMIT_MS && late <= P99_LIMIT_MS;
        if sustained {
            probe.max_rps = rate as f64;
        }
    }
    let stats = serve::request(&mut conns[0], "STATS").map_err(io)?;
    drop(conns);
    let (report, exited_ok) = daemon.shutdown().map_err(io)?;
    let count = |k: &str| report.get(k).and_then(|v| v.as_i64()).unwrap_or(-1) as u64;
    probe.enqueued = count("enqueued");
    probe.shed = count("shed");
    probe.expired = count("expired");
    if !exited_ok || report.get("reconciled").and_then(|v| v.as_bool()) != Some(true) {
        probe
            .failures
            .push("serve final report is not reconciled".into());
    }
    if probe.enqueued + probe.shed != probe.sent {
        probe.failures.push(format!(
            "serve enqueued {} + shed {} != {} sent",
            probe.enqueued, probe.shed, probe.sent
        ));
    }
    let stats = jsonx::syntax::parse(&stats).map_err(|e| format!("STATS reply: {e}"))?;
    if stats.get("enqueued").and_then(|v| v.as_i64()) != Some(probe.enqueued as i64) {
        probe
            .failures
            .push("STATS enqueued differs from the final report".into());
    }
    Ok(probe)
}

pub fn run(
    w: Workload,
    jsonx: &Path,
    files: &Files,
    dir: &Path,
    seconds: f64,
) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let text = std::fs::read_to_string(&files.input).map_err(io)?;
    let lib_ty = oracle::inferred_type(&text)?;
    let schema_doc = jsonx::syntax::parse(&std::fs::read_to_string(&files.schema).map_err(io)?)
        .map_err(|e| e.to_string())?;
    let mut compile = Vec::new();
    let mut schema = None;
    for _ in 0..51 {
        let t = Instant::now();
        schema = Some(CompiledSchema::compile(&schema_doc).map_err(|e| e.to_string())?);
        compile.push(t.elapsed().as_secs_f64());
    }
    let schema = schema.expect("compiled at least once");
    let want = oracle::verdicts(&text, &schema)?;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // The CLI's journaled run of the workload's command: its journal is
    // what the journal layer replays.
    let mut bc = batch_command(w, jsonx, files, &files.input, dir, "cli", WORKERS);
    let cli_journal = dir.join("cli.journal");
    if w != Workload::TranslateJournaledGithub {
        bc.cmd.arg("--checkpoint").arg(&cli_journal);
    }
    let _ = std::fs::remove_file(&cli_journal);
    let usage =
        run_measured(bc.cmd, &dir.join("cli.stdout"), &dir.join("cli.stderr")).map_err(io)?;
    attempted += 1;
    // Every workload's corpus is valid under its schema, so a clean run
    // exits 0.
    if usage.code != 0 {
        failures.push(format!("journaled CLI run exited {}", usage.code));
    }
    let cli_journal_bytes = std::fs::metadata(&cli_journal).map_err(io)?.len();

    // Untraced and traced compositions alternate which runs first; the
    // tracing overhead is the ratio of their summed walls. The last
    // traced pass supplies the spans and the checked outputs.
    let compose_with = |rec: &mut Recorder, tag: &str| {
        compose(rec, &files.input, &schema, &lib_ty, &cli_journal, dir, tag)
    };
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for pair in 0..OVERHEAD_PAIRS {
        drop(last.take());
        let traced_first = pair % 2 == 1;
        let mut rec = Recorder::new(true);
        let (plain, traced) = if traced_first {
            let t = compose_with(&mut rec, "traced")?;
            (compose_with(&mut Recorder::new(false), "plain")?, t)
        } else {
            let p = compose_with(&mut Recorder::new(false), "plain")?;
            (p, compose_with(&mut rec, "traced")?)
        };
        attempted += 2;
        plain_s += plain.wall.as_secs_f64();
        traced_s += traced.wall.as_secs_f64();
        if plain.batch != traced.batch {
            failures.push("traced and untraced compositions differ".into());
        }
        last = Some((rec, traced));
    }
    let (rec, traced) = last.expect("at least one pair");
    rec.write(&dir.join("spans.jsonl")).map_err(io)?;

    // Reconciliation: every layer saw the whole input and every record.
    let n = &traced.counts;
    let r = files.records;
    let expect = |ok: bool, what: String, failures: &mut Vec<String>| {
        if !ok {
            failures.push(what)
        }
    };
    expect(
        n.chunk_bytes == files.input_bytes,
        format!(
            "chunk.bytes {} != input {}",
            n.chunk_bytes, files.input_bytes
        ),
        &mut failures,
    );
    for (name, s) in [("validate", n.validate), ("shred", n.shred)] {
        expect(
            s.bytes == files.input_bytes,
            format!(
                "scan.{name} bytes {} != input {}",
                s.bytes, files.input_bytes
            ),
            &mut failures,
        );
        expect(
            s.projected + s.skipped == s.bytes,
            format!("scan.{name}: projected + skipped != scanned"),
            &mut failures,
        );
        expect(
            s.records == r,
            format!("scan.{name} saw {} records, not {r}", s.records),
            &mut failures,
        );
    }
    for (name, got) in [
        ("chunk", n.chunk_records),
        ("parse.events", n.event_records),
        ("fold.infer", n.typed_records),
        ("fold.validate", n.validated),
        ("fold.shred", n.shredded_rows),
        ("merge.append", traced.batch.rows),
    ] {
        expect(
            got == r,
            format!("{name} saw {got} records, not {r}"),
            &mut failures,
        );
    }
    expect(
        print_type(&traced.ty, PrintOptions::plain()) == print_type(&lib_ty, PrintOptions::plain()),
        "fused type differs from the library's".into(),
        &mut failures,
    );
    expect(
        n.invalid == want.iter().filter(|&&v| !v).count(),
        "invalid count differs from the library's".into(),
        &mut failures,
    );
    expect(
        traced.batch == oracle::shredded(&text, &lib_ty)?,
        "merged batch differs from the library's shredded batch".into(),
        &mut failures,
    );
    expect(
        oracle::read_back(&dir.join("traced.jxc"))? == traced.batch,
        ".jxc read back differs from the merged batch".into(),
        &mut failures,
    );
    expect(
        traced.journal_bytes == cli_journal_bytes,
        format!(
            "journal.bytes {} != CLI journal {}",
            traced.journal_bytes, cli_journal_bytes
        ),
        &mut failures,
    );
    let merged_mb = batch_bytes(&traced.batch) as f64 / 1e6;

    let eng = engine(w, &files.input, &schema, &lib_ty, r)?;
    attempted += 2 * ENGINE_REPEATS as u64;

    let step = Duration::from_secs_f64((seconds / 10.0).clamp(0.5, 2.0));
    let probe = serve_probe(jsonx, &files.schema, &text, &want, step)?;
    attempted += probe.sent;
    failures.extend(probe.failures.iter().cloned());

    // The workload's own projection sets the scan metrics.
    let scan = match w {
        Workload::ValidateEnvelopeNyt | Workload::ServeValidate => n.validate,
        _ => n.shred,
    };
    let selfs = rec.self_times();
    let t = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let metrics: Vec<Metric> = vec![
        metric("chunk.read_s", t("chunk.read"), "s"),
        metric("chunk.count", n.chunks as f64, "count"),
        metric("chunk.bytes", n.chunk_bytes as f64, "bytes"),
        metric("engine.busy_s", eng.busy_s, "s"),
        metric("engine.idle_frac", eng.idle_frac, "fraction"),
        metric("engine.steals", eng.steals, "count"),
        metric("engine.speedup_w2", eng.speedup_w2, "ratio"),
        metric("scan.s", t("scan.validate") + t("scan.shred"), "s"),
        metric("scan.bytes", scan.bytes as f64, "bytes"),
        metric(
            "scan.skipped_frac",
            scan.skipped as f64 / scan.bytes as f64,
            "fraction",
        ),
        metric("scan.declined", scan.declined as f64, "count"),
        metric(
            "parse.s",
            t("parse.events") + t("parse.validate") + t("parse.shred"),
            "s",
        ),
        metric("parse.records", n.event_records as f64, "count"),
        metric(
            "fold.infer_s",
            (t("fold.infer") - t("parse.events")).max(0.0),
            "s",
        ),
        metric("merge.fuse_s", t("merge.fuse"), "s"),
        metric("schema.compile_s", median(&compile), "s"),
        metric("fold.validate_s", t("fold.validate"), "s"),
        metric("validate.invalid", n.invalid as f64, "count"),
        metric("fold.shred_s", t("fold.shred"), "s"),
        metric("merge.append_s", t("merge.append"), "s"),
        metric("merge.batch_mb", merged_mb, "MB"),
        metric("sink.encode_s", t("sink.encode"), "s"),
        metric("sink.write_s", t("sink.write"), "s"),
        metric("sink.bytes", traced.jxc_bytes as f64, "bytes"),
        metric("journal.append_s", t("journal.append"), "s"),
        metric("journal.records", traced.journal_records as f64, "count"),
        metric("journal.bytes", traced.journal_bytes as f64, "bytes"),
        metric("serve.idle_rtt_ms", probe.idle_rtt_ms, "ms"),
        metric("serve.p50_ms", probe.p50_ms, "ms"),
        metric("serve.p99_ms", probe.p99_ms, "ms"),
        metric("serve.samples", probe.samples as f64, "count"),
        metric("serve.gen_late_ms", probe.gen_late_ms, "ms"),
        metric("serve.max_rps", probe.max_rps, "1/s"),
        metric("serve.enqueued", probe.enqueued as f64, "count"),
        metric("serve.shed", probe.shed as f64, "count"),
        metric("serve.expired", probe.expired as f64, "count"),
        metric("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction"),
    ];
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics,
    })
}
