//! End-to-end runs with tracing off: the real release `jsonx` binary,
//! repeated for the run's seconds, every output checked.

use crate::corpus::Files;
use crate::proc::{self, run_measured, Usage};
use crate::serve::{self, Daemon, Pace, Reply};
use crate::{median, metric, oracle, quantile, Metric, Outcome, Workload, WORKERS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Set-up measurements per run, at least; the median is reported.
const SETUP_REPEATS: usize = 41;
/// Set-up measurements after each main repeat. Interleaving spreads them
/// over the whole run, so a burst of load from elsewhere on the machine
/// shifts few of them.
const SETUP_PER_REPEAT: usize = 2;
/// Minimum timed repeats of the main measurement, however short the run.
const MIN_REPEATS: usize = 3;

/// One batch invocation: the command line and the files it leaves.
pub struct BatchCmd {
    pub cmd: Command,
    /// Output files the command writes; removed before each run so every
    /// repeat starts from the same state (a journal left behind would
    /// turn the next run into a resume).
    pub outputs: Vec<PathBuf>,
}

/// The workload's batch command over `input`, writing into `dir` under
/// the name `tag`.
pub fn batch_command(
    w: Workload,
    jsonx: &Path,
    files: &Files,
    input: &Path,
    dir: &Path,
    tag: &str,
    workers: usize,
) -> BatchCmd {
    let mut cmd = Command::new(jsonx);
    let mut outputs = Vec::new();
    match w {
        Workload::InferGithub => {
            cmd.arg("infer");
        }
        Workload::ValidateEnvelopeNyt | Workload::ServeValidate => {
            cmd.arg("validate").arg("--schema").arg(&files.schema);
        }
        Workload::TranslateJournaledGithub => {
            let out = dir.join(format!("{tag}.jxc"));
            let journal = dir.join(format!("{tag}.journal"));
            cmd.arg("translate")
                .arg("--out")
                .arg(&out)
                .arg("--checkpoint")
                .arg(&journal);
            outputs = vec![out, journal];
        }
    }
    cmd.arg("--input")
        .arg(input)
        .arg("--workers")
        .arg(workers.to_string());
    BatchCmd { cmd, outputs }
}

/// Runs one batch command; returns its usage and the bytes it left
/// written (output files, stdout and stderr).
fn run_batch(bc: BatchCmd, dir: &Path, tag: &str) -> Result<(Usage, u64), String> {
    for f in &bc.outputs {
        let _ = std::fs::remove_file(f);
    }
    let (out, err) = (
        dir.join(format!("{tag}.stdout")),
        dir.join(format!("{tag}.stderr")),
    );
    let usage = run_measured(bc.cmd, &out, &err).map_err(|e| e.to_string())?;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let written = bc.outputs.iter().map(|p| size(p)).sum::<u64>() + size(&out) + size(&err);
    Ok((usage, written))
}

/// What a correct run of the workload's command printed or wrote,
/// computed by the library over the same input.
enum Expected {
    Stdout(String),
    Summary { valid: usize, total: usize },
    Batch(jsonx::translate::ColumnarBatch),
}

fn expected(w: Workload, files: &Files) -> Result<Expected, String> {
    let text = std::fs::read_to_string(&files.input).map_err(|e| e.to_string())?;
    Ok(match w {
        Workload::InferGithub => {
            Expected::Stdout(oracle::infer_output(&oracle::inferred_type(&text)?))
        }
        Workload::ValidateEnvelopeNyt | Workload::ServeValidate => {
            let schema = oracle::compile_schema(&files.schema)?;
            let v = oracle::verdicts(&text, &schema)?;
            Expected::Summary {
                valid: v.iter().filter(|&&ok| ok).count(),
                total: v.len(),
            }
        }
        Workload::TranslateJournaledGithub => {
            Expected::Batch(oracle::shredded(&text, &oracle::inferred_type(&text)?)?)
        }
    })
}

/// Checks one finished command's output against the library.
fn check(
    exp: &Expected,
    usage: &Usage,
    dir: &Path,
    tag: &str,
    outputs: &[PathBuf],
) -> Result<(), String> {
    let read = |p: PathBuf| std::fs::read_to_string(p).unwrap_or_default();
    match exp {
        Expected::Stdout(want) => {
            if usage.code != 0 {
                return Err(format!("exit code {}", usage.code));
            }
            if read(dir.join(format!("{tag}.stdout"))).trim_end() != want.trim_end() {
                return Err("inferred type differs from the library's".into());
            }
        }
        Expected::Summary { valid, total } => {
            let want_code = if valid == total { 0 } else { 1 };
            if usage.code != want_code {
                return Err(format!("exit code {} (expected {want_code})", usage.code));
            }
            let line = format!("» {valid}/{total} documents valid");
            if !read(dir.join(format!("{tag}.stderr"))).contains(&line) {
                return Err(format!("summary lacks {line:?}"));
            }
        }
        Expected::Batch(want) => {
            if usage.code != 0 {
                return Err(format!("exit code {}", usage.code));
            }
            if oracle::read_back(&outputs[0])? != *want {
                return Err(".jxc read back differs from the library's shredded batch".into());
            }
            if !outputs[1].is_file() {
                return Err("no journal written".into());
            }
        }
    }
    Ok(())
}

pub fn run(
    w: Workload,
    jsonx: &Path,
    files: &Files,
    dir: &Path,
    seconds: f64,
) -> Result<Outcome, String> {
    match w {
        Workload::ServeValidate => run_serve(jsonx, files, seconds),
        _ => run_batch_workload(w, jsonx, files, dir, seconds),
    }
}

fn run_batch_workload(
    w: Workload,
    jsonx: &Path,
    files: &Files,
    dir: &Path,
    seconds: f64,
) -> Result<Outcome, String> {
    let exp = expected(w, files)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut note = |r: Result<(), String>| {
        attempted += 1;
        if let Err(e) = r {
            failed += 1;
            eprintln!("check failed: {e}");
        }
    };

    // Set-up: the same command on a one-record input.
    let mut setup = Vec::new();
    let setup_once = |note: &mut dyn FnMut(Result<(), String>)| -> Result<f64, String> {
        let bc = batch_command(w, jsonx, files, &files.tiny, dir, "tiny", WORKERS);
        let (usage, _) = run_batch(bc, dir, "tiny")?;
        note(if usage.code == 0 {
            Ok(())
        } else {
            Err(format!("set-up run exit code {}", usage.code))
        });
        Ok(usage.wall.as_secs_f64())
    };

    // One untimed warm-up fills the page cache, then timed repeats.
    let (mut walls, mut cpus, mut rss, mut written) = (vec![], vec![], vec![], 0u64);
    let start = Instant::now();
    let mut i = 0usize;
    while i <= MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        let bc = batch_command(w, jsonx, files, &files.input, dir, "run", WORKERS);
        let outputs = bc.outputs.clone();
        let (usage, bytes) = run_batch(bc, dir, "run")?;
        note(check(&exp, &usage, dir, "run", &outputs));
        if i > 0 {
            walls.push(usage.wall.as_secs_f64());
            cpus.push(usage.cpu_s);
            rss.push(usage.peak_rss as f64);
            written = bytes;
        }
        for _ in 0..SETUP_PER_REPEAT {
            setup.push(setup_once(&mut note)?);
        }
        i += 1;
    }
    while setup.len() < SETUP_REPEATS {
        setup.push(setup_once(&mut note)?);
    }
    println!(
        "repeats: {} timed (wall min {:.4} s, median {:.4} s, max {:.4} s), {} set-up",
        walls.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
        setup.len()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: e2e_metrics(
            files.input_bytes as f64 / 1e6 / median(&walls),
            median(&cpus),
            median(&rss),
            written as f64,
            median(&setup),
        ),
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn e2e_metrics(throughput: f64, cpu: f64, rss: f64, written: f64, setup: f64) -> Vec<Metric> {
    vec![
        metric("throughput_mb_s", throughput, "MB/s"),
        metric("cpu_s", cpu, "s"),
        metric("peak_rss_mb", rss / 1e6, "MB"),
        metric("written_mb", written / 1e6, "MB"),
        metric("setup_s", setup, "s"),
    ]
}

/// The corpus as `VALIDATE` frames, one per record.
pub fn validate_frames(text: &str) -> Vec<Vec<u8>> {
    text.lines()
        .map(|l| format!("VALIDATE {l}\n").into_bytes())
        .collect()
}

/// Checks replies against the batch verdicts; returns the mismatches.
pub fn mismatches(driven: &[(Vec<usize>, serve::Driven)], want: &[bool]) -> u64 {
    let mut bad = 0;
    for (idx, d) in driven {
        for (&i, r) in idx.iter().zip(&d.replies) {
            let ok = match r {
                Reply::Valid => want[i],
                Reply::Invalid => !want[i],
                Reply::Failed => false,
            };
            bad += u64::from(!ok);
        }
    }
    bad
}

/// Spawn-to-first-`PING` time of a fresh daemon.
pub fn serve_setup(jsonx: &Path, schema: &Path) -> Result<f64, String> {
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    let daemon = Daemon::spawn(jsonx, schema, WORKERS).map_err(io)?;
    let mut conn = daemon.connect().map_err(io)?;
    let reply = serve::request(&mut conn, "PING").map_err(io)?;
    let ready = start.elapsed().as_secs_f64();
    if !reply.contains("\"ok\":true") {
        return Err(format!("PING answered {reply}"));
    }
    drop(conn);
    let (_, ok) = daemon.shutdown().map_err(io)?;
    if !ok {
        return Err("daemon exited with an error".into());
    }
    Ok(ready)
}

fn run_serve(jsonx: &Path, files: &Files, seconds: f64) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let schema_path = &files.schema;
    let text = std::fs::read_to_string(&files.input).map_err(io)?;
    let want = oracle::verdicts(&text, &oracle::compile_schema(schema_path)?)?;
    let frames = validate_frames(&text);
    let frames: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut setup = Vec::new();

    let daemon = Daemon::spawn(jsonx, schema_path, WORKERS).map_err(io)?;
    let mut conns = vec![daemon.connect().map_err(io)?, daemon.connect().map_err(io)?];
    let (mut walls, mut cpus, mut written) = (vec![], vec![], 0u64);
    let start = Instant::now();
    let mut i = 0usize;
    let mut sent = 0u64;
    while i <= MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = proc::cpu_ns(daemon.pid()).map_err(io)?;
        let t0 = Instant::now();
        let driven = serve::drive_all(&mut conns, &frames, |_| Pace::Burst).map_err(io)?;
        let wall = t0.elapsed().as_secs_f64();
        let cpu = (proc::cpu_ns(daemon.pid()).map_err(io)? - cpu0) as f64 * 1e-9;
        sent += frames.len() as u64;
        attempted += frames.len() as u64;
        let bad = mismatches(&driven, &want);
        failed += bad;
        if bad > 0 {
            eprintln!("check failed: {bad} replies differ from the batch verdicts");
        }
        if i > 0 {
            walls.push(wall);
            cpus.push(cpu);
            written = driven.iter().map(|(_, d)| d.reply_bytes).sum();
        }
        for _ in 0..SETUP_PER_REPEAT {
            setup.push(serve_setup(jsonx, schema_path)?);
        }
        i += 1;
    }
    while setup.len() < SETUP_REPEATS {
        setup.push(serve_setup(jsonx, schema_path)?);
    }
    attempted += setup.len() as u64;
    let rss = proc::peak_rss(daemon.pid()).map_err(io)? as f64;
    drop(conns);
    let (report, exited_ok) = daemon.shutdown().map_err(io)?;
    let count = |k: &str| report.get(k).and_then(|v| v.as_i64()).unwrap_or(-1) as u64;
    let reconciled = report.get("reconciled").and_then(|v| v.as_bool()) == Some(true);
    let books = count("enqueued") + count("shed") == sent;
    if !(exited_ok && reconciled && books) {
        failed += 1;
        eprintln!(
            "check failed: final report reconciled={reconciled} exited_ok={exited_ok} \
             enqueued+shed={} sent={sent}",
            count("enqueued") + count("shed")
        );
    }
    println!(
        "repeats: {} timed bursts of {} frames, {} set-up",
        walls.len(),
        frames.len(),
        setup.len()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: e2e_metrics(
            files.input_bytes as f64 / 1e6 / median(&walls),
            median(&cpus),
            rss,
            written as f64,
            median(&setup),
        ),
    })
}
