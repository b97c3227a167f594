//! `jxbench` — the end-to-end benchmark of the `jsonx` CLI and daemon.
//!
//! ```text
//! jxbench --workload NAME --seed N --seconds S --trace 0|1 [--jsonx PATH]
//! ```
//!
//! With `--trace 0` it runs the workload's real release `jsonx` command
//! (or daemon) over a corpus generated from `--seed`, repeats it for
//! `--seconds`, checks every output against the library, and prints the
//! end-to-end metrics. With `--trace 1` it calls each layer's public
//! functions over the same corpus, records a span around each call, and
//! prints the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod corpus;
mod e2e;
mod layers;
mod oracle;
mod proc;
mod serve;
mod trace;

use corpus::{Feed, Files};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads for every `jsonx` command and the daemon: the box's
/// core count, and the cap on the benchmark's own load threads.
pub const WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InferGithub,
    ValidateEnvelopeNyt,
    TranslateJournaledGithub,
    ServeValidate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::InferGithub,
        Workload::ValidateEnvelopeNyt,
        Workload::TranslateJournaledGithub,
        Workload::ServeValidate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InferGithub => "infer-github",
            Workload::ValidateEnvelopeNyt => "validate-envelope-nyt",
            Workload::TranslateJournaledGithub => "translate-journaled-github",
            Workload::ServeValidate => "serve-validate",
        }
    }

    fn feed(self) -> Feed {
        match self {
            Workload::ValidateEnvelopeNyt => Feed::Nytimes,
            _ => Feed::Github,
        }
    }

    /// Documents in the corpus: sized so one command takes a few tenths
    /// of a second on two cores, giving tens of repeats per run.
    fn docs(self) -> usize {
        match self {
            Workload::InferGithub => 60_000,
            Workload::ValidateEnvelopeNyt => 100_000,
            Workload::TranslateJournaledGithub => 16_000,
            Workload::ServeValidate => 16_000,
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jsonx: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut jsonx = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("release/jsonx");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--jsonx" => jsonx = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        jsonx,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: the checks, the load it attempted and its metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (the mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Generates the workload's inputs into `dir`.
fn prepare(w: Workload, seed: u64, dir: &Path) -> Result<Files, String> {
    let io = |e: std::io::Error| e.to_string();
    let input = dir.join("input.ndjson");
    let input_bytes = corpus::write_corpus(&input, w.feed(), seed, w.docs()).map_err(io)?;
    let tiny = dir.join("tiny.ndjson");
    corpus::write_first_line(&input, &tiny).map_err(io)?;
    // Every workload has a schema: the envelope for the articles, the
    // inferred one for the GitHub events. The traced run validates and
    // serves against it on every workload.
    let schema = if w.feed() == Feed::Nytimes {
        let path = dir.join("envelope.schema.json");
        std::fs::write(&path, corpus::NYT_ENVELOPE).map_err(io)?;
        path
    } else {
        let path = dir.join("inferred.schema.json");
        corpus::write_inferred_schema(&input, &path).map_err(io)?;
        path
    };
    Ok(Files {
        input,
        input_bytes,
        records: w.docs(),
        tiny,
        schema,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !args.jsonx.is_file() {
        return Err(format!(
            "no jsonx binary at {} (build it with cargo build --release --bin jsonx)",
            args.jsonx.display()
        ));
    }
    let dir = PathBuf::from(".bench_work").join(args.workload.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let files = prepare(args.workload, args.seed, &dir)?;
    println!(
        "workload: {} seed={} records={} input_mb={:.3}",
        args.workload.name(),
        args.seed,
        files.records,
        files.input_bytes as f64 / 1e6
    );
    let result = if args.trace {
        layers::run(args.workload, &args.jsonx, &files, &dir, args.seconds)
    } else {
        e2e::run(args.workload, &args.jsonx, &files, &dir, args.seconds)
    };
    // Keep the spans file; drop the corpora and outputs.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            if entry.path().extension().is_none_or(|e| e != "jsonl") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jxbench: {e}");
            eprintln!("usage: jxbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    println!("{}", proc::machine_record());
    match run(&args) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("{:<20} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.json());
            if outcome.correct && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("jxbench: output checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("jxbench: {e}");
            ExitCode::FAILURE
        }
    }
}
