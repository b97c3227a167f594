//! E19 — Out-of-core chunk streaming and work-stealing dispatch (§4.1,
//! massive collections).
//!
//! Claim operationalised: on a corpus with skewed record lengths (a
//! cheap majority and an expensive tail), static newline sharding hands
//! some worker a disproportionately costly shard and the run waits for
//! it; sequence-numbered chunk claiming ("work stealing") keeps every
//! worker busy until the queue drains, with bit-identical merged
//! results. Out-of-core, the same dispatch runs from a bounded ring of
//! reusable chunk buffers, so corpora far larger than the ring budget
//! stream through without ever being materialised.
//!
//! Prints measured wall-clock sweeps (static vs stealing at 1/2/4/8
//! workers), a per-chunk-cost greedy list-scheduling makespan model at
//! 8 workers (the honest scaling signal on a single-core container —
//! see E14), an out-of-core reader run, and writes
//! `BENCH_scaling.json`.

use criterion::{black_box, BenchmarkId, Criterion};
use jsonx::core::{fuse, type_size, Equivalence, JType};
use jsonx::pipeline::{
    chunk_lines, run_lines_static_caught, run_lines_stealing, run_source_controlled, shard_lines,
    ChunkOptions, PipelineOptions, ReaderChunks, RunControl, ShardFold,
};
use jsonx::{StreamTyper, StreamingOptions};
use jsonx_bench::{banner, criterion};
use jsonx_data::{json, Value};
use jsonx_syntax::to_string_pretty;
use std::io::BufReader;
use std::time::{Duration, Instant};

/// The inference fold, re-stated at the engine layer so both dispatch
/// strategies run the exact same per-record work: one event-stream
/// typing per line, fused per worker, fused again across shards.
struct TypeFold {
    equiv: Equivalence,
}

impl ShardFold<str> for TypeFold {
    type State = (StreamTyper, JType);
    type Out = JType;

    fn init(&self) -> Self::State {
        (StreamTyper::new(self.equiv), JType::Bottom)
    }

    fn feed(&self, state: &mut Self::State, line: &str, _index: usize) {
        if line.trim().is_empty() {
            return;
        }
        let ty = state
            .0
            .type_document(line.as_bytes())
            .expect("valid NDJSON");
        let acc = std::mem::replace(&mut state.1, JType::Bottom);
        state.1 = fuse(acc, ty, self.equiv);
    }

    fn finish(&self, state: Self::State) -> Self::Out {
        state.1
    }

    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
        fuse(left, right, self.equiv)
    }

    fn take(&self, state: &mut Self::State) -> Self::Out {
        std::mem::replace(&mut state.1, JType::Bottom)
    }
}

/// Skewed NDJSON where byte-balanced sharding is cost-unbalanced: every
/// record is ~1.5 KiB, but ~85% are cheap (the bytes are one long flat
/// string — almost no structure to type) while the last ~15% are
/// expensive (the same byte budget spent on dense nested objects, an
/// order of magnitude more events per byte). The expensive records are
/// clustered at the end of the file — schema drift, the shape §4.1's
/// massive-collection corpora actually exhibit — so one static shard
/// inherits most of the cost and becomes the straggler.
fn skewed_ndjson(docs: usize) -> String {
    let tail_start = docs - docs * 15 / 100;
    let blob = "x".repeat(1400);
    let mut out = String::with_capacity(docs * 1500);
    for i in 0..docs {
        if i >= tail_start {
            out.push_str("{\"kind\": \"tail\", \"items\": [");
            for j in 0..56 {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"s\": {j}, \"f\": [true, null]}}"));
            }
            out.push_str("]}\n");
        } else {
            out.push_str(&format!("{{\"id\": {i}, \"blob\": \"{blob}\"}}\n"));
        }
    }
    out
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    banner(
        "E19",
        "out-of-core chunk streaming + work-stealing vs static sharding on skewed records",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware parallelism available: {cores} core(s)");
    if cores == 1 {
        println!("NOTE: single-core substrate (as in E14/E16) — measured wall-clock");
        println!("cannot show parallel speedup here. The dispatch-quality signal is");
        println!("the makespan model below: per-chunk costs are *measured*, then");
        println!("static assignment and greedy stealing are scheduled on 8 modeled");
        println!("workers. Multi-core hardware realises those makespans directly.\n");
    }

    let ndjson = skewed_ndjson(60_000);
    let fold = TypeFold {
        equiv: Equivalence::Kind,
    };
    println!(
        "corpus: 60000 records ({:.1} MiB); equal record sizes, but the last ~15%",
        mib(ndjson.len())
    );
    println!("are dense nested records (~10x typing cost per byte) — clustered drift\n");

    // Reference result + measured wall-clock sweep.
    let reference = run_lines_static_caught(
        &ndjson,
        &fold,
        PipelineOptions {
            workers: 1,
            ..PipelineOptions::default()
        },
    );
    println!(
        "{:>16} {:>12} {:>12} {:>10}",
        "dispatch", "static", "stealing", "identical"
    );
    let mut wall = jsonx_data::Object::new();
    for workers in [1usize, 2, 4, 8] {
        let opts = PipelineOptions {
            workers,
            ..PipelineOptions::default()
        };
        let t = Instant::now();
        let fixed = run_lines_static_caught(&ndjson, &fold, opts);
        let static_time = t.elapsed();
        let t = Instant::now();
        let stolen = run_lines_stealing(&ndjson, &fold, opts, ChunkOptions::default());
        let steal_time = t.elapsed();
        assert_eq!(stolen.out, reference.out, "stealing must merge identically");
        assert_eq!(fixed.out, reference.out, "static must merge identically");
        println!(
            "{:>16} {:>12.2?} {:>12.2?} {:>10}",
            format!("workers={workers}"),
            static_time,
            steal_time,
            stolen.out == fixed.out
        );
        wall.insert(
            format!("workers_{workers}"),
            json!({
                "static_ms": (static_time.as_secs_f64() * 1000.0),
                "stealing_ms": (steal_time.as_secs_f64() * 1000.0)
            }),
        );
    }

    // Makespan model: measure every chunk's cost once, then schedule.
    // Static = each of 8 workers gets one contiguous byte-balanced
    // shard; its makespan is the costliest shard. Stealing = chunks are
    // claimed in sequence by the earliest-free worker (greedy list
    // scheduling); its makespan is the last worker's finish time.
    let chunk_target = 64 * 1024;
    let chunks = chunk_lines(&ndjson, chunk_target);
    let costs: Vec<Duration> = chunks
        .iter()
        .map(|c| {
            let mut state = fold.init();
            let t = Instant::now();
            for (i, line) in c.text.lines().enumerate() {
                fold.feed(&mut state, line, c.first_line + i);
            }
            t.elapsed()
        })
        .collect();
    let total: Duration = costs.iter().sum();

    let model_workers = 8usize;
    let shards = shard_lines(&ndjson, model_workers);
    let static_makespan = shards
        .iter()
        .map(|s| {
            let mut state = fold.init();
            let t = Instant::now();
            for (i, line) in s.text.lines().enumerate() {
                fold.feed(&mut state, line, s.first_line + i);
            }
            t.elapsed()
        })
        .max()
        .unwrap_or_default();
    let mut finish = vec![Duration::ZERO; model_workers];
    for cost in &costs {
        let earliest = finish
            .iter_mut()
            .min()
            .expect("at least one modeled worker");
        *earliest += *cost;
    }
    let stealing_makespan = finish.into_iter().max().unwrap_or_default();
    let speedup = static_makespan.as_secs_f64() / stealing_makespan.as_secs_f64();
    println!("\nmakespan model at {model_workers} modeled workers (measured per-chunk costs):");
    println!(
        "  {} chunks of ~{} KiB, total work {:.2?}",
        costs.len(),
        chunk_target / 1024,
        total
    );
    println!("  static sharding makespan (costliest shard): {static_makespan:.2?}");
    println!("  work-stealing makespan (greedy schedule):   {stealing_makespan:.2?}");
    println!("  stealing beats static by {speedup:.2}x on this skew");
    assert!(
        speedup > 1.0,
        "stealing must beat static sharding on the skewed corpus"
    );

    // Out-of-core: the same fold from a file through the bounded chunk
    // ring. The ring budget is workers x chunk_bytes (plus recycled
    // spares), orders of magnitude below the corpus size.
    let path = std::env::temp_dir().join("jsonx_e19_corpus.ndjson");
    std::fs::write(&path, &ndjson).expect("write corpus file");
    let chunk = ChunkOptions {
        chunk_bytes: 256 * 1024,
        ring: 2,
        timing: true,
    };
    let opts = PipelineOptions {
        workers: 2,
        ..PipelineOptions::default()
    };
    let file = std::fs::File::open(&path).expect("reopen corpus file");
    let t = Instant::now();
    let source = ReaderChunks::new(BufReader::new(file), chunk.chunk_bytes, chunk.ring);
    let outcome = run_source_controlled(
        &source,
        &fold,
        opts.workers,
        chunk.timing,
        RunControl::default(),
    )
    .expect("out-of-core run cannot fail on a clean corpus");
    let ooc_time = t.elapsed();
    assert_eq!(
        outcome.out, reference.out,
        "out-of-core must merge identically"
    );
    let ring_budget = 2 * chunk.chunk_bytes;
    println!("\nout-of-core reader run (2 workers, 256 KiB chunks, ring of 2):");
    println!(
        "  {:.1} MiB corpus through a {:.1} MiB chunk-ring budget: {} chunks in {:.2?}, identical type ({} nodes)",
        mib(ndjson.len()),
        mib(ring_budget),
        outcome.shards,
        ooc_time,
        type_size(&outcome.out)
    );
    for timing in &outcome.timings {
        println!(
            "  worker {}: {} chunks ({} stolen), {} records, {:.1} MiB",
            timing.worker,
            timing.chunks,
            timing.steals,
            timing.records,
            mib(timing.bytes)
        );
    }
    let _ = std::fs::remove_file(&path);

    let report = json!({
        "experiment": "E19",
        "documents": 60000i64,
        "ndjson_mib": mib(ndjson.len()),
        "skew": "equal record bytes; last ~15% of records are dense nested drift at ~10x typing cost per byte",
        "measured_wall_clock_ms": Value::Obj(wall),
        "makespan_model_8_workers": {
            "chunks": (costs.len() as i64),
            "chunk_target_kib": ((chunk_target / 1024) as i64),
            "static_makespan_ms": (static_makespan.as_secs_f64() * 1000.0),
            "stealing_makespan_ms": (stealing_makespan.as_secs_f64() * 1000.0),
            "stealing_speedup": speedup
        },
        "out_of_core": {
            "corpus_mib": mib(ndjson.len()),
            "chunk_bytes": (chunk.chunk_bytes as i64),
            "ring_budget_mib": mib(ring_budget),
            "chunks": (outcome.shards as i64),
            "wall_clock_ms": (ooc_time.as_secs_f64() * 1000.0),
            "identical_to_in_memory": true
        },
        "single_core_note": if cores == 1 {
            "wall-clock measured on a single-core container; the makespan model uses measured per-chunk costs on 8 modeled workers"
        } else {
            "multi-core substrate; wall-clock sweeps realise the makespan model directly"
        }
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    std::fs::write(path, to_string_pretty(&report) + "\n").expect("write BENCH_scaling.json");
    println!("\nwrote {path}");

    // Criterion: both dispatches on a small slice of the same skew.
    let small = skewed_ndjson(6_000);
    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e19_scaling");
    for workers in [2usize, 8] {
        let opts = PipelineOptions {
            workers,
            min_shard_bytes: 4 * 1024,
        };
        group.bench_with_input(BenchmarkId::new("static", workers), &opts, |b, &opts| {
            b.iter(|| run_lines_static_caught(black_box(&small), &fold, opts))
        });
        group.bench_with_input(BenchmarkId::new("stealing", workers), &opts, |b, &opts| {
            b.iter(|| {
                run_lines_stealing(
                    black_box(&small),
                    &fold,
                    opts,
                    ChunkOptions::with_chunk_bytes(16 * 1024),
                )
            })
        });
    }
    group.finish();
    c.final_summary();

    // Keep the facade import honest: the CLI path above the engine uses
    // StreamingOptions = PipelineOptions.
    let _: StreamingOptions = PipelineOptions::default();
}
