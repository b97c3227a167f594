//! E20 — Binary columnar I/O: `.jxc` write/read throughput and the cost
//! of the sink relative to in-memory shredding.
//!
//! §5's endgame is translated data *leaving* the system in a columnar
//! format. This experiment measures that last hop: serialising a
//! shredded [`ColumnarBatch`] to `.jxc` bytes (dictionary encoding,
//! validity bitmaps, nested-list offsets) and reading it back, with the
//! round trip asserted exact. Alongside throughput it reports the
//! compression story — `.jxc` bytes vs the NDJSON the batch came from —
//! since dictionary-encoded string columns are where schema-driven
//! translation pays off on disk.
//!
//! It measures both shapes a `.jxc` file takes: one row group for a
//! whole in-memory batch (`write_jxc`), and one row group per 1 MiB input
//! chunk, the file an out-of-core `translate --input --out` writes. Each
//! group carries its own dictionaries, so the second shape pays for
//! values repeated across chunks once per group; the table states that
//! size cost.
//!
//! Prints a timing table over 100k GitHub-style events, merges an `e20`
//! section into `BENCH_translation.json` (E16 owns the rest of the
//! file), and benches write/read under Criterion.

use criterion::{black_box, Criterion, Throughput};
use jsonx::core::{infer_collection, Equivalence};
use jsonx::pipeline::DEFAULT_CHUNK_BYTES;
use jsonx::syntax::{parse, to_string, to_string_pretty};
use jsonx::translate::{encode_group, read_jxc, write_jxc, JxcWriter, Shredder};
use jsonx_bench::{banner, criterion};
use jsonx_data::{json, Value};
use jsonx_gen::Corpus;
use std::time::Instant;

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    banner("E20", "binary columnar I/O: .jxc write/read throughput");

    let docs = Corpus::Github.generate(100_000);
    let ndjson = to_ndjson(&docs);
    let ty = infer_collection(&docs, Equivalence::Kind);
    let mut shredder = Shredder::from_type(&ty);
    let t = Instant::now();
    let batch = shredder.shred(&docs).expect("records shred");
    let shred_time = t.elapsed();
    println!(
        "collection: {} documents, {:.1} MiB NDJSON, {} columns x {} rows (shred {:.2?})\n",
        docs.len(),
        mib(ndjson.len()),
        batch.columns.len(),
        batch.rows,
        shred_time
    );

    let t = Instant::now();
    let bytes = write_jxc(&batch);
    let write_time = t.elapsed();
    let t = Instant::now();
    let file = read_jxc(&bytes).expect("written file reads back");
    let read_time = t.elapsed();
    assert_eq!(file.batch, batch, ".jxc round trip must be exact");

    let write_mib_s = mib(bytes.len()) / write_time.as_secs_f64();
    let read_mib_s = mib(bytes.len()) / read_time.as_secs_f64();
    println!(
        "{:>12} {:>12} {:>14} {:>14}",
        "direction", "time", "MiB/sec", "rows/sec"
    );
    println!(
        "{:>12} {:>12.2?} {:>14.0} {:>14.0}",
        "write",
        write_time,
        write_mib_s,
        batch.rows as f64 / write_time.as_secs_f64()
    );
    println!(
        "{:>12} {:>12.2?} {:>14.0} {:>14.0}",
        "read",
        read_time,
        read_mib_s,
        batch.rows as f64 / read_time.as_secs_f64()
    );
    println!(
        "\n.jxc size: {:.1} MiB ({:.1}% of the {:.1} MiB NDJSON source)",
        mib(bytes.len()),
        100.0 * bytes.len() as f64 / ndjson.len() as f64,
        mib(ndjson.len())
    );
    for info in &file.columns {
        println!(
            "  {:<24} {:<8} {:<9} {:>10} bytes{}",
            info.path,
            info.type_name,
            info.encoding.label(),
            info.block_bytes,
            match info.dict_len {
                Some(d) => format!("  (dict {d})"),
                None => String::new(),
            }
        );
    }

    // The row-grouped shape: documents cut where their NDJSON lines
    // cross each 1 MiB chunk target, one group per chunk, as the
    // out-of-core translate writes them.
    let mut parts: Vec<&[Value]> = Vec::new();
    let (mut start, mut chunk_bytes) = (0, 0);
    for (i, d) in docs.iter().enumerate() {
        chunk_bytes += to_string(d).len() + 1;
        if chunk_bytes >= DEFAULT_CHUNK_BYTES {
            parts.push(&docs[start..=i]);
            (start, chunk_bytes) = (i + 1, 0);
        }
    }
    if start < docs.len() {
        parts.push(&docs[start..]);
    }
    let layout = shredder.stream().finish();
    let part_batches: Vec<_> = parts
        .iter()
        .map(|part| {
            let mut stream = shredder.stream();
            for d in part.iter() {
                stream.push(d).expect("records shred");
            }
            stream.finish()
        })
        .collect();
    let t = Instant::now();
    let mut grouped = Vec::new();
    let mut writer = JxcWriter::new(&mut grouped, &layout).expect("Vec write");
    for part in &part_batches {
        writer.append(&encode_group(part)).expect("Vec write");
    }
    writer.finish().expect("Vec write");
    let grouped_write_time = t.elapsed();
    let t = Instant::now();
    let grouped_file = read_jxc(&grouped).expect("grouped file reads back");
    let grouped_read_time = t.elapsed();
    assert_eq!(
        grouped_file.batch, batch,
        "row groups must concatenate exactly"
    );
    let grouped_write_mib_s = mib(grouped.len()) / grouped_write_time.as_secs_f64();
    let grouped_read_mib_s = mib(grouped.len()) / grouped_read_time.as_secs_f64();
    let group_cost = grouped.len() as f64 / bytes.len() as f64 - 1.0;
    println!(
        "
row-grouped: {} groups of ~1 MiB input, {:.1} MiB ({:.1}% of NDJSON, \
         +{:.1}% over one group); write {:.2?} ({:.0} MiB/s), read {:.2?} ({:.0} MiB/s)",
        part_batches.len(),
        mib(grouped.len()),
        100.0 * grouped.len() as f64 / ndjson.len() as f64,
        100.0 * group_cost,
        grouped_write_time,
        grouped_write_mib_s,
        grouped_read_time,
        grouped_read_mib_s
    );

    // Merge the e20 section into BENCH_translation.json without
    // disturbing E16's keys.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_translation.json");
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .and_then(|v| match v {
            Value::Obj(o) => Some(o),
            _ => None,
        })
        .unwrap_or_default();
    report.insert(
        "e20_columnar_io".to_string(),
        json!({
            "documents": (docs.len() as i64),
            "columns": (batch.columns.len() as i64),
            "jxc_bytes": (bytes.len() as i64),
            "jxc_vs_ndjson_percent": (100.0 * bytes.len() as f64 / ndjson.len() as f64),
            "write_mib_per_sec": (write_mib_s as i64),
            "read_mib_per_sec": (read_mib_s as i64),
            "write_rows_per_sec": ((batch.rows as f64 / write_time.as_secs_f64()) as i64),
            "read_rows_per_sec": ((batch.rows as f64 / read_time.as_secs_f64()) as i64),
            "row_groups": (part_batches.len() as i64),
            "grouped_jxc_bytes": (grouped.len() as i64),
            "grouped_jxc_vs_ndjson_percent": (100.0 * grouped.len() as f64 / ndjson.len() as f64),
            "grouped_size_cost_percent": (100.0 * group_cost),
            "grouped_write_mib_per_sec": (grouped_write_mib_s as i64),
            "grouped_read_mib_per_sec": (grouped_read_mib_s as i64)
        }),
    );
    std::fs::write(path, to_string_pretty(&Value::Obj(report)) + "\n")
        .expect("write BENCH_translation.json");
    println!("\nmerged e20 section into {path}");

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e20_columnar_io");
    let small_docs = Corpus::Github.generate(8_000);
    let small_ty = infer_collection(&small_docs, Equivalence::Kind);
    let small_batch = Shredder::from_type(&small_ty)
        .shred(&small_docs)
        .expect("records shred");
    let small_bytes = write_jxc(&small_batch);
    group.throughput(Throughput::Bytes(small_bytes.len() as u64));
    group.bench_function("write_jxc", |b| {
        b.iter(|| write_jxc(black_box(&small_batch)))
    });
    group.bench_function("read_jxc", |b| {
        b.iter(|| read_jxc(black_box(&small_bytes)).expect("reads back"))
    });
    group.finish();
    c.final_summary();
}
