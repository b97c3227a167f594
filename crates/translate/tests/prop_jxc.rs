//! Property tests for the `.jxc` binary columnar format and the
//! chunked shredding path behind it.
//!
//! Three contracts are pinned here:
//!
//! * `read_jxc(write_jxc(batch))` reproduces the in-memory
//!   [`ColumnarBatch`] exactly — values, validity bitmaps, dictionary
//!   decoding, and nested-list offset reconstruction included — and a
//!   file of several row groups reads back as their concatenation, even
//!   when groups encode the same column differently.
//! * Hostile bytes never panic the reader: every prefix of a file is
//!   `Truncated` or `Corrupt`.
//! * Chunked streaming (`ShredStream::take_batch`/`finish` +
//!   `ColumnarBatch::append`) equals one-shot `Shredder::shred`, order
//!   preserved, for arbitrary split points — the invariant the parallel
//!   translation engine relies on when it concatenates per-worker
//!   batches in shard order.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{Number, Object, Value};
use jsonx_translate::{
    encode_group, read_jxc, write_jxc, ColumnarBatch, Encoding, JxcError, JxcWriter, Shredder,
};
use proptest::prelude::*;

/// Record-shaped documents (top level must be an object for shredding).
fn arb_record() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(|i| Value::Num(Number::Int(i))),
        (-9.0f64..9.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "[a-c]{0,4}".prop_map(Value::Str),
    ];
    let value = leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Arr),
            prop::collection::vec(("[a-d]", inner), 0..3)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    });
    prop::collection::vec(("[a-d]", value), 0..4)
        .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jxc_write_read_reproduces_the_batch(
        docs in prop::collection::vec(arb_record(), 0..10)
    ) {
        let ty = infer_collection(&docs, Equivalence::Kind);
        let batch = Shredder::from_type(&ty).shred(&docs).unwrap();
        let bytes = write_jxc(&batch);
        let file = read_jxc(&bytes)
            .unwrap_or_else(|e| panic!("written file failed to read back: {e}"));
        prop_assert_eq!(&file.batch, &batch, "batch changed across write/read");
        // The footer's per-column facts agree with the batch itself.
        prop_assert_eq!(file.columns.len(), batch.columns.len());
        for (col, info) in batch.columns.iter().zip(&file.columns) {
            prop_assert_eq!(&info.path, &col.path);
            prop_assert_eq!(
                info.valid_count,
                col.validity.iter().filter(|v| **v).count()
            );
        }
    }

    #[test]
    fn chunked_stream_take_batch_equals_one_shot_shred(
        docs in prop::collection::vec(arb_record(), 1..12),
        raw_splits in prop::collection::vec(0usize..12, 0..4),
    ) {
        let ty = infer_collection(&docs, Equivalence::Kind);
        let one_shot = Shredder::from_type(&ty).shred(&docs).unwrap();
        // Same documents pushed one at a time, with a batch taken at
        // every (arbitrary) split point and appended in order.
        let splits: Vec<usize> = raw_splits.iter().map(|s| s % (docs.len() + 1)).collect();
        let shredder = Shredder::from_type(&ty);
        let mut stream = shredder.stream();
        let mut acc: Option<ColumnarBatch> = None;
        for (i, doc) in docs.iter().enumerate() {
            if splits.contains(&i) {
                let part = stream.take_batch();
                match &mut acc {
                    None => acc = Some(part),
                    Some(batch) => batch.append(part),
                }
            }
            stream.push(doc).unwrap();
        }
        let tail = stream.finish();
        let chunked = match acc {
            None => tail,
            Some(mut batch) => {
                batch.append(tail);
                batch
            }
        };
        prop_assert_eq!(&chunked, &one_shot, "chunked shredding diverged");
        // And the equality survives a trip through the file format.
        let file = read_jxc(&write_jxc(&chunked)).unwrap();
        prop_assert_eq!(&file.batch, &one_shot);
    }
}

/// Writes each part as one row group through the streaming writer.
fn write_groups(layout: &ColumnarBatch, parts: &[ColumnarBatch]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut writer = JxcWriter::new(&mut out, layout).unwrap();
    for part in parts {
        writer.append(&encode_group(part)).unwrap();
    }
    writer.finish().unwrap();
    out
}

/// Shreds consecutive slices of `docs` (cut at `cuts`) into one batch
/// each, under the layout of the whole collection.
fn shred_parts(docs: &[Value], cuts: &[usize]) -> (ColumnarBatch, Vec<ColumnarBatch>) {
    let ty = infer_collection(docs, Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (docs.len() + 1)).collect();
    bounds.push(0);
    bounds.push(docs.len());
    bounds.sort_unstable();
    let parts = bounds
        .windows(2)
        .map(|w| {
            let mut stream = shredder.stream();
            for doc in &docs[w[0]..w[1]] {
                stream.push(doc).unwrap();
            }
            stream.finish()
        })
        .collect();
    (shredder.stream().finish(), parts)
}

fn int_list() -> impl Strategy<Value = Value> {
    prop::collection::vec((-50i64..50).prop_map(|i| Value::Num(Number::Int(i))), 0..4)
        .prop_map(Value::Arr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jxc_row_groups_read_back_as_one_batch(
        docs in prop::collection::vec(arb_record(), 0..12),
        cuts in prop::collection::vec(0usize..13, 0..4),
    ) {
        let ty = infer_collection(&docs, Equivalence::Kind);
        let whole = Shredder::from_type(&ty).shred(&docs).unwrap();
        let (layout, parts) = shred_parts(&docs, &cuts);
        let file = read_jxc(&write_groups(&layout, &parts))
            .unwrap_or_else(|e| panic!("written file failed to read back: {e}"));
        prop_assert_eq!(&file.batch, &whole, "groups did not concatenate to the batch");
        prop_assert_eq!(file.groups.len(), parts.len());
        for (info, part) in file.groups.iter().zip(&parts) {
            prop_assert_eq!(info.rows, part.rows);
        }
        for (col, info) in whole.columns.iter().zip(&file.columns) {
            prop_assert_eq!(&info.path, &col.path);
            prop_assert_eq!(
                info.valid_count,
                col.validity.iter().filter(|v| **v).count()
            );
        }
    }

    /// One spill column, integer lists in the first group and mixed
    /// lists in the second: the groups pick different encodings and the
    /// file still reads back exactly.
    #[test]
    fn spill_column_may_change_encoding_between_groups(
        ints in prop::collection::vec(int_list(), 1..5),
        texts in prop::collection::vec(("[a-c]{0,3}", -9i64..9), 1..5),
    ) {
        let record = |v: Value| Value::Obj([("v".to_string(), v)].into_iter().collect::<Object>());
        let mut docs: Vec<Value> = ints.into_iter().map(record).collect();
        let first = docs.len();
        docs.extend(texts.into_iter().map(|(s, i)| {
            record(Value::Arr(vec![Value::Str(s), Value::Num(Number::Int(i))]))
        }));
        let ty = infer_collection(&docs, Equivalence::Kind);
        let whole = Shredder::from_type(&ty).shred(&docs).unwrap();
        let (layout, parts) = shred_parts(&docs, &[first]);
        let file = read_jxc(&write_groups(&layout, &parts)).unwrap();
        prop_assert_eq!(&file.batch, &whole);
        let spill = whole.columns.iter().position(|c| c.path == "v").unwrap();
        prop_assert_eq!(file.groups[0].columns[spill].encoding, Encoding::ListInt);
        prop_assert_eq!(file.groups[1].columns[spill].encoding, Encoding::Dict);
    }
}

/// Every prefix of a small multi-group file — the bytes a writer killed
/// at that offset leaves — reads as `Truncated` or `Corrupt`, never as a
/// file and never as a panic.
#[test]
fn multi_group_file_cut_at_every_offset_is_rejected() {
    let docs: Vec<Value> = (0..9)
        .map(|i| {
            let mut obj = Object::new();
            obj.insert("id", Value::Num(Number::Int(i)));
            obj.insert("name", Value::Str(format!("n{}", i % 4)));
            obj.insert(
                "xs",
                Value::Arr((0..i % 3).map(|j| Value::Num(Number::Int(j))).collect()),
            );
            Value::Obj(obj)
        })
        .collect();
    let (layout, parts) = shred_parts(&docs, &[3, 6]);
    let bytes = write_groups(&layout, &parts);
    assert_eq!(read_jxc(&bytes).unwrap().groups.len(), 3);
    for cut in 0..bytes.len() {
        match read_jxc(&bytes[..cut]) {
            Err(JxcError::Truncated) | Err(JxcError::Corrupt(_)) => {}
            other => panic!("cut at {cut} of {}: {other:?}", bytes.len()),
        }
    }
}
