//! Parallel inference as a `jsonx-pipeline` adapter.
//!
//! The papers run the map/reduce on Spark; here the same algebra runs on
//! the workspace's generic sharded engine. Each worker folds one
//! contiguous partition of the collection (map + local reduce), then the
//! per-partition types are fused in a final reduce. Because fusion is
//! commutative and associative with `Bottom` as unit, the result equals
//! the sequential fold — a property pinned in the crate's proptest suite.

use crate::equiv::Equivalence;
use crate::fuse::fuse;
use crate::infer::infer_value;
use crate::types::JType;
use jsonx_data::Value;
use jsonx_pipeline::{run_slice_caught, ShardFold};

/// Parallel execution settings — the shared item-sharded options of
/// `jsonx-pipeline`, kept under this crate's historical name.
pub use jsonx_pipeline::SliceOptions as ParallelOptions;

/// The inference fold: map each document to its type, fuse locally, fuse
/// partitions.
struct InferValueFold {
    equiv: Equivalence,
}

impl ShardFold<Value> for InferValueFold {
    type State = JType;
    type Out = JType;

    fn init(&self) -> JType {
        JType::Bottom
    }

    fn feed(&self, acc: &mut JType, doc: &Value, _index: usize) {
        let current = std::mem::replace(acc, JType::Bottom);
        *acc = fuse(current, infer_value(doc, self.equiv), self.equiv);
    }

    fn finish(&self, acc: JType) -> JType {
        acc
    }

    fn merge(&self, left: JType, right: JType) -> JType {
        fuse(left, right, self.equiv)
    }
}

/// Infers the type of `docs` using a pool of scoped worker threads.
pub fn infer_collection_parallel(
    docs: &[Value],
    equiv: Equivalence,
    opts: ParallelOptions,
) -> JType {
    // The inference fold contains no fallible code paths of its own, so a
    // poisoned shard can only mean a bug — surface it loudly rather than
    // returning a silently incomplete type.
    let outcome = run_slice_caught(docs, &InferValueFold { equiv }, opts);
    if let Some(panic) = outcome.poisoned.first() {
        panic!("inference {panic}");
    }
    outcome.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_collection;
    use jsonx_data::json;

    fn corpus(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| match i % 4 {
                0 => json!({"id": (i as i64), "name": "a"}),
                1 => json!({"id": (i as i64)}),
                2 => json!({"id": format!("s{i}"), "tags": [1, "x"]}),
                _ => json!({"geo": {"lat": 1.5, "lon": -0.5}, "id": (i as i64)}),
            })
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        let docs = corpus(2_000);
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let seq = infer_collection(&docs, equiv);
            for workers in [1, 2, 3, 8] {
                let par = infer_collection_parallel(
                    &docs,
                    equiv,
                    ParallelOptions {
                        workers,
                        min_chunk: 16,
                    },
                );
                assert_eq!(par, seq, "workers={workers} equiv={equiv:?}");
            }
        }
    }

    #[test]
    fn small_collections_fall_back_to_sequential() {
        let docs = corpus(10);
        let par = infer_collection_parallel(&docs, Equivalence::Kind, ParallelOptions::default());
        assert_eq!(par, infer_collection(&docs, Equivalence::Kind));
    }

    #[test]
    fn empty_collection() {
        assert_eq!(
            infer_collection_parallel(&[], Equivalence::Kind, ParallelOptions::default()),
            JType::Bottom
        );
    }
}
