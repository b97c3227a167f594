//! # jsonx — Schemas And Types For JSON Data
//!
//! Facade crate re-exporting the whole `jsonx` workspace: a Rust toolkit for
//! JSON schema languages, structural type inference, structural-index
//! parsing, and schema-driven translation, reproducing the system landscape
//! of the EDBT 2019 tutorial *"Schemas And Types For JSON Data"* (Baazizi,
//! Colazzo, Ghelli, Sartiani).
//!
//! Sub-crates (also usable directly):
//!
//! * [`data`] — JSON value model, pointers, canonical comparison.
//! * [`syntax`] — from-scratch JSON lexer/parser/serializer and streaming.
//! * [`regex`] — the small regex engine behind schema `pattern` keywords.
//! * [`schema`] — JSON Schema (Pezoa et al. formal core) validator.
//! * [`joi`] — Joi-style object schema DSL with co-occurrence constraints.
//! * [`jsound`] — JSound-style compact schema-by-example language.
//! * [`skeleton`] — Wang et al. skeleton schemas (frequent-structure mining).
//! * [`core`] — the type algebra and parametric schema inference (K/L
//!   equivalences, counting types, parallel fusion).
//! * [`baselines`] — Spark-style, Studio3T-naive, mongodb-schema-style and
//!   Skinfer-style inference baselines.
//! * [`typelang`] — a miniature TypeScript/Swift-flavoured structural type
//!   system with typed decoding.
//! * [`mison`] — Mison-style structural-index parser with projection
//!   pushdown and a Fad.js-style speculative decoder.
//! * [`pipeline`] — the generic sharded fold engine behind every parallel
//!   entry point (newline sharding, scoped workers, shard-order fusion).
//! * [`translate`] — schema-driven translation to columnar batches and an
//!   Avro-like binary row format.
//! * [`gen`] — seeded synthetic dataset generators with heterogeneity dials.
//! * [`serve`] — the resident schema service: validate/infer/translate over
//!   a line protocol with bounded queues, deadlines, and hot reload.

pub mod checkpoint;
pub(crate) mod fastpath;
pub mod quarantine;
pub mod streaming;

pub use jsonx_baselines as baselines;
pub use jsonx_core as core;
pub use jsonx_data as data;
pub use jsonx_gen as gen;
pub use jsonx_jaql as jaql;
pub use jsonx_joi as joi;
pub use jsonx_jsound as jsound;
pub use jsonx_mison as mison;
pub use jsonx_regex as regex;
pub use jsonx_schema as schema;
pub use jsonx_serve as serve;
pub use jsonx_skeleton as skeleton;
pub use jsonx_syntax as syntax;
pub use jsonx_translate as translate;
pub use jsonx_typelang as typelang;

pub use checkpoint::{
    infer_streaming_journaled, translate_streaming_to_jxc, validate_streaming_journaled,
    JournalControl, JxcTranslation,
};
pub use jsonx_data::{json, Kind, Number, Object, Pointer, Value};
pub use jsonx_pipeline as pipeline;
pub use jsonx_pipeline::{
    ChunkOptions, ErrorPolicy, ErrorSummary, RecordDiagnostic, RunReport, ShardPanic, WorkerTiming,
};
pub use jsonx_syntax::{
    CsvDecoder, EventReceiver, JsonDecoder, ParseLimits, RecordDecoder, ValueBuilder,
};
pub use quarantine::{write_quarantine, write_quarantine_file};
pub use streaming::{
    infer_document_events, infer_streaming, infer_streaming_decoded, infer_streaming_guarded,
    infer_streaming_parallel, infer_streaming_source, infer_validate_streaming,
    infer_validate_streaming_decoded, infer_validate_streaming_parallel, translate_streaming,
    translate_streaming_decoded, translate_streaming_guarded, translate_streaming_guarded_fast,
    translate_streaming_parallel, translate_streaming_parallel_fast, translate_streaming_source,
    validate_streaming, validate_streaming_decoded, validate_streaming_guarded,
    validate_streaming_guarded_fast, validate_streaming_parallel, validate_streaming_parallel_fast,
    validate_streaming_source, FaultOptions, InferValidateOutcome, LineVerdict, RecordIssue,
    StreamError, StreamSource, StreamTyper, StreamingOptions, TranslateLineError,
};
