//! The fused fast parse path: structural scanning + projection
//! pushdown for the streaming pipeline.
//!
//! This module glues the pieces the tentpole crates provide into one
//! record driver:
//!
//! * [`jsonx_syntax::structural`] supplies the word-parallel
//!   [`StructuralScanner`], which proves a record well-formed and
//!   extracts the byte spans of the projected root fields without
//!   tokenising the rest;
//! * [`jsonx_schema::CompiledSchema::root_projection`] and
//!   [`jsonx_translate::Shredder::root_fields`] say *which* fields each
//!   consumer actually reads;
//! * the streaming stages in [`crate::streaming`] try
//!   [`FastRecordParser::parse_record`] first and fall back to the full
//!   DOM parser whenever it returns `None` — the Fad.js-style verified
//!   fallback, so verdicts, batches and error reports are identical on
//!   both paths by construction.
//!
//! The assembled document contains only the projected fields (each
//! sub-parsed by the ordinary recursive-descent parser over its exact
//! span), which is precisely what makes skipping profitable: on wide
//! records the driver never materialises the fields nobody reads.

use jsonx_data::{Object, Value};
use jsonx_schema::CompiledSchema;
use jsonx_syntax::structural::{FieldSet, ScanOptions, StructuralScanner};
use jsonx_syntax::{
    parse_with, EventReceiver, ParseError, ParseLimits, ParserOptions, RawEventParser,
    RecordDecoder,
};
use jsonx_translate::Shredder;

/// An immutable projection plan shared by every worker of one streaming
/// run: the projected field set plus the scan limits.
#[derive(Debug, Clone)]
pub(crate) struct FastPlan {
    set: FieldSet,
    opts: ScanOptions,
}

impl FastPlan {
    /// The validation-side plan: project to the fields the compiled
    /// schema's verdict can depend on. `None` when the schema inspects
    /// objects in ways projection cannot preserve — the stage then runs
    /// the slow path for every record.
    fn for_validation(schema: &CompiledSchema, limits: &ParseLimits) -> Option<FastPlan> {
        // A string cap must see every literal, but the scanner never
        // parses skipped spans — an oversized string hiding in one would
        // slip through. Decline; the full parser enforces the cap.
        if limits.max_string_bytes.is_some() {
            return None;
        }
        let names = schema.root_projection()?;
        Some(FastPlan {
            set: FieldSet::new(names),
            opts: ScanOptions {
                max_depth: limits.max_depth,
                // The validator addresses root fields by exact name, so a
                // skipped key can never alias a projected one.
                reject_dotted_skipped: false,
            },
        })
    }

    /// The translation-side plan: project to the shred plan's top-level
    /// field names. `None` for non-record layouts and discovering mode.
    fn for_translation(shredder: &Shredder, limits: &ParseLimits) -> Option<FastPlan> {
        // Same reasoning as `for_validation`: a configured string cap
        // requires the full parser's eyes on every literal.
        if limits.max_string_bytes.is_some() {
            return None;
        }
        let names = shredder.root_fields()?;
        Some(FastPlan {
            set: FieldSet::new(names.iter().cloned()),
            opts: ScanOptions {
                max_depth: limits.max_depth,
                // Shred columns are addressed by dotted path: a *skipped*
                // root key containing '.' could alias a nested column, so
                // such records take the full parser.
                reject_dotted_skipped: true,
            },
        })
    }
}

/// Per-worker fast-path state: one reusable scanner. Buffers and
/// speculation hints persist across records, so steady-state scanning of
/// a uniform shard allocates only for the extracted values.
#[derive(Default)]
pub(crate) struct FastRecordParser {
    scanner: StructuralScanner,
}

impl FastRecordParser {
    pub(crate) fn new() -> FastRecordParser {
        FastRecordParser::default()
    }

    /// Attempts the fast path on one record. `Some(doc)` holds the
    /// projected document — only the fields in the plan's set, each
    /// parsed from its exact byte span, duplicates resolved last-wins
    /// like the DOM parser. `None` means the caller must run the full
    /// parser; no claim is made about the record either way.
    pub(crate) fn parse_record(&mut self, line: &[u8], plan: &FastPlan) -> Option<Value> {
        if !self.scanner.scan(line, &plan.set, &plan.opts) {
            return None;
        }
        let popts = ParserOptions {
            max_depth: plan.opts.max_depth,
            allow_trailing: false,
            // Plans are declined whenever a string cap is configured (a
            // skipped span could hide an oversized literal the full
            // parser would reject), so no cap applies here.
            max_string_bytes: None,
        };
        let mut obj = Object::with_capacity(self.scanner.fields().len());
        for field in self.scanner.fields() {
            // Key spans are escape-free by the scan contract; spans of a
            // `&str` line cut at ASCII quotes are valid UTF-8. Defensive:
            // any surprise falls back instead of panicking.
            let key = std::str::from_utf8(&line[field.key.clone()]).ok()?;
            let value = parse_with(&line[field.value.clone()], popts).ok()?;
            obj.insert(key, value);
        }
        Some(Value::Obj(obj))
    }
}

/// The structural fast path as a [`RecordDecoder`]: `decode_value` tries
/// [`FastRecordParser::parse_record`] when a plan is present and falls
/// back to the full recursive-descent parser (the Fad.js-style verified
/// fallback), so with `plan: None` it reproduces the historical slow
/// path byte for byte — one decoder covers both. This is how the
/// structural scanner slots in behind the same seam every other source
/// uses.
pub(crate) struct FastJsonDecoder {
    plan: Option<FastPlan>,
    limits: ParseLimits,
}

impl FastJsonDecoder {
    /// The validation decoder: projected to the schema's root fields when
    /// `fast` is set and the schema allows it, the full parser otherwise.
    pub(crate) fn for_validation(
        schema: &CompiledSchema,
        fast: bool,
        limits: ParseLimits,
    ) -> FastJsonDecoder {
        let plan = fast.then(|| FastPlan::for_validation(schema, &limits));
        FastJsonDecoder {
            plan: plan.flatten(),
            limits,
        }
    }

    /// The translation decoder: projected to the shred plan's root fields
    /// when `fast` is set and the layout allows it, the full parser
    /// otherwise.
    pub(crate) fn for_translation(
        shredder: &Shredder,
        fast: bool,
        limits: ParseLimits,
    ) -> FastJsonDecoder {
        let plan = fast.then(|| FastPlan::for_translation(shredder, &limits));
        FastJsonDecoder {
            plan: plan.flatten(),
            limits,
        }
    }

    fn parser_options(&self) -> ParserOptions {
        ParserOptions {
            max_depth: self.limits.max_depth,
            allow_trailing: false,
            max_string_bytes: self.limits.max_string_bytes,
        }
    }
}

impl RecordDecoder for FastJsonDecoder {
    type Scratch = FastRecordParser;

    fn scratch(&self) -> FastRecordParser {
        FastRecordParser::new()
    }

    fn decode_events<R: EventReceiver + ?Sized>(
        &self,
        _scratch: &mut FastRecordParser,
        record: &str,
        recv: &mut R,
    ) -> Result<(), ParseError> {
        // Event consumers read every field, so projection cannot help;
        // stream the full tokenisation under the configured limits.
        let mut parser = RawEventParser::new(record.as_bytes()).with_limits(self.limits);
        while let Some(ev) = parser.next_event()? {
            recv.event(&ev);
        }
        Ok(())
    }

    fn decode_value(
        &self,
        scratch: &mut FastRecordParser,
        record: &str,
    ) -> Result<Value, ParseError> {
        if let Some(plan) = &self.plan {
            if let Some(doc) = scratch.parse_record(record.as_bytes(), plan) {
                return Ok(doc);
            }
        }
        parse_with(record.as_bytes(), self.parser_options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_data::json;

    fn schema_plan(schema_doc: &Value) -> Option<FastPlan> {
        let schema = CompiledSchema::compile(schema_doc).expect("schema compiles");
        FastPlan::for_validation(&schema, &ParseLimits::default())
    }

    #[test]
    fn validation_plan_from_simple_properties() {
        let plan = schema_plan(&json!({
            "type": "object",
            "properties": {"id": {"type": "integer"}, "name": {"type": "string"}},
            "required": ["id"]
        }))
        .expect("projectable");
        assert_eq!(plan.set.len(), 2);
        assert!(plan.set.contains(b"id"));
        assert!(plan.set.contains(b"name"));
        assert!(!plan.opts.reject_dotted_skipped);
    }

    #[test]
    fn validation_plan_rejects_non_projectable_schemas() {
        // Combinators read the whole document.
        assert!(schema_plan(&json!({"allOf": [{"type": "object"}]})).is_none());
        // additionalProperties with a real schema constrains skipped keys.
        assert!(schema_plan(&json!({
            "type": "object",
            "additionalProperties": {"type": "string"}
        }))
        .is_none());
        // Property-count constraints observe skipped fields.
        assert!(schema_plan(&json!({"type": "object", "minProperties": 2})).is_none());
        // patternProperties matches arbitrary keys.
        assert!(schema_plan(&json!({
            "type": "object",
            "patternProperties": {"^x": {"type": "integer"}}
        }))
        .is_none());
    }

    #[test]
    fn trivial_schemas_project_everything_away() {
        let plan = schema_plan(&json!(true)).expect("Any projects");
        assert!(plan.set.is_empty());
        let plan = schema_plan(&json!({})).expect("empty schema projects");
        assert!(plan.set.is_empty());
    }

    #[test]
    fn parse_record_assembles_projected_doc() {
        let plan = schema_plan(&json!({
            "type": "object",
            "properties": {"id": {"type": "integer"}},
            "required": ["id"]
        }))
        .expect("projectable");
        let mut parser = FastRecordParser::new();
        let line = br#"{"name": "ada", "id": 7, "huge": [1, 2, 3]}"#;
        let doc = parser.parse_record(line, &plan).expect("fast path");
        assert_eq!(doc, json!({"id": 7}));
        // Malformed line: scanner rejects, caller falls back.
        assert!(parser.parse_record(br#"{"id": }"#, &plan).is_none());
        // Duplicate projected keys resolve last-wins like the DOM.
        let doc = parser
            .parse_record(br#"{"id": 1, "id": 2}"#, &plan)
            .expect("fast path");
        assert_eq!(doc, json!({"id": 2}));
    }

    #[test]
    fn translation_plan_uses_root_fields_and_dotted_guard() {
        let ndjson = "{\"id\": 1, \"geo\": {\"lat\": 0.5}}\n{\"id\": 2, \"geo\": {\"lat\": 1.5}}";
        let docs = jsonx_syntax::parse_ndjson(ndjson).unwrap();
        let ty = jsonx_core::infer_collection(&docs, jsonx_core::Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let plan =
            FastPlan::for_translation(&shredder, &ParseLimits::default()).expect("record type");
        assert!(plan.set.contains(b"id"));
        assert!(plan.set.contains(b"geo"));
        assert!(plan.opts.reject_dotted_skipped);
        // Discovering shredders have no fixed projection.
        assert!(
            FastPlan::for_translation(&Shredder::discovering(), &ParseLimits::default()).is_none()
        );
    }
}
