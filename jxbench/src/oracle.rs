//! In-process library references the command outputs are checked
//! against: what the CLI and the daemon print must equal what the
//! library computes over the same bytes.

use jsonx::core::{print_type, Equivalence, JType, PrintOptions};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::translate::{read_jxc, ColumnarBatch, Shredder};
use jsonx::{LineVerdict, StreamingOptions};
use std::path::Path;

/// The collection type the library infers, single-threaded.
pub fn inferred_type(text: &str) -> Result<JType, String> {
    jsonx::infer_streaming(text, Equivalence::Kind)
        .map_err(|(line, e)| format!("line {}: {e}", line + 1))
}

/// `jsonx infer` prints exactly this on stdout.
pub fn infer_output(ty: &JType) -> String {
    print_type(ty, PrintOptions::plain())
}

/// Per-record verdicts from the library's streaming validator.
pub fn verdicts(text: &str, schema: &CompiledSchema) -> Result<Vec<bool>, String> {
    jsonx::validate_streaming_parallel(
        text,
        schema,
        ValidatorOptions::default(),
        StreamingOptions::with_workers(1),
    )
    .into_iter()
    .map(|(line, v)| match v {
        LineVerdict::Valid => Ok(true),
        LineVerdict::Invalid => Ok(false),
        LineVerdict::Malformed(e) => Err(format!("line {}: {e}", line + 1)),
    })
    .collect()
}

/// Compiles a schema document from a file.
pub fn compile_schema(path: &Path) -> Result<CompiledSchema, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = jsonx::syntax::parse(&text).map_err(|e| e.to_string())?;
    CompiledSchema::compile(&doc).map_err(|e| e.to_string())
}

/// The batch a `Shredder` over the inferred type builds from every
/// document — what `jsonx translate` must have written.
pub fn shredded(text: &str, ty: &JType) -> Result<ColumnarBatch, String> {
    let shredder = Shredder::from_type(ty);
    let mut stream = shredder.stream();
    for (i, line) in text.lines().enumerate() {
        let doc = jsonx::syntax::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        stream
            .push(&doc)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(stream.finish())
}

/// Reads a `.jxc` file back with the library reader.
pub fn read_back(path: &Path) -> Result<ColumnarBatch, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    read_jxc(&bytes)
        .map(|f| f.batch)
        .map_err(|e| format!("{}: {e}", path.display()))
}
