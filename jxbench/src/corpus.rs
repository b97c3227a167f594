//! Seeded inputs for each workload, written as NDJSON files inside the
//! work directory. The workload seed goes into the `seed` field of the
//! `jsonx-gen` configs; the same seed always yields the same bytes.

use jsonx::core::{to_json_schema, Equivalence};
use jsonx::gen::github::{self, GithubConfig};
use jsonx::gen::nytimes::{self, NytimesConfig};
use jsonx::syntax::{to_string, to_string_pretty};
use jsonx::Value;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Documents generated per `jsonx-gen` call; each batch gets its own
/// derived seed so memory stays bounded by one batch of DOMs.
const BATCH: usize = 2_000;

/// Which `jsonx-gen` feed a corpus models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    Github,
    Nytimes,
}

/// The documents of batch `b` of a corpus.
fn batch(feed: Feed, seed: u64, b: usize, n: usize) -> Vec<Value> {
    let seed = seed.wrapping_mul(1_000_003).wrapping_add(b as u64);
    match feed {
        Feed::Github => github::events(
            &GithubConfig {
                seed,
                ..GithubConfig::default()
            },
            n,
        ),
        Feed::Nytimes => nytimes::articles(
            &NytimesConfig {
                seed,
                ..NytimesConfig::default()
            },
            n,
        ),
    }
}

/// Writes `docs` documents of `feed` to `path`, one per line, and returns
/// the file size in bytes.
pub fn write_corpus(path: &Path, feed: Feed, seed: u64, docs: usize) -> std::io::Result<u64> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0u64;
    let mut b = 0;
    while b * BATCH < docs {
        let n = BATCH.min(docs - b * BATCH);
        for doc in batch(feed, seed, b, n) {
            let line = to_string(&doc);
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
            written += line.len() as u64 + 1;
        }
        b += 1;
    }
    out.flush()?;
    Ok(written)
}

/// Copies the first line of `from` to `to`: the one-record input the
/// set-up measurement runs the same command on.
pub fn write_first_line(from: &Path, to: &Path) -> std::io::Result<()> {
    let text = std::fs::read_to_string(from)?;
    let first = text.lines().next().unwrap_or_default();
    std::fs::write(to, format!("{first}\n"))
}

/// The envelope schema of `validate-envelope-nyt`: four typed root
/// scalars, so projection skips every other field of the wide articles.
pub const NYT_ENVELOPE: &str = r#"{
  "type": "object",
  "properties": {
    "_id": {"type": "string"},
    "pub_date": {"type": "string"},
    "word_count": {"type": "integer"},
    "section_name": {"type": "string"}
  },
  "required": ["_id", "pub_date", "word_count", "section_name"]
}"#;

/// Infers the corpus type with the library (single worker) and writes
/// it as a JSON Schema document, as `jsonx infer --schema` would.
pub fn write_inferred_schema(corpus: &Path, to: &Path) -> std::io::Result<()> {
    let text = std::fs::read_to_string(corpus)?;
    let ty = jsonx::infer_streaming(&text, Equivalence::Kind)
        .map_err(|(line, e)| std::io::Error::other(format!("line {}: {e}", line + 1)))?;
    std::fs::write(to, to_string_pretty(&to_json_schema(&ty)))
}

/// The paths one prepared workload works with.
#[derive(Debug, Clone)]
pub struct Files {
    pub input: PathBuf,
    pub input_bytes: u64,
    pub records: usize,
    /// One-record copy of the input, for set-up time.
    pub tiny: PathBuf,
    /// Schema document the corpus is valid under.
    pub schema: PathBuf,
}
