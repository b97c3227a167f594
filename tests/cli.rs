//! End-to-end tests of the `jsonx` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_jsonx");

fn run(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn jsonx");
    // A command that errors out before reading stdin closes the pipe;
    // that's fine — ignore the resulting BrokenPipe.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const SAMPLE: &str = r#"{"id":1,"name":"a","tags":["x"]}
{"id":2,"geo":{"lat":3.5}}
{"id":"s3","name":"b"}
"#;

#[test]
fn infer_plain_and_counts() {
    let (out, err, ok) = run(&["infer", "-"], SAMPLE);
    assert!(ok, "stderr: {err}");
    assert_eq!(
        out.trim(),
        "{geo?: {lat: Num}, id: (Int + Str), name?: Str, tags?: [Str]}"
    );
    assert!(err.contains("3 documents"));

    let (out, _, ok) = run(&["infer", "--equiv", "L", "--counts", "-"], SAMPLE);
    assert!(ok);
    assert!(
        out.contains("(1/1)"),
        "counting annotations expected: {out}"
    );
}

#[test]
fn infer_streaming_matches_dom() {
    let (dom_out, _, ok) = run(&["infer", "-"], SAMPLE);
    assert!(ok);
    let (stream_out, err, ok) = run(&["infer", "--streaming", "-"], SAMPLE);
    assert!(ok, "stderr: {err}");
    assert_eq!(stream_out, dom_out);
    assert!(err.contains("3 documents (streaming)"), "{err}");

    // --workers implies --streaming and still agrees with the DOM path.
    let (par_out, err, ok) = run(&["infer", "--workers", "4", "-"], SAMPLE);
    assert!(ok, "stderr: {err}");
    assert_eq!(par_out, dom_out);

    // Streaming errors carry the 1-based line number like the DOM path.
    let (_, err, ok) = run(&["infer", "--streaming", "-"], "{\"a\":1}\n{broken\n");
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn infer_schema_then_validate_roundtrip() {
    let (schema, _, ok) = run(&["infer", "--schema", "-"], SAMPLE);
    assert!(ok);
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("schema.json");
    std::fs::write(&schema_path, &schema).unwrap();

    let (_, err, ok) = run(
        &["validate", "--schema", schema_path.to_str().unwrap(), "-"],
        SAMPLE,
    );
    assert!(ok, "validation should pass: {err}");
    assert!(err.contains("3/3 documents valid"));

    // A violating document fails with a nonzero exit.
    let (out, _, ok) = run(
        &["validate", "--schema", schema_path.to_str().unwrap(), "-"],
        "{\"id\": true}\n",
    );
    assert!(!ok);
    assert!(out.contains("doc 0"));
}

#[test]
fn profile_and_skeleton() {
    let (out, _, ok) = run(&["profile", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("id p=1.00"));
    assert!(out.contains("geo.lat p=0.33"));

    let (out, err, ok) = run(&["skeleton", "--coverage", "1.0", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("{id:·,name:·}"), "skeleton output: {out}");
    assert!(err.contains("3 structures"));
}

#[test]
fn project_fields() {
    let (out, _, ok) = run(&["project", "--fields", "id,geo.lat", "-"], SAMPLE);
    assert!(ok);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], r#"{"id":1}"#);
    assert_eq!(lines[1], r#"{"id":2,"geo":{"lat":3.5}}"#);
    assert_eq!(lines[2], r#"{"id":"s3"}"#);
}

#[test]
fn convert_targets() {
    let (out, _, ok) = run(&["convert", "--to", "columnar", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("id:json") || out.contains("id:int64"), "{out}");
    let (out, _, ok) = run(&["convert", "--to", "relational", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("root("));
    let (_, err, ok) = run(&["convert", "--to", "avro", "-"], SAMPLE);
    assert!(ok);
    assert!(err.contains("3 documents encoded"));
}

#[test]
fn translate_streaming_matches_convert() {
    let (dom_out, _, ok) = run(&["convert", "--to", "columnar", "-"], SAMPLE);
    assert!(ok);
    // `translate` defaults to columnar and agrees with `convert` on the
    // DOM path...
    let (out, _, ok) = run(&["translate", "-"], SAMPLE);
    assert!(ok);
    assert_eq!(out, dom_out);
    // ...and on the streaming path, at any worker count.
    let (out, err, ok) = run(&["translate", "--streaming", "-"], SAMPLE);
    assert!(ok, "stderr: {err}");
    assert_eq!(out, dom_out);
    assert!(err.contains("3 rows (streaming)"), "{err}");
    let (out, _, ok) = run(&["translate", "--workers", "4", "-"], SAMPLE);
    assert!(ok);
    assert_eq!(out, dom_out);

    // Streaming is columnar-only; errors carry 1-based line numbers.
    let (_, err, ok) = run(&["translate", "--streaming", "--to", "avro", "-"], SAMPLE);
    assert!(!ok);
    assert!(err.contains("columnar"), "{err}");
    let (_, err, ok) = run(&["translate", "--streaming", "-"], "{\"a\":1}\n[2]\n");
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn infer_validate_combined_pass() {
    let (schema, _, ok) = run(&["infer", "--schema", "-"], SAMPLE);
    assert!(ok);
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("combined-schema.json");
    std::fs::write(&schema_path, &schema).unwrap();

    let (dom_out, _, ok) = run(&["infer", "-"], SAMPLE);
    assert!(ok);
    let (out, err, ok) = run(
        &["infer", "--validate", schema_path.to_str().unwrap(), "-"],
        SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert_eq!(out, dom_out);
    assert!(err.contains("3/3 documents valid (combined pass)"), "{err}");

    // Invalid documents get interpreter diagnostics but the type still
    // prints and the run still succeeds — inference is the primary output.
    let mut mixed = SAMPLE.to_string();
    mixed.push_str("{\"id\": true}\n");
    let (out, err, ok) = run(
        &[
            "infer",
            "--validate",
            schema_path.to_str().unwrap(),
            "--workers",
            "2",
            "-",
        ],
        &mixed,
    );
    assert!(ok, "stderr: {err}");
    assert!(out.contains("doc 3"), "{out}");
    assert!(err.contains("3/4 documents valid (combined pass)"), "{err}");
}

#[test]
fn errors_are_reported() {
    let (_, err, ok) = run(&["nonsense"], "");
    assert!(!ok);
    assert!(err.contains("unknown command"));
    let (_, err, ok) = run(&["infer", "-"], "{broken\n");
    assert!(!ok);
    assert!(err.contains("line 1"));
    let (_, err, ok) = run(&["convert", "-"], "{}\n");
    assert!(!ok);
    assert!(err.contains("--to"));
}

#[test]
fn query_pipeline_with_static_typing() {
    let (out, err, ok) = run(
        &["query", "--project", "id,geo.lat", "--top", "2", "-"],
        SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("inferred output type"), "{err}");
    assert!(err.contains("lat: (Null + Num)"), "{err}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0], r#"{"id":1,"lat":null}"#);
    assert_eq!(lines[1], r#"{"id":2,"lat":3.5}"#);

    // expand + where-exists
    let (out, _, ok) = run(
        &["query", "--where-exists", "tags", "--expand", "tags", "-"],
        SAMPLE,
    );
    assert!(ok);
    assert_eq!(out.trim(), r#""x""#);

    // bad --top
    let (_, err, ok) = run(&["query", "--top", "many", "-"], SAMPLE);
    assert!(!ok);
    assert!(err.contains("bad --top"));
}

/// The dirty fixture shipped in `examples/`, and its fail-fast reference:
/// the same lines with the three corrupt ones blanked.
const DIRTY_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dirty.ndjson");

fn dirty_fixture_cleaned() -> String {
    let text = std::fs::read_to_string(DIRTY_FIXTURE).expect("read examples/dirty.ndjson");
    text.lines()
        .map(|l| {
            if jsonx::syntax::parse(l).is_ok() {
                l
            } else {
                ""
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn infer_skip_policy_quarantines_and_matches_prefiltered_type() {
    let quarantine = std::env::temp_dir().join("jsonx_cli_test_quarantine.ndjson");
    let q = quarantine.to_str().unwrap();
    // Fail-fast on the dirty fixture names its first bad line.
    let (_, err, ok) = run(&["infer", "--streaming", DIRTY_FIXTURE], "");
    assert!(!ok);
    assert!(err.contains("line 3"), "{err}");
    // Skip + quarantine succeeds and reports the rejects.
    let (out, err, ok) = run(
        &[
            "infer",
            "--streaming",
            "--on-error",
            "skip",
            "--quarantine",
            q,
            DIRTY_FIXTURE,
        ],
        "",
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("5 documents (streaming)"), "{err}");
    assert!(err.contains("3 rejected"), "{err}");
    // The inferred type equals fail-fast inference over the fixture with
    // the bad lines removed.
    let (ref_out, ref_err, ok) = run(&["infer", "--streaming", "-"], &dirty_fixture_cleaned());
    assert!(ok, "stderr: {ref_err}");
    assert_eq!(out, ref_out);
    // One diagnostic per rejected line, each with the raw line retained.
    let qtext = std::fs::read_to_string(&quarantine).expect("quarantine written");
    let _ = std::fs::remove_file(&quarantine);
    let diags = jsonx::syntax::parse_ndjson(&qtext).expect("quarantine is valid NDJSON");
    assert_eq!(diags.len(), 3);
    let lines: Vec<i64> = diags
        .iter()
        .map(|d| d.get("line").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(lines, vec![3, 6, 8]);
    assert!(diags
        .iter()
        .all(|d| d.get("raw").unwrap().as_str().is_some()));
    assert!(diags
        .iter()
        .all(|d| d.get("kind").unwrap().as_str().is_some()));
}

#[test]
fn validate_and_translate_honour_error_policies() {
    let text = std::fs::read_to_string(DIRTY_FIXTURE).unwrap();
    // Tolerant validation: every surviving record is an object, so the
    // run passes and reports the rejects.
    let (_, err, ok) = run(
        &[
            "validate",
            "--schema",
            "/dev/stdin",
            "--streaming",
            "--on-error",
            "skip",
            DIRTY_FIXTURE,
        ],
        "{\"type\": \"object\"}",
    );
    // /dev/stdin may be unavailable; fall back to a temp schema file.
    let (err, ok) = if ok {
        (err, ok)
    } else {
        let schema = std::env::temp_dir().join("jsonx_cli_test_schema.json");
        std::fs::write(&schema, "{\"type\": \"object\"}").unwrap();
        let (_, err, ok) = run(
            &[
                "validate",
                "--schema",
                schema.to_str().unwrap(),
                "--on-error",
                "skip",
                DIRTY_FIXTURE,
            ],
            "",
        );
        let _ = std::fs::remove_file(&schema);
        (err, ok)
    };
    assert!(ok, "stderr: {err}");
    assert!(err.contains("3 rejected"), "{err}");
    // Tolerant translation drops the same records from the batch.
    let (out, err, ok) = run(&["translate", "--on-error", "skip", DIRTY_FIXTURE], "");
    assert!(ok, "stderr: {err}");
    assert!(err.contains("3 rejected"), "{err}");
    assert!(out.contains("id"), "{out}");
    // A strict error bound turns the same run into a failure.
    let (_, err, ok) = run(
        &[
            "infer",
            "--on-error",
            "skip",
            "--max-errors",
            "2",
            DIRTY_FIXTURE,
        ],
        "",
    );
    assert!(!ok);
    assert!(err.contains("too many"), "{err}");
    let _ = text;
}

#[test]
fn resource_guard_flags_reject_pathological_lines() {
    let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
    let input = format!("{{\"a\": 1}}\n{deep}\n{{\"a\": 2}}\n");
    // Fail-fast: the depth guard kills the run.
    let (_, err, ok) = run(&["infer", "--max-depth", "8", "-"], &input);
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
    // Skip: the run survives and rejects exactly the bomb.
    let (_, err, ok) = run(
        &["infer", "--max-depth", "8", "--on-error", "skip", "-"],
        &input,
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("2 documents (streaming)"), "{err}");
    assert!(err.contains("1 rejected"), "{err}");
    // Byte guard.
    let (_, err, ok) = run(
        &["infer", "--max-line-bytes", "10", "--on-error", "skip", "-"],
        "{\"a\": 1}\n{\"a\": \"0123456789abcdef\"}\n",
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("1 rejected"), "{err}");
}

const CSV_SAMPLE: &str = "id,name,score\n1,ada,9.5\n2,\"bob, jr\",-0.5\n3,ada,7\n";

#[test]
fn csv_format_flag_routes_through_the_typed_pipeline() {
    let (out, err, ok) = run(&["infer", "--format", "csv", "-"], CSV_SAMPLE);
    assert!(ok, "stderr: {err}");
    assert_eq!(out.trim(), "{id: Int, name: Str, score: (Int + Num)}");
    assert!(err.contains("3 documents (streaming csv)"), "{err}");

    // Worker counts don't change the inferred type.
    let (par_out, err, ok) = run(
        &["infer", "--format", "csv", "--workers", "3", "-"],
        CSV_SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert_eq!(par_out, out);

    // Validation sees the synthesised records.
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("csv-schema.json");
    std::fs::write(
        &schema_path,
        r#"{"type": "object", "required": ["id", "name"]}"#,
    )
    .unwrap();
    let (_, err, ok) = run(
        &[
            "validate",
            "--schema",
            schema_path.to_str().unwrap(),
            "--format",
            "csv",
            "-",
        ],
        CSV_SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("3/3 documents valid (streaming csv)"), "{err}");

    // Translation shreds the same rows into typed columns.
    let (out, err, ok) = run(&["translate", "--format", "csv", "-"], CSV_SAMPLE);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("id:int64"), "{out}");
    assert!(out.contains("score:float64"), "{out}");
    assert!(err.contains("3 rows (streaming csv)"), "{err}");

    // Unknown formats are rejected up front.
    let (_, err, ok) = run(&["infer", "--format", "tsv", "-"], CSV_SAMPLE);
    assert!(!ok);
    assert!(err.contains("--format"), "{err}");
}

#[test]
fn translate_out_persists_jxc_and_cat_inspects_it() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let jxc = dir.join("sample.jxc");
    let jxc_path = jxc.to_str().unwrap();

    let (out, err, ok) = run(
        &["translate", "--streaming", "--out", jxc_path, "-"],
        SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert!(out.contains("id:"), "{out}");
    assert!(err.contains(&format!("bytes -> {jxc_path}")), "{err}");

    // cat: schema line, rows, per-column encoding summary.
    let (out, err, ok) = run(&["cat", jxc_path], "");
    assert!(ok, "stderr: {err}");
    assert!(out.contains("tags:json"), "{out}");
    assert!(out.contains("\"id\":1"), "{out}");
    assert!(
        err.contains("3 columns x 3 rows") || err.contains("4 columns x 3 rows"),
        "{err}"
    );
    // The tags column stores ["x"] as a nested string list.
    assert!(err.contains("list-str"), "{err}");

    // --flatten cross-joins the list column; --head bounds the output.
    let (flat, err, ok) = run(&["cat", jxc_path, "--flatten", "--head", "2"], "");
    assert!(ok, "stderr: {err}");
    assert!(flat.contains("\"tags\":\"x\""), "{flat}");
    assert_eq!(flat.lines().count(), 3, "schema line + 2 rows: {flat}");

    // --out is columnar-only; cat rejects non-.jxc bytes.
    let (_, err, ok) = run(
        &["translate", "--to", "avro", "--out", jxc_path, "-"],
        SAMPLE,
    );
    assert!(!ok);
    assert!(err.contains("--out"), "{err}");
    let junk = dir.join("junk.jxc");
    std::fs::write(&junk, b"not a jxc file at all").unwrap();
    let (_, err, ok) = run(&["cat", junk.to_str().unwrap()], "");
    assert!(!ok);
    assert!(err.contains(".jxc"), "{err}");
    let _ = std::fs::remove_file(&junk);
    let _ = std::fs::remove_file(&jxc);
}

// ---------------------------------------------------------------------------
// Characterisation matrix: the streaming commands in every run mode
// ---------------------------------------------------------------------------

/// Runs the binary with no stdin and returns stdout, stderr and the exit
/// code (`-1` when a signal ended the process).
fn run_status(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn jsonx");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// A per-test scratch directory, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("jsonx-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn write(&self, name: &str, bytes: impl AsRef<[u8]>) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const MATRIX_SCHEMA: &str =
    r#"{"type":"object","properties":{"id":{"type":"integer"}},"required":["id"]}"#;

/// A valid, an invalid, a blank and a malformed line (the invalid line
/// comes first), then one more valid line; the clean variant drops the
/// malformed line. The CSV pair has the same shape, with an extra cell as
/// the malformed row.
const MATRIX_FIXTURES: &[(&str, &str)] = &[
    (
        "dirty.ndjson",
        "{\"id\":1,\"name\":\"a\"}\n{\"id\":\"x\",\"name\":\"b\"}\n\n{broken\n{\"id\":3}\n",
    ),
    (
        "clean.ndjson",
        "{\"id\":1,\"name\":\"a\"}\n{\"id\":\"x\",\"name\":\"b\"}\n\n{\"id\":3}\n",
    ),
    ("dirty.csv", "id,name\n1,a\nx,b\n\n4,d,extra\n3,c\n"),
    ("clean.csv", "id,name\n1,a\nx,b\n\n3,c\n"),
];

/// The command line of one matrix cell. `{Q}` in an expected stderr
/// stands for the quarantine path.
fn matrix_args(dir: &ScratchDir, command: &str, mode: &str, fixture: &str) -> Vec<String> {
    let schema = dir.path("schema.json");
    let mut args: Vec<String> = match command {
        "infer" => vec!["infer".into(), "--streaming".into()],
        "infer-validate" => vec!["infer".into(), "--validate".into(), schema],
        "validate" => vec![
            "validate".into(),
            "--streaming".into(),
            "--schema".into(),
            schema,
        ],
        "translate" => vec!["translate".into(), "--streaming".into()],
        other => panic!("unknown matrix command {other}"),
    };
    let ndjson = dir.path(&format!("{fixture}.ndjson"));
    let tail: Vec<String> = match mode {
        "plain" => vec![ndjson],
        "workers" => vec!["--workers".into(), "2".into(), ndjson],
        "skip" => vec![
            "--on-error".into(),
            "skip".into(),
            "--quarantine".into(),
            dir.path("q.ndjson"),
            ndjson,
        ],
        "chunk" => vec!["--chunk-bytes".into(), "64".into(), ndjson],
        "input" => vec!["--input".into(), ndjson],
        "csv" => vec![
            "--format".into(),
            "csv".into(),
            dir.path(&format!("{fixture}.csv")),
        ],
        other => panic!("unknown matrix mode {other}"),
    };
    args.extend(tail);
    args
}

/// `(command, mode, fixture, exit code, stdout, stderr)`.
type MatrixCell = (
    &'static str,
    &'static str,
    &'static str,
    i32,
    &'static str,
    &'static str,
);

const MATRIX: &[MatrixCell] = &[
    ("infer", "plain", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer", "workers", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer", "skip", "dirty", 0, "{id: (Int + Str), name?: Str}\n", "» 1 diagnostics quarantined to {Q}\n» 3 documents (streaming), equivalence K, type size 7 nodes, 1 rejected\n"),
    ("infer", "chunk", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer", "input", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer", "csv", "dirty", 1, "", "jsonx: line 4: trailing data after JSON value at line 1, column 5 (byte 4)\n"),
    ("infer-validate", "plain", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer-validate", "workers", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer-validate", "skip", "dirty", 0, "doc 1: /id: [type] expected integer, found string\n{id: (Int + Str), name?: Str}\n", "» 1 diagnostics quarantined to {Q}\n» 2/3 documents valid (combined pass), equivalence K, type size 7 nodes, 1 rejected\n"),
    ("infer-validate", "chunk", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer-validate", "input", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("infer-validate", "csv", "dirty", 1, "", "jsonx: line 4: trailing data after JSON value at line 1, column 5 (byte 4)\n"),
    // validate / plain / dirty and validate / workers / dirty: see
    // `in_memory_streaming_validate_fails_fast_like_every_other_mode`.
    ("validate", "skip", "dirty", 1, "doc 1: /id: [type] expected integer, found string\n", "» 1 diagnostics quarantined to {Q}\n» 2/3 documents valid (streaming), 1 rejected\njsonx: 1 invalid documents\n"),
    ("validate", "chunk", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("validate", "input", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("validate", "csv", "dirty", 1, "", "jsonx: line 4: trailing data after JSON value at line 1, column 5 (byte 4)\n"),
    ("translate", "plain", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("translate", "workers", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("translate", "skip", "dirty", 0, "id:json, name:utf8\n", "» 1 diagnostics quarantined to {Q}\n» 2 columns x 3 rows (streaming), 1 rejected\n"),
    ("translate", "chunk", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("translate", "input", "dirty", 1, "", "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n"),
    ("translate", "csv", "dirty", 1, "", "jsonx: line 4: trailing data after JSON value at line 1, column 5 (byte 4)\n"),
    ("infer", "plain", "clean", 0, "{id: (Int + Str), name?: Str}\n", "» 3 documents (streaming), equivalence K, type size 7 nodes\n"),
    ("infer", "workers", "clean", 0, "{id: (Int + Str), name?: Str}\n", "» 3 documents (streaming), equivalence K, type size 7 nodes\n"),
    ("infer", "skip", "clean", 0, "{id: (Int + Str), name?: Str}\n", "» 0 diagnostics quarantined to {Q}\n» 3 documents (streaming), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer", "chunk", "clean", 0, "{id: (Int + Str), name?: Str}\n", "» 3 documents (streaming), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer", "input", "clean", 0, "{id: (Int + Str), name?: Str}\n", "» 3 documents (streaming), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer", "csv", "clean", 0, "{id: (Int + Str), name: Str}\n", "» 3 documents (streaming csv), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer-validate", "plain", "clean", 0, "doc 1: /id: [type] expected integer, found string\n{id: (Int + Str), name?: Str}\n", "» 2/3 documents valid (combined pass), equivalence K, type size 7 nodes\n"),
    ("infer-validate", "workers", "clean", 0, "doc 1: /id: [type] expected integer, found string\n{id: (Int + Str), name?: Str}\n", "» 2/3 documents valid (combined pass), equivalence K, type size 7 nodes\n"),
    ("infer-validate", "skip", "clean", 0, "doc 1: /id: [type] expected integer, found string\n{id: (Int + Str), name?: Str}\n", "» 0 diagnostics quarantined to {Q}\n» 2/3 documents valid (combined pass), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer-validate", "chunk", "clean", 0, "doc 1: invalid\n{id: (Int + Str), name?: Str}\n", "» 2/3 documents valid (combined pass), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer-validate", "input", "clean", 0, "doc 1: invalid\n{id: (Int + Str), name?: Str}\n", "» 2/3 documents valid (combined pass), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("infer-validate", "csv", "clean", 0, "doc 1: invalid\n{id: (Int + Str), name: Str}\n", "» 2/3 documents valid (combined pass, csv), equivalence K, type size 7 nodes, 0 rejected\n"),
    ("validate", "plain", "clean", 1, "doc 1: /id: [type] expected integer, found string\n", "» 2/3 documents valid (streaming)\njsonx: 1 invalid documents\n"),
    ("validate", "workers", "clean", 1, "doc 1: /id: [type] expected integer, found string\n", "» 2/3 documents valid (streaming)\njsonx: 1 invalid documents\n"),
    ("validate", "skip", "clean", 1, "doc 1: /id: [type] expected integer, found string\n", "» 0 diagnostics quarantined to {Q}\n» 2/3 documents valid (streaming), 0 rejected\njsonx: 1 invalid documents\n"),
    ("validate", "chunk", "clean", 1, "doc 1: invalid\n", "» 2/3 documents valid (streaming), 0 rejected\njsonx: 1 invalid documents\n"),
    ("validate", "input", "clean", 1, "doc 1: invalid\n", "» 2/3 documents valid (streaming), 0 rejected\njsonx: 1 invalid documents\n"),
    ("validate", "csv", "clean", 1, "doc 1: invalid\n", "» 2/3 documents valid (streaming csv), 0 rejected\njsonx: 1 invalid documents\n"),
    ("translate", "plain", "clean", 0, "id:json, name:utf8\n", "» 2 columns x 3 rows (streaming)\n"),
    ("translate", "workers", "clean", 0, "id:json, name:utf8\n", "» 2 columns x 3 rows (streaming)\n"),
    ("translate", "skip", "clean", 0, "id:json, name:utf8\n", "» 0 diagnostics quarantined to {Q}\n» 2 columns x 3 rows (streaming), 0 rejected\n"),
    ("translate", "chunk", "clean", 0, "id:json, name:utf8\n", "» 2 columns x 3 rows (streaming), 0 rejected\n"),
    ("translate", "input", "clean", 0, "id:json, name:utf8\n", "» 2 columns x 3 rows (streaming), 0 rejected\n"),
    ("translate", "csv", "clean", 0, "id:json, name:utf8\n", "» 2 columns x 3 rows (streaming csv), 0 rejected\n"),
];

#[test]
fn streaming_commands_characterised_in_every_mode() {
    let dir = ScratchDir::new("matrix");
    dir.write("schema.json", MATRIX_SCHEMA);
    for (name, text) in MATRIX_FIXTURES {
        dir.write(name, text);
    }
    let quarantine = dir.path("q.ndjson");
    for &(command, mode, fixture, code, stdout, stderr) in MATRIX {
        let args = matrix_args(&dir, command, mode, fixture);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (out, err, status) = run_status(&args);
        let cell = format!("{command} / {mode} / {fixture}");
        assert_eq!(status, code, "{cell}: exit code (stderr: {err})");
        assert_eq!(out, stdout, "{cell}: stdout");
        assert_eq!(err, stderr.replace("{Q}", &quarantine), "{cell}: stderr");
    }
}

/// The cell the characterisation matrix leaves out. With no fault flag,
/// in-memory `validate --streaming` fails fast on the first malformed
/// line before printing any verdict, exactly as `--on-error fail` (the
/// documented default), `--input` and `--chunk-bytes` do on the same
/// bytes: the same exit code and message, and no verdicts for the
/// invalid lines that precede it.
#[test]
fn in_memory_streaming_validate_fails_fast_like_every_other_mode() {
    let dir = ScratchDir::new("failfast");
    dir.write("schema.json", MATRIX_SCHEMA);
    for (name, text) in MATRIX_FIXTURES {
        dir.write(name, text);
    }
    let failed = "jsonx: line 4: unexpected character 'b' at line 1, column 2 (byte 1)\n";
    for mode in ["plain", "workers"] {
        let args = matrix_args(&dir, "validate", mode, "dirty");
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (out, err, code) = run_status(&args);
        assert_eq!(code, 1, "{mode}: {err}");
        assert_eq!(out, "", "{mode}: no verdict precedes the malformed line");
        assert_eq!(err, failed, "{mode}");
        let mut explicit = args.clone();
        explicit.splice(1..1, ["--on-error", "fail"]);
        assert_eq!(run_status(&explicit), (out, err, code), "{mode}");
    }
}

#[test]
fn diagnostics_reparse_deep_records_under_the_runs_limits() {
    let dir = ScratchDir::new("deep");
    let schema = dir.write("schema.json", r#"{"properties":{"id":{"type":"integer"}}}"#);
    // Deeper than the default depth limit, within the run's --max-depth.
    let record = format!(
        "{{\"id\":\"x\",\"deep\":{}1{}}}\n",
        "[".repeat(150),
        "]".repeat(150)
    );
    let corpus = dir.write("deep.ndjson", record);
    let (out, err, code) = run_status(&[
        "validate",
        "--streaming",
        "--schema",
        &schema,
        "--max-depth",
        "500",
        &corpus,
    ]);
    assert_eq!(code, 1, "validate: {err}");
    assert!(out.starts_with("doc 0: "), "validate: {out}");
    // The combined pass reports the same diagnostic and still succeeds.
    let (out, err, code) = run_status(&[
        "infer",
        "--validate",
        &schema,
        "--max-depth",
        "500",
        &corpus,
    ]);
    assert_eq!(code, 0, "infer --validate: {err}");
    assert!(out.starts_with("doc 0: "), "infer --validate: {out}");
}

#[test]
fn non_utf8_input_is_malformed_data_on_every_path() {
    let dir = ScratchDir::new("utf8");
    let schema = dir.write("schema.json", r#"{"type":"object"}"#);
    let corpus = dir.write("bad.ndjson", b"{\"id\":1}\n{\"id\":\"\xff\"}\n");
    let csv = dir.write("bad.csv", b"id,n\xffame\n1,a\n");
    let jxc = dir.path("out.jxc");
    let journal = dir.path("run.journal");
    let cases: [&[&str]; 10] = [
        &["infer", "--streaming", &corpus],
        &["infer", "--input", &corpus],
        &["infer", "--input", &corpus, "--checkpoint", &journal],
        &["infer", "--format", "csv", "--input", &csv],
        &["validate", "--streaming", "--schema", &schema, &corpus],
        &["validate", "--schema", &schema, "--input", &corpus],
        &[
            "validate",
            "--schema",
            &schema,
            "--input",
            &corpus,
            "--checkpoint",
            &journal,
        ],
        &["translate", "--streaming", &corpus],
        &["translate", "--input", &corpus],
        &[
            "translate",
            "--input",
            &corpus,
            "--out",
            &jxc,
            "--checkpoint",
            &journal,
        ],
    ];
    for args in cases {
        let (_, err, code) = run_status(args);
        assert_eq!(code, 1, "{args:?}: {err}");
        assert!(err.contains("UTF-8"), "{args:?}: {err}");
    }
}
