//! `.jxc` — the workspace's binary columnar file format.
//!
//! A `.jxc` file is a [`ColumnarBatch`] on disk, stored as a sequence of
//! self-describing **row groups**: each group holds a run of rows with
//! its own column directory, dictionaries, column blocks and checksums,
//! and a footer indexes the groups. The §5 story of the paper —
//! schema-driven translation feeding columnar analytics — ends here
//! instead of at an in-memory struct.
//!
//! Row groups are what let a streaming translation write its output in
//! bounded memory: each input chunk's rows are encoded as one group on
//! the worker that shredded them and appended to the file in chunk
//! order ([`JxcWriter`]), so no merged batch is ever resident.
//! [`write_jxc`] is the one-group case of the same writer, and
//! [`read_jxc`] concatenates every group back into one batch.
//!
//! ## Layout
//!
//! ```text
//! ┌─────────┬──────────────────────────┬────────┬──────────┬────────────┬─────────┐
//! │ "JXC2"  │ row group 0, 1, …        │ footer │ ftr_crc  │ footer_off │ "JXC2"  │
//! │ 4 bytes │ (contiguous, in order)   │        │ u32 LE   │ u64 LE     │ 4 bytes │
//! └─────────┴──────────────────────────┴────────┴──────────┴────────────┴─────────┘
//!
//! footer := ncols:u32, ncols × { path_len:u16, path:bytes, type_tag:u8 },
//!           ngroups:u64, ngroups × { group_off:u64, group_len:u64,
//!                                    rows:u64, group_crc:u32 }
//!
//! group  := rows:u64, ncols:u32,
//!           ncols × { path_len:u16, path:bytes, type_tag:u8, enc:u8,
//!                     block_len:u64, valid_count:u64, block_crc:u32 },
//!           then the ncols column blocks back to back, in column order
//!
//! block  := validity bitmap (⌈rows/8⌉ bytes, LSB-first), then dense
//!           values (one entry per *valid* row) under the encoding:
//!   plain    bool: bit-packed; int64: i64 LE; float64: f64 bits LE
//!   dict     dict_len:u32, dict_len × {len:u32, bytes}, codes:u32 …
//!   list-int (n+1):u32 offsets, then Σ items × i64 LE
//!   list-str (n+1):u32 offsets, dict (as above), then Σ items × u32 codes
//! ```
//!
//! All integers are little-endian. A group holds no absolute offsets, so
//! its bytes do not depend on where it lands in the file: a worker can
//! encode it before the committer knows its position. Every group
//! repeats the file's column paths and types (the footer's schema), and
//! the reader checks that they agree.
//!
//! Every string column is dictionary-encoded (first-appearance order,
//! one dictionary per group). JSON spill columns are inspected at write
//! time, per group: when **every** valid cell is an integer array — or a
//! string array — whose compact serialization matches the stored text
//! byte for byte, the group stores the column as nested-list offset
//! arrays instead of opaque text, which is what gives `jsonx cat
//! --flatten` its cross-join semantics (and costs nothing when the data
//! doesn't fit: the column falls back to a text dictionary). So one
//! spill column may be `list-int` in one group and text in the next.
//! The round-trip verification makes `read(write(batch)) == batch` exact
//! by construction, pinned by `tests/prop_jxc.rs`.
//!
//! Counts (rows per column, dictionary entries, total list items) are
//! bounded by `u32::MAX` per column block; the writer panics past that —
//! a batch that large should be written as several row groups.
//!
//! ## Integrity and crash semantics
//!
//! Every column block, every row group and the footer carry a CRC-32
//! ([`jsonx_data::crc32`]), and the trailing magic doubles as a
//! **finalize marker**: it is the last thing written, so its absence
//! means the writer died mid-file. The reader therefore distinguishes
//! two failure worlds:
//!
//! * [`JxcError::Truncated`] — the file is a prefix of a `.jxc` file:
//!   the trailer (checksum + footer offset + finalize marker) is
//!   missing, the classic crash-mid-write shape. The run that produced
//!   it can be re-finalized with `--resume`, which keeps every row group
//!   its journal committed ([`JxcWriter::resume`]) and cuts the rest.
//! * [`JxcError::Corrupt`] — the file *claims* to be complete but a
//!   checksum or structural invariant fails: bit rot or foul play, not
//!   an interrupted write. Resuming cannot help; the file is bad.

use crate::columnar::{Column, ColumnData, ColumnarBatch};
use jsonx_data::{crc32, crc32_update, Number, Object, Value};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"JXC2";
/// Trailer bytes after the footer: footer CRC, footer offset, magic.
const TRAILER: usize = 4 + 8 + 4;
/// Footer index bytes per row group: offset, length, rows, CRC.
const GROUP_ENTRY: usize = 8 + 8 + 8 + 4;

/// How one column's dense values are encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Fixed-width scalars (bit-packed bools, i64/f64 words).
    Plain,
    /// Dictionary: unique strings once, u32 codes per value.
    Dict,
    /// Nested integer lists: offset array + flat i64 items.
    ListInt,
    /// Nested string lists: offset array + dictionary + flat u32 codes.
    ListStr,
}

impl Encoding {
    /// Stable label used by `jsonx cat` and the footer docs.
    pub fn label(&self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Dict => "dict",
            Encoding::ListInt => "list-int",
            Encoding::ListStr => "list-str",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Dict => 1,
            Encoding::ListInt => 2,
            Encoding::ListStr => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Encoding> {
        Some(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Dict,
            2 => Encoding::ListInt,
            3 => Encoding::ListStr,
            _ => return None,
        })
    }
}

/// Why a `.jxc` file could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JxcError {
    /// The leading magic is missing — not a `.jxc` file at all.
    BadMagic,
    /// The file starts as `.jxc` but ends before a structure it
    /// promises — including a missing finalize marker, the signature of
    /// a writer killed mid-write. The producing run is resumable.
    Truncated,
    /// The file claims completeness but fails a checksum or structural
    /// invariant (bad tags, offsets, codes, CRC mismatches).
    Corrupt(String),
    /// The underlying file could not be read.
    Io(String),
}

impl fmt::Display for JxcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JxcError::BadMagic => write!(f, "not a .jxc file (bad magic)"),
            JxcError::Truncated => write!(
                f,
                ".jxc file is truncated (likely interrupted mid-write; the producing run is resumable)"
            ),
            JxcError::Corrupt(msg) => write!(f, "corrupt .jxc file: {msg}"),
            JxcError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JxcError {}

/// Per-column facts a reader learns from the footer — what `jsonx cat`
/// prints next to the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JxcColumnInfo {
    /// Dotted leaf path.
    pub path: String,
    /// Storage type name (`bool`, `int64`, `float64`, `utf8`, `json`).
    pub type_name: &'static str,
    /// On-disk encoding of the dense values.
    pub encoding: Encoding,
    /// The column block's size in bytes (bitmap + values).
    pub block_bytes: usize,
    /// Number of valid (non-null) cells.
    pub valid_count: usize,
    /// Dictionary entry count, for dictionary-bearing encodings.
    pub dict_len: Option<usize>,
    /// Total flattened list items, for list encodings.
    pub list_items: Option<usize>,
}

/// One row group's facts: its row count and per-column encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JxcGroupInfo {
    /// Rows stored in the group.
    pub rows: usize,
    /// Per-column facts for this group, in column order.
    pub columns: Vec<JxcColumnInfo>,
}

/// A decoded `.jxc` file: the batch plus per-column and per-group facts.
#[derive(Debug, Clone, PartialEq)]
pub struct JxcFile {
    /// The reconstructed batch — every row group concatenated in file
    /// order, equal to the batch (or chunk batches) that were written.
    pub batch: ColumnarBatch,
    /// Per-column facts summed over the row groups, in column order:
    /// sizes, valid cells, dictionary entries and list items are totals,
    /// and the encoding is the one every group used — or
    /// [`Encoding::Dict`] (opaque text) when groups chose differently.
    pub columns: Vec<JxcColumnInfo>,
    /// Per-group facts, in file order.
    pub groups: Vec<JxcGroupInfo>,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn as_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!(".jxc writer: {what} ({n}) exceeds u32::MAX"))
}

/// LSB-first bit-pack of a bool sequence.
fn pack_bits(bits: impl ExactSizeIterator<Item = bool>, out: &mut Vec<u8>) {
    let n = bits.len();
    let start = out.len();
    out.resize(start + n.div_ceil(8), 0);
    for (i, bit) in bits.enumerate() {
        if bit {
            out[start + i / 8] |= 1 << (i % 8);
        }
    }
}

/// The shape a JSON spill column must verify against to earn a list
/// encoding.
enum ListShape {
    Ints(Vec<Vec<i64>>),
    Strs(Vec<Vec<String>>),
}

/// Inspects a JSON spill column's texts: `Some(shape)` when every cell
/// is an integer array (or, failing that, a string array) whose compact
/// serialization reproduces the stored text exactly. The byte-equality
/// check is what lets the reader re-serialize lists without keeping the
/// original text around.
fn sniff_lists(texts: &[String]) -> Option<ListShape> {
    let mut ints: Option<Vec<Vec<i64>>> = Some(Vec::with_capacity(texts.len()));
    let mut strs: Option<Vec<Vec<String>>> = Some(Vec::with_capacity(texts.len()));
    for text in texts {
        if ints.is_none() && strs.is_none() {
            return None;
        }
        let Ok(value) = jsonx_syntax::parse(text) else {
            return None;
        };
        let Value::Arr(items) = &value else {
            return None;
        };
        if value.to_json_string() != *text {
            return None;
        }
        if let Some(acc) = &mut ints {
            let parsed: Option<Vec<i64>> = items
                .iter()
                .map(|v| match v {
                    Value::Num(Number::Int(i)) => Some(*i),
                    _ => None,
                })
                .collect();
            match parsed {
                Some(row) => acc.push(row),
                None => ints = None,
            }
        }
        if let Some(acc) = &mut strs {
            let parsed: Option<Vec<String>> = items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            match parsed {
                Some(row) => acc.push(row),
                None => strs = None,
            }
        }
    }
    match (ints, strs) {
        (Some(rows), _) => Some(ListShape::Ints(rows)),
        (None, Some(rows)) => Some(ListShape::Strs(rows)),
        (None, None) => None,
    }
}

/// Appends a string dictionary (first-appearance order) and returns each
/// input's code.
fn write_dict<'a>(values: impl Iterator<Item = &'a str>, out: &mut Vec<u8>) -> Vec<u32> {
    let mut index: HashMap<&'a str, u32> = HashMap::new();
    let mut entries: Vec<&'a str> = Vec::new();
    let codes: Vec<u32> = values
        .map(|s| {
            *index.entry(s).or_insert_with(|| {
                entries.push(s);
                as_u32(entries.len() - 1, "dictionary size")
            })
        })
        .collect();
    put_u32(out, as_u32(entries.len(), "dictionary size"));
    for entry in &entries {
        put_u32(out, as_u32(entry.len(), "dictionary entry size"));
        out.extend_from_slice(entry.as_bytes());
    }
    codes
}

/// Encodes one column's block (bitmap + dense values); returns the
/// chosen encoding.
fn write_block(col: &Column, out: &mut Vec<u8>) -> Encoding {
    pack_bits(col.validity.iter().copied(), out);
    match &col.data {
        ColumnData::Bools(v) => {
            pack_bits(v.iter().copied(), out);
            Encoding::Plain
        }
        ColumnData::Ints(v) => {
            for i in v {
                put_u64(out, *i as u64);
            }
            Encoding::Plain
        }
        ColumnData::Floats(v) => {
            for f in v {
                put_u64(out, f.to_bits());
            }
            Encoding::Plain
        }
        ColumnData::Strs(v) => {
            let codes = write_dict(v.iter().map(String::as_str), out);
            for code in codes {
                put_u32(out, code);
            }
            Encoding::Dict
        }
        ColumnData::Json(texts) => match sniff_lists(texts) {
            Some(ListShape::Ints(rows)) => {
                let mut offset = 0u32;
                put_u32(out, 0);
                for row in &rows {
                    offset = offset
                        .checked_add(as_u32(row.len(), "list length"))
                        .unwrap_or_else(|| panic!(".jxc writer: list items exceed u32::MAX"));
                    put_u32(out, offset);
                }
                for row in &rows {
                    for i in row {
                        put_u64(out, *i as u64);
                    }
                }
                Encoding::ListInt
            }
            Some(ListShape::Strs(rows)) => {
                let mut offset = 0u32;
                put_u32(out, 0);
                for row in &rows {
                    offset = offset
                        .checked_add(as_u32(row.len(), "list length"))
                        .unwrap_or_else(|| panic!(".jxc writer: list items exceed u32::MAX"));
                    put_u32(out, offset);
                }
                let codes = write_dict(
                    rows.iter().flat_map(|row| row.iter().map(String::as_str)),
                    out,
                );
                for code in codes {
                    put_u32(out, code);
                }
                Encoding::ListStr
            }
            None => {
                let codes = write_dict(texts.iter().map(String::as_str), out);
                for code in codes {
                    put_u32(out, code);
                }
                Encoding::Dict
            }
        },
    }
}

fn type_tag(data: &ColumnData) -> u8 {
    match data {
        ColumnData::Bools(_) => 0,
        ColumnData::Ints(_) => 1,
        ColumnData::Floats(_) => 2,
        ColumnData::Strs(_) => 3,
        ColumnData::Json(_) => 4,
    }
}

/// CRC-32 of a column layout (paths and type tags), so the writer can
/// refuse a row group shredded under a different layout than its file.
fn layout_fingerprint<'a>(columns: impl Iterator<Item = (&'a str, u8)>) -> u32 {
    let mut state = 0xFFFF_FFFF;
    for (path, tag) in columns {
        state = crc32_update(state, path.as_bytes());
        state = crc32_update(state, &[0, tag]);
    }
    state ^ 0xFFFF_FFFF
}

/// One row group encoded in memory, ready to append to a file.
///
/// The bytes are position-independent (see the module docs), so a
/// worker encodes a group before anyone knows where it will land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowGroup {
    bytes: Vec<u8>,
    rows: usize,
    crc: u32,
    layout: u32,
}

/// Encodes a batch as one row group: the column directory, then every
/// column's block (each with its own dictionaries and CRC-32).
///
/// # Panics
///
/// Panics when a column's validity length disagrees with the batch row
/// count or its dense data length disagrees with its valid count (layout
/// invariant violations), or when a per-column count exceeds `u32::MAX`.
pub fn encode_group(batch: &ColumnarBatch) -> RowGroup {
    let mut body = Vec::new();
    let mut group = Vec::new();
    put_u64(&mut group, batch.rows as u64);
    put_u32(&mut group, as_u32(batch.columns.len(), "column count"));
    for col in &batch.columns {
        assert_eq!(
            col.validity.len(),
            batch.rows,
            ".jxc writer: validity length mismatch at {}",
            col.path
        );
        let valid_count = col.validity.iter().filter(|v| **v).count();
        assert_eq!(
            data_len(&col.data),
            valid_count,
            ".jxc writer: dense length mismatch at {}",
            col.path
        );
        let start = body.len();
        let enc = write_block(col, &mut body);
        let block = &body[start..];
        put_path(&mut group, &col.path);
        group.push(type_tag(&col.data));
        group.push(enc.tag());
        put_u64(&mut group, block.len() as u64);
        put_u64(&mut group, valid_count as u64);
        put_u32(&mut group, crc32(block));
    }
    group.extend_from_slice(&body);
    RowGroup {
        crc: crc32(&group),
        rows: batch.rows,
        layout: layout_fingerprint(
            batch
                .columns
                .iter()
                .map(|c| (c.path.as_str(), type_tag(&c.data))),
        ),
        bytes: group,
    }
}

fn put_path(out: &mut Vec<u8>, path: &str) {
    put_u16(
        out,
        u16::try_from(path.len())
            .unwrap_or_else(|_| panic!(".jxc writer: column path longer than 64 KiB")),
    );
    out.extend_from_slice(path.as_bytes());
}

/// Where one committed row group sits in its file: the footer's index
/// entry, and what a run journal records so a resume can verify the
/// group and cut the file after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEntry {
    /// Byte offset of the group's first byte.
    pub offset: u64,
    /// The group's length in bytes.
    pub len: u64,
    /// Rows the group stores.
    pub rows: u64,
    /// CRC-32 of the group's bytes.
    pub crc: u32,
}

/// Streams row groups into a `.jxc` file: the leading magic on
/// creation, one [`RowGroup`] per [`append`](Self::append), and the
/// footer plus finalize marker on [`finish`](Self::finish). Only the
/// footer's index (28 bytes per group) stays in memory.
pub struct JxcWriter<W> {
    out: W,
    layout: Vec<(String, u8)>,
    fingerprint: u32,
    groups: Vec<GroupEntry>,
    end: u64,
}

impl<W: Write> JxcWriter<W> {
    /// Starts a file with `layout`'s columns (its rows are not written;
    /// an empty batch from the same shredder is the usual layout).
    pub fn new(mut out: W, layout: &ColumnarBatch) -> std::io::Result<JxcWriter<W>> {
        out.write_all(MAGIC)?;
        Ok(JxcWriter::at(out, layout, Vec::new()))
    }

    fn at(out: W, layout: &ColumnarBatch, groups: Vec<GroupEntry>) -> JxcWriter<W> {
        let layout: Vec<(String, u8)> = layout
            .columns
            .iter()
            .map(|c| (c.path.clone(), type_tag(&c.data)))
            .collect();
        JxcWriter {
            out,
            fingerprint: layout_fingerprint(layout.iter().map(|(p, t)| (p.as_str(), *t))),
            layout,
            end: groups
                .last()
                .map_or(MAGIC.len() as u64, |g| g.offset + g.len),
            groups,
        }
    }

    /// Appends one row group after the last; returns where it landed.
    ///
    /// # Panics
    ///
    /// Panics when the group was encoded from a batch whose column
    /// paths or types differ from the file's layout — a caller bug.
    pub fn append(&mut self, group: &RowGroup) -> std::io::Result<GroupEntry> {
        assert_eq!(
            group.layout, self.fingerprint,
            ".jxc writer: row group layout differs from the file's"
        );
        self.out.write_all(&group.bytes)?;
        let entry = GroupEntry {
            offset: self.end,
            len: group.bytes.len() as u64,
            rows: group.rows as u64,
            crc: group.crc,
        };
        self.end += entry.len;
        self.groups.push(entry);
        Ok(entry)
    }

    /// Rows appended so far, over every group.
    pub fn rows(&self) -> u64 {
        self.groups.iter().map(|g| g.rows).sum()
    }

    /// The underlying output — e.g. to `sync_data` a file between
    /// groups.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Writes the footer, its checksum and offset, and the finalize
    /// marker; returns the output and the file's total size in bytes.
    pub fn finish(mut self) -> std::io::Result<(W, u64)> {
        let mut footer = Vec::with_capacity(16 + self.groups.len() * GROUP_ENTRY);
        put_u32(&mut footer, as_u32(self.layout.len(), "column count"));
        for (path, tag) in &self.layout {
            put_path(&mut footer, path);
            footer.push(*tag);
        }
        put_u64(&mut footer, self.groups.len() as u64);
        for g in &self.groups {
            put_u64(&mut footer, g.offset);
            put_u64(&mut footer, g.len);
            put_u64(&mut footer, g.rows);
            put_u32(&mut footer, g.crc);
        }
        let footer_crc = crc32(&footer);
        put_u32(&mut footer, footer_crc);
        put_u64(&mut footer, self.end);
        // The trailing magic is the finalize marker: written last, so its
        // presence certifies the file was completely written.
        footer.extend_from_slice(MAGIC);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        Ok((self.out, self.end + footer.len() as u64))
    }
}

impl JxcWriter<File> {
    /// Reopens a `.jxc` file whose writer was interrupted, given the
    /// row groups a run journal recorded as durable (`committed`, in
    /// file order). Checks the leading magic and that every committed
    /// group sits where recorded with its recorded CRC-32 — read
    /// sequentially in 64 KiB pieces, so memory stays flat — then cuts
    /// whatever follows the last one (a torn group, a footer, garbage)
    /// and leaves the writer positioned to append the next group.
    pub fn resume(
        path: &Path,
        layout: &ColumnarBatch,
        committed: Vec<GroupEntry>,
    ) -> Result<JxcWriter<File>, JxcError> {
        let io = |e: std::io::Error| JxcError::Io(format!("{}: {e}", path.display()));
        let mut file = File::options()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io)?;
        let mut magic = [0u8; 4];
        read_full(&mut file, &mut magic, path)?;
        if &magic != MAGIC {
            return Err(JxcError::BadMagic);
        }
        let mut expected = MAGIC.len() as u64;
        let mut buf = vec![0u8; 64 * 1024];
        for (i, g) in committed.iter().enumerate() {
            if g.offset != expected {
                return Err(JxcError::Corrupt(format!(
                    "row group {i} recorded at offset {} but the previous one ends at {expected}",
                    g.offset
                )));
            }
            let mut left = g.len;
            let mut state = 0xFFFF_FFFF;
            while left > 0 {
                let n = usize::try_from(left).map_or(buf.len(), |l| l.min(buf.len()));
                read_full(&mut file, &mut buf[..n], path)?;
                state = crc32_update(state, &buf[..n]);
                left -= n as u64;
            }
            if state ^ 0xFFFF_FFFF != g.crc {
                return Err(JxcError::Corrupt(format!(
                    "row group {i} fails its checksum"
                )));
            }
            expected += g.len;
        }
        file.set_len(expected).map_err(io)?;
        file.seek(SeekFrom::Start(expected)).map_err(io)?;
        Ok(JxcWriter::at(file, layout, committed))
    }
}

/// `read_exact` that reports a short file as [`JxcError::Truncated`].
fn read_full(file: &mut File, buf: &mut [u8], path: &Path) -> Result<(), JxcError> {
    file.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => JxcError::Truncated,
        _ => JxcError::Io(format!("{}: {e}", path.display())),
    })
}

/// Serializes a batch to `.jxc` bytes: the one-group case of
/// [`JxcWriter`].
///
/// # Panics
///
/// Panics on the layout invariant violations [`encode_group`] rejects.
pub fn write_jxc(batch: &ColumnarBatch) -> Vec<u8> {
    let group = encode_group(batch);
    let mut out = Vec::with_capacity(group.bytes.len() + 64 + batch.columns.len() * 32);
    let mut writer = JxcWriter::new(&mut out, batch).expect("writing to a Vec cannot fail");
    writer.append(&group).expect("writing to a Vec cannot fail");
    writer.finish().expect("writing to a Vec cannot fail");
    out
}

/// Writes a batch to `path` as `.jxc`; returns the file size in bytes.
pub fn write_jxc_file(path: &Path, batch: &ColumnarBatch) -> std::io::Result<u64> {
    let bytes = write_jxc(batch);
    let mut file = File::create(path)?;
    file.write_all(&bytes)?;
    Ok(bytes.len() as u64)
}

fn data_len(data: &ColumnData) -> usize {
    match data {
        ColumnData::Bools(v) => v.len(),
        ColumnData::Ints(v) => v.len(),
        ColumnData::Floats(v) => v.len(),
        ColumnData::Strs(v) => v.len(),
        ColumnData::Json(v) => v.len(),
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor. Every region it walks has
/// already passed the finalize-marker check (and usually a CRC), so
/// running short means a structure lies about its size: corruption.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JxcError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or_else(|| JxcError::Corrupt("a structure runs past its region".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], JxcError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u8(&mut self) -> Result<u8, JxcError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, JxcError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, JxcError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, JxcError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A u64 count or size that must fit this platform's `usize`.
    fn size(&mut self) -> Result<usize, JxcError> {
        usize::try_from(self.u64()?).map_err(|_| JxcError::Corrupt("size overflows usize".into()))
    }

    fn path(&mut self) -> Result<String, JxcError> {
        let len = self.u16()? as usize;
        Ok(std::str::from_utf8(self.take(len)?)
            .map_err(|_| JxcError::Corrupt("non-UTF-8 column path".into()))?
            .to_owned())
    }

    fn done(&self, what: &str) -> Result<(), JxcError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(JxcError::Corrupt(format!(
                "{what} has {} trailing bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn type_name(tag: u8) -> Result<&'static str, JxcError> {
    Ok(match tag {
        0 => "bool",
        1 => "int64",
        2 => "float64",
        3 => "utf8",
        4 => "json",
        other => return Err(JxcError::Corrupt(format!("unknown type tag {other}"))),
    })
}

/// A column with no rows of the storage type `tag` names.
fn empty_column(path: &str, tag: u8) -> Result<Column, JxcError> {
    let data = match tag {
        0 => ColumnData::Bools(Vec::new()),
        1 => ColumnData::Ints(Vec::new()),
        2 => ColumnData::Floats(Vec::new()),
        3 => ColumnData::Strs(Vec::new()),
        4 => ColumnData::Json(Vec::new()),
        other => return Err(JxcError::Corrupt(format!("unknown type tag {other}"))),
    };
    Ok(Column {
        path: path.to_owned(),
        data,
        validity: Vec::new(),
    })
}

fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()
}

fn read_dict(cur: &mut Cur<'_>) -> Result<Vec<String>, JxcError> {
    let len = cur.u32()? as usize;
    let mut dict = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        let bytes = cur.u32()? as usize;
        let entry = std::str::from_utf8(cur.take(bytes)?)
            .map_err(|_| JxcError::Corrupt("non-UTF-8 dictionary entry".into()))?;
        dict.push(entry.to_owned());
    }
    Ok(dict)
}

fn read_codes(cur: &mut Cur<'_>, n: usize, dict: &[String]) -> Result<Vec<String>, JxcError> {
    // Each code takes 4 bytes: a count the block cannot hold is rejected
    // by the reads below, not by a huge allocation here.
    let mut out = Vec::with_capacity(n.min(cur.bytes.len() / 4));
    for _ in 0..n {
        let code = cur.u32()? as usize;
        let entry = dict
            .get(code)
            .ok_or_else(|| JxcError::Corrupt(format!("dictionary code {code} out of range")))?;
        out.push(entry.clone());
    }
    Ok(out)
}

fn read_offsets(cur: &mut Cur<'_>, n: usize) -> Result<Vec<usize>, JxcError> {
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(cur.u32()? as usize);
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) || offsets[0] != 0 {
        return Err(JxcError::Corrupt("non-monotone list offsets".into()));
    }
    Ok(offsets)
}

fn read_block(
    block: &[u8],
    rows: usize,
    valid_count: usize,
    type_tag: u8,
    enc: Encoding,
    path: &str,
) -> Result<(Column, Option<usize>, Option<usize>), JxcError> {
    let bitmap_bytes = rows.div_ceil(8);
    let mut cur = Cur {
        bytes: block,
        pos: 0,
    };
    let validity = unpack_bits(cur.take(bitmap_bytes)?, rows);
    if validity.iter().filter(|v| **v).count() != valid_count {
        return Err(JxcError::Corrupt(format!(
            "validity bitmap of {path} disagrees with its valid count"
        )));
    }
    let mut dict_len = None;
    let mut list_items = None;
    let data = match (type_tag, enc) {
        (0, Encoding::Plain) => {
            let packed = cur.take(valid_count.div_ceil(8))?;
            ColumnData::Bools(unpack_bits(packed, valid_count))
        }
        (1, Encoding::Plain) => {
            let mut v = Vec::with_capacity(valid_count);
            for _ in 0..valid_count {
                v.push(cur.u64()? as i64);
            }
            ColumnData::Ints(v)
        }
        (2, Encoding::Plain) => {
            let mut v = Vec::with_capacity(valid_count);
            for _ in 0..valid_count {
                v.push(f64::from_bits(cur.u64()?));
            }
            ColumnData::Floats(v)
        }
        (3, Encoding::Dict) | (4, Encoding::Dict) => {
            let dict = read_dict(&mut cur)?;
            dict_len = Some(dict.len());
            let values = read_codes(&mut cur, valid_count, &dict)?;
            if type_tag == 3 {
                ColumnData::Strs(values)
            } else {
                ColumnData::Json(values)
            }
        }
        (4, Encoding::ListInt) => {
            let offsets = read_offsets(&mut cur, valid_count)?;
            let total = offsets[valid_count];
            list_items = Some(total);
            let mut items = Vec::with_capacity(total.min(block.len() / 8));
            for _ in 0..total {
                items.push(cur.u64()? as i64);
            }
            let texts = offsets
                .windows(2)
                .map(|w| {
                    Value::Arr(
                        items[w[0]..w[1]]
                            .iter()
                            .map(|i| Value::Num(Number::Int(*i)))
                            .collect(),
                    )
                    .to_json_string()
                })
                .collect();
            ColumnData::Json(texts)
        }
        (4, Encoding::ListStr) => {
            let offsets = read_offsets(&mut cur, valid_count)?;
            let total = offsets[valid_count];
            list_items = Some(total);
            let dict = read_dict(&mut cur)?;
            dict_len = Some(dict.len());
            let items = read_codes(&mut cur, total, &dict)?;
            let texts = offsets
                .windows(2)
                .map(|w| {
                    Value::Arr(items[w[0]..w[1]].iter().cloned().map(Value::Str).collect())
                        .to_json_string()
                })
                .collect();
            ColumnData::Json(texts)
        }
        (tag, enc) => {
            return Err(JxcError::Corrupt(format!(
                "type tag {tag} cannot carry encoding {}",
                enc.label()
            )));
        }
    };
    if cur.pos != block.len() {
        return Err(JxcError::Corrupt(format!(
            "column block of {path} has {} trailing bytes",
            block.len() - cur.pos
        )));
    }
    Ok((
        Column {
            path: path.to_owned(),
            data,
            validity,
        },
        dict_len,
        list_items,
    ))
}

/// Decodes one row group, checking its directory against the file's
/// layout and its row count against the footer's index.
fn read_group(
    group: &[u8],
    rows: usize,
    layout: &[(String, u8)],
) -> Result<(ColumnarBatch, JxcGroupInfo), JxcError> {
    let mut cur = Cur {
        bytes: group,
        pos: 0,
    };
    if cur.size()? != rows {
        return Err(JxcError::Corrupt(
            "row group's row count disagrees with the footer".into(),
        ));
    }
    if cur.u32()? as usize != layout.len() {
        return Err(JxcError::Corrupt(
            "row group's column count disagrees with the footer".into(),
        ));
    }
    let mut dir = Vec::with_capacity(layout.len());
    for (path, tag) in layout {
        let (got_path, got_tag) = (cur.path()?, cur.u8()?);
        if got_path != *path || got_tag != *tag {
            return Err(JxcError::Corrupt(format!(
                "row group column {got_path} disagrees with the footer's {path}"
            )));
        }
        let enc_tag = cur.u8()?;
        let enc = Encoding::from_tag(enc_tag)
            .ok_or_else(|| JxcError::Corrupt(format!("unknown encoding tag {enc_tag}")))?;
        let (block_len, valid_count, block_crc) = (cur.size()?, cur.size()?, cur.u32()?);
        if valid_count > rows {
            return Err(JxcError::Corrupt(format!(
                "column {path} claims more valid cells than rows"
            )));
        }
        dir.push((enc, block_len, valid_count, block_crc));
    }
    let mut columns = Vec::with_capacity(layout.len());
    let mut infos = Vec::with_capacity(layout.len());
    for ((path, tag), (enc, block_len, valid_count, block_crc)) in layout.iter().zip(dir) {
        let block = cur.take(block_len)?;
        if crc32(block) != block_crc {
            return Err(JxcError::Corrupt(format!(
                "column block of {path} fails its checksum"
            )));
        }
        let (column, dict_len, list_items) = read_block(block, rows, valid_count, *tag, enc, path)?;
        infos.push(JxcColumnInfo {
            path: path.clone(),
            type_name: type_name(*tag)?,
            encoding: enc,
            block_bytes: block_len,
            valid_count,
            dict_len,
            list_items,
        });
        columns.push(column);
    }
    cur.done("row group")?;
    Ok((
        ColumnarBatch { columns, rows },
        JxcGroupInfo {
            rows,
            columns: infos,
        },
    ))
}

/// Sums per-group column facts into the file-level view [`JxcFile`]
/// documents.
fn sum_columns(
    layout: &[(String, u8)],
    groups: &[JxcGroupInfo],
) -> Result<Vec<JxcColumnInfo>, JxcError> {
    let add = |a: Option<usize>, b: Option<usize>| match (a, b) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
    };
    let mut out = Vec::with_capacity(layout.len());
    for (c, (path, tag)) in layout.iter().enumerate() {
        let mut info = JxcColumnInfo {
            path: path.clone(),
            type_name: type_name(*tag)?,
            encoding: match tag {
                0..=2 => Encoding::Plain,
                _ => Encoding::Dict,
            },
            block_bytes: 0,
            valid_count: 0,
            dict_len: None,
            list_items: None,
        };
        for (g, group) in groups.iter().enumerate() {
            let col = &group.columns[c];
            info.encoding = match g {
                0 => col.encoding,
                _ if col.encoding == info.encoding => col.encoding,
                _ => Encoding::Dict,
            };
            info.block_bytes += col.block_bytes;
            info.valid_count += col.valid_count;
            info.dict_len = add(info.dict_len, col.dict_len);
            info.list_items = add(info.list_items, col.list_items);
        }
        out.push(info);
    }
    Ok(out)
}

/// Decodes `.jxc` bytes back into the batch that was written, every row
/// group concatenated in file order.
///
/// Failure taxonomy: no leading magic → [`JxcError::BadMagic`] (not our
/// file); a prefix of a `.jxc` file — no complete trailer (footer CRC +
/// offset + finalize marker) → [`JxcError::Truncated`] (killed
/// mid-write); a complete trailer whose checksums or structure disagree
/// → [`JxcError::Corrupt`].
pub fn read_jxc(bytes: &[u8]) -> Result<JxcFile, JxcError> {
    if bytes.len() < MAGIC.len() {
        return Err(if MAGIC.starts_with(bytes) {
            JxcError::Truncated
        } else {
            JxcError::BadMagic
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(JxcError::BadMagic);
    }
    // Anything shorter than magic + trailer — or a missing finalize
    // marker — is a file whose writer never got to the end.
    if bytes.len() < MAGIC.len() + TRAILER || &bytes[bytes.len() - MAGIC.len()..] != MAGIC {
        return Err(JxcError::Truncated);
    }
    let trailer = bytes.len() - TRAILER;
    let mut cur = Cur {
        bytes: &bytes[trailer..],
        pos: 0,
    };
    let footer_crc = cur.u32()?;
    let footer_off = usize::try_from(cur.u64()?)
        .ok()
        .filter(|off| (MAGIC.len()..=trailer).contains(off))
        .ok_or_else(|| JxcError::Corrupt("footer offset out of range".into()))?;
    if crc32(&bytes[footer_off..trailer]) != footer_crc {
        return Err(JxcError::Corrupt("footer checksum mismatch".into()));
    }
    let mut cur = Cur {
        bytes: &bytes[footer_off..trailer],
        pos: 0,
    };
    let ncols = cur.u32()? as usize;
    let mut layout = Vec::with_capacity(ncols.min(1 << 12));
    for _ in 0..ncols {
        let path = cur.path()?;
        let tag = cur.u8()?;
        type_name(tag)?;
        layout.push((path, tag));
    }
    let ngroups = cur.size()?;
    if ngroups > (trailer - footer_off) / GROUP_ENTRY {
        return Err(JxcError::Corrupt("group count exceeds the footer".into()));
    }
    let mut batch = ColumnarBatch {
        columns: layout
            .iter()
            .map(|(path, tag)| empty_column(path, *tag))
            .collect::<Result<_, _>>()?,
        rows: 0,
    };
    let mut groups = Vec::with_capacity(ngroups);
    let mut expected = MAGIC.len();
    for i in 0..ngroups {
        let (offset, len, rows, crc) = (cur.size()?, cur.size()?, cur.size()?, cur.u32()?);
        let end = len
            .checked_add(offset)
            .filter(|end| offset == expected && *end <= footer_off)
            .ok_or_else(|| JxcError::Corrupt(format!("row group {i} out of place")))?;
        let group = &bytes[offset..end];
        if crc32(group) != crc {
            return Err(JxcError::Corrupt(format!(
                "row group {i} fails its checksum"
            )));
        }
        let (part, info) = read_group(group, rows, &layout)?;
        if groups.is_empty() {
            batch = part;
        } else {
            batch.append(part);
        }
        groups.push(info);
        expected = end;
    }
    cur.done("footer")?;
    if expected != footer_off {
        return Err(JxcError::Corrupt(
            "bytes between the last row group and the footer".into(),
        ));
    }
    Ok(JxcFile {
        columns: sum_columns(&layout, &groups)?,
        batch,
        groups,
    })
}

/// Reads a `.jxc` file from disk.
pub fn read_jxc_file(path: &Path) -> Result<JxcFile, JxcError> {
    let bytes =
        std::fs::read(path).map_err(|e| JxcError::Io(format!("{}: {e}", path.display())))?;
    read_jxc(&bytes)
}

// ---------------------------------------------------------------------------
// Row reconstruction (jsonx cat)
// ---------------------------------------------------------------------------

/// The value of one cell for display: scalars as themselves, JSON spill
/// text parsed back into a value (raw text as a string if it somehow
/// does not parse).
fn cell_value(data: &ColumnData, dense: usize) -> Value {
    match data {
        ColumnData::Bools(v) => Value::Bool(v[dense]),
        ColumnData::Ints(v) => Value::Num(Number::Int(v[dense])),
        ColumnData::Floats(v) => Number::from_f64(v[dense])
            .map(Value::Num)
            .unwrap_or(Value::Null),
        ColumnData::Strs(v) => Value::Str(v[dense].clone()),
        ColumnData::Json(v) => {
            jsonx_syntax::parse(&v[dense]).unwrap_or_else(|_| Value::Str(v[dense].clone()))
        }
    }
}

/// Reconstructs the first `limit` rows as flat JSON objects (dotted
/// paths as keys, absent cells omitted) — the inverse view of shredding,
/// for `jsonx cat`.
pub fn rows_as_values(batch: &ColumnarBatch, limit: usize) -> Vec<Value> {
    let n = batch.rows.min(limit);
    let mut dense = vec![0usize; batch.columns.len()];
    let mut out = Vec::with_capacity(n);
    for row in 0..n {
        let mut obj = Object::new();
        for (c, col) in batch.columns.iter().enumerate() {
            if col.validity[row] {
                obj.insert(col.path.clone(), cell_value(&col.data, dense[c]));
                dense[c] += 1;
            }
        }
        out.push(Value::Obj(obj));
    }
    out
}

/// Cross-join flattening of list columns, the semantics `jsonx cat
/// --flatten` exposes: each row expands into the cartesian product of
/// its list-encoded columns' elements (an empty or absent list
/// contributes a single null), with every scalar column repeated per
/// combination — the classic nested-to-flat-rows unnest.
///
/// Only cells their row group stored list-encoded ([`Encoding::ListInt`]
/// / [`Encoding::ListStr`]) flatten; opaque JSON spill stays embedded.
/// Returns the first `limit` flattened rows.
pub fn flatten_rows(file: &JxcFile, limit: usize) -> Vec<Value> {
    let batch = &file.batch;
    let mut dense = vec![0usize; batch.columns.len()];
    let mut out = Vec::new();
    let mut row = 0;
    for group in &file.groups {
        let list_cols: Vec<bool> = group
            .columns
            .iter()
            .map(|info| matches!(info.encoding, Encoding::ListInt | Encoding::ListStr))
            .collect();
        for _ in 0..group.rows {
            // Base object of non-list cells, plus each list column's variants.
            let mut base = Object::new();
            let mut variants: Vec<(String, Vec<Value>)> = Vec::new();
            for (c, col) in batch.columns.iter().enumerate() {
                let valid = col.validity[row];
                let value = valid.then(|| cell_value(&col.data, dense[c]));
                if valid {
                    dense[c] += 1;
                }
                if list_cols[c] {
                    let elems = match value {
                        Some(Value::Arr(items)) if !items.is_empty() => items,
                        _ => vec![Value::Null],
                    };
                    variants.push((col.path.clone(), elems));
                } else if let Some(v) = value {
                    base.insert(col.path.clone(), v);
                }
            }
            row += 1;
            // Cartesian product over the list columns' elements.
            let mut idx = vec![0usize; variants.len()];
            loop {
                let mut obj = base.clone();
                for (slot, (path, elems)) in idx.iter().zip(&variants) {
                    obj.insert(path.clone(), elems[*slot].clone());
                }
                out.push(Value::Obj(obj));
                if out.len() >= limit {
                    return out;
                }
                // Odometer increment; done when it wraps (or there are no
                // list columns at all — one combination per row).
                let mut carry = true;
                for (slot, (_, elems)) in idx.iter_mut().zip(&variants).rev() {
                    *slot += 1;
                    if *slot < elems.len() {
                        carry = false;
                        break;
                    }
                    *slot = 0;
                }
                if carry {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::Shredder;
    use jsonx_core::{infer_collection, Equivalence};
    use jsonx_syntax::parse_ndjson;

    fn shred(ndjson: &str) -> ColumnarBatch {
        let docs = parse_ndjson(ndjson).unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        Shredder::from_type(&ty).shred(&docs).unwrap()
    }

    fn round_trip(batch: &ColumnarBatch) -> JxcFile {
        let bytes = write_jxc(batch);
        let file = read_jxc(&bytes).expect("read back");
        assert_eq!(&file.batch, batch);
        file
    }

    #[test]
    fn scalar_columns_round_trip() {
        let batch = shred(concat!(
            "{\"id\": 1, \"name\": \"ada\", \"score\": 9.5, \"ok\": true}\n",
            "{\"id\": 2, \"name\": \"bob\", \"score\": -0.5, \"ok\": false}\n",
            "{\"id\": 3, \"name\": \"ada\"}\n",
        ));
        let file = round_trip(&batch);
        let by_path: HashMap<&str, &JxcColumnInfo> =
            file.columns.iter().map(|i| (i.path.as_str(), i)).collect();
        assert_eq!(by_path["id"].encoding, Encoding::Plain);
        assert_eq!(by_path["name"].encoding, Encoding::Dict);
        assert_eq!(by_path["name"].dict_len, Some(2), "ada deduplicates");
        assert_eq!(by_path["score"].valid_count, 2);
    }

    #[test]
    fn int_lists_get_offset_arrays() {
        let batch = shred("{\"xs\": [1, 2, 3]}\n{\"xs\": []}\n{\"xs\": [-7]}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::ListInt);
        assert_eq!(file.columns[0].list_items, Some(4));
    }

    #[test]
    fn string_lists_get_offsets_plus_dict() {
        let batch = shred("{\"tags\": [\"a\", \"b\"]}\n{\"tags\": [\"b\"]}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::ListStr);
        assert_eq!(file.columns[0].dict_len, Some(2));
        assert_eq!(file.columns[0].list_items, Some(3));
    }

    #[test]
    fn mixed_spill_falls_back_to_text_dict() {
        let batch = shred("{\"v\": [1, \"x\"]}\n{\"v\": {\"k\": 1}}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::Dict);
    }

    #[test]
    fn non_canonical_list_text_is_not_list_encoded() {
        // Spacing differs from the compact serializer: byte equality
        // fails, so the column must stay opaque text to round-trip.
        let batch = ColumnarBatch {
            columns: vec![Column {
                path: "v".into(),
                data: ColumnData::Json(vec!["[1,  2]".into()]),
                validity: vec![true],
            }],
            rows: 1,
        };
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::Dict);
    }

    #[test]
    fn nulls_and_missing_cells_round_trip() {
        let batch = shred("{\"a\": 1}\n{\"b\": \"x\"}\n{\"a\": null, \"b\": \"y\"}\n");
        round_trip(&batch);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = shred("");
        round_trip(&batch);
    }

    #[test]
    fn corrupt_files_are_rejected_not_panicked() {
        let batch = shred("{\"id\": 1, \"tags\": [\"a\"]}\n");
        let good = write_jxc(&batch);
        assert_eq!(read_jxc(b"nope"), Err(JxcError::BadMagic));
        assert_eq!(read_jxc(b"XXXX0123456789AB"), Err(JxcError::BadMagic));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(read_jxc(&bad), Err(JxcError::BadMagic));
        for cut in [good.len() - 1, good.len() - 9, 10] {
            assert!(read_jxc(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncation_is_distinguished_from_corruption() {
        let batch = shred("{\"id\": 1, \"name\": \"ada\"}\n{\"id\": 2}\n");
        let good = write_jxc(&batch);
        // Any prefix that keeps the leading magic but loses the finalize
        // marker reads as Truncated — the crash-mid-write shape.
        for cut in [4, 5, good.len() / 2, good.len() - 1] {
            assert_eq!(
                read_jxc(&good[..cut]),
                Err(JxcError::Truncated),
                "cut at {cut}"
            );
        }
        // A complete file with a flipped bit in a column block or the
        // footer reads as Corrupt — checksums catch what structural
        // validation alone would miss.
        for pos in [6, good.len() - 20] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(read_jxc(&bad), Err(JxcError::Corrupt(_))),
                "flip at {pos}: {:?}",
                read_jxc(&bad)
            );
        }
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("jsonx-jxc-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jxc", std::process::id()))
    }

    #[test]
    fn resume_keeps_committed_groups_and_cuts_the_rest() {
        let batch = shred("{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n");
        let layout = ColumnarBatch {
            columns: vec![empty_column("id", 1).unwrap()],
            rows: 0,
        };
        let mut want = Vec::new();
        let mut writer = JxcWriter::new(&mut want, &layout).unwrap();
        writer.append(&encode_group(&batch)).unwrap();
        writer.append(&encode_group(&batch)).unwrap();
        writer.finish().unwrap();

        // A run that committed one group, wrote half of the next, died.
        let path = scratch_file("resume");
        let mut writer = JxcWriter::new(File::create(&path).unwrap(), &layout).unwrap();
        let first = writer.append(&encode_group(&batch)).unwrap();
        let group = encode_group(&batch);
        writer
            .get_mut()
            .write_all(&group.bytes[..group.bytes.len() / 2])
            .unwrap();
        drop(writer);
        assert_eq!(read_jxc_file(&path), Err(JxcError::Truncated));

        let mut writer = JxcWriter::resume(&path, &layout, vec![first]).unwrap();
        writer.append(&group).unwrap();
        writer.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want, "resumed file differs");

        // A committed group whose bytes changed is refused.
        let mut bytes = want.clone();
        bytes[6] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            JxcWriter::resume(&path, &layout, vec![first]),
            Err(JxcError::Corrupt(_))
        ));
        // A file shorter than its committed groups is truncated.
        std::fs::write(&path, &want[..10]).unwrap();
        assert_eq!(
            JxcWriter::resume(&path, &layout, vec![first]).err(),
            Some(JxcError::Truncated)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rows_reconstruct_shredded_records() {
        let batch = shred("{\"id\": 1, \"geo\": {\"lat\": 1.5}}\n{\"id\": 2}\n");
        let rows = rows_as_values(&batch, 10);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].to_json_string(),
            "{\"geo.lat\":1.5,\"id\":1}".to_string()
        );
        assert_eq!(rows[1].to_json_string(), "{\"id\":2}".to_string());
    }

    #[test]
    fn flatten_cross_joins_list_columns() {
        let batch = shred(concat!(
            "{\"id\": 1, \"xs\": [1, 2], \"tags\": [\"a\", \"b\"]}\n",
            "{\"id\": 2, \"xs\": [], \"tags\": [\"c\"]}\n",
        ));
        let file = round_trip(&batch);
        let flat = flatten_rows(&file, 100);
        // Row 1: 2 × 2 combinations; row 2: empty xs → single null × one tag.
        assert_eq!(flat.len(), 5);
        assert_eq!(
            flat[0].to_json_string(),
            "{\"id\":1,\"tags\":\"a\",\"xs\":1}"
        );
        assert_eq!(
            flat[3].to_json_string(),
            "{\"id\":1,\"tags\":\"b\",\"xs\":2}"
        );
        assert_eq!(
            flat[4].to_json_string(),
            "{\"id\":2,\"tags\":\"c\",\"xs\":null}"
        );
    }
}
