//! Record files: the one file discipline under both persisted stores.
//!
//! The query store ([`DiskQueryStore`](crate::DiskQueryStore)) makes a
//! repeated query free and the scan store (`stack_core::ScanStore`) makes a
//! repeated function free (paper §6.5). Both are a [`RecordStore`]: a
//! sharded in-memory `key → (value, last-used stamp)` table bracketed by
//! [`open`](RecordStore::open) and [`save`](RecordStore::save) against one
//! line-oriented text file. What differs between them is only the
//! [`Codec`]: the header's name and revision fields, the key and value
//! types, and the syntax of one record.
//!
//! ## File layout
//!
//! ```text
//! <prefix> <tag><n> ... gen<generation>
//! <tag> g<stamp> <head fields> !<crc32>
//! <continuation line> !<crc32>
//! ```
//!
//! The header names the format and the codec's revision fields (format
//! version, encoding revision, ...) and the **generation** the file was
//! saved at. Each record is a head line — a one-word tag, the record's
//! last-used generation stamp, and the codec's fields — followed by any
//! number of continuation lines the codec asks for. Every body line ends
//! with ` !` and the CRC-32 of the payload before it, as 8 lower-case hex
//! digits. Records are written sorted by key, so saving the same logical
//! store at the same generation always produces byte-identical files.
//!
//! ## Compatibility
//!
//! A header whose revision fields do not match the running binary causes
//! the whole file to be discarded and the store to start empty
//! ([`was_invalidated`](RecordStore::was_invalidated) reports it). Keys bake
//! in the semantics of the revisions they were computed under, so a stale
//! store must self-invalidate rather than serve wrong answers.
//!
//! ## Crash safety and salvage
//!
//! Saves are atomic: the file is written to a sibling temp file
//! (`<path>.tmp.<pid>`, removed again if the write or the rename fails) and
//! renamed over the target, so an interrupted save never replaces a good
//! store. A file can still arrive torn — a crashed copy, a truncated disk,
//! a bit flip in transit — and the per-line checksum makes the failure
//! model per-record instead of per-file: at `open`, a record survives only
//! if every one of its lines is newline-terminated, checksums, and parses,
//! its stamp is not from the future, and its key was not already seen (a
//! duplicate is the signature of a torn write that spliced two file
//! versions; the first occurrence wins). Everything else is **dropped and
//! counted** ([`SalvageReport`]); a record that fails drops its head line
//! and the reader resynchronizes at the next line, so orphaned
//! continuation lines drop one by one. The next `save` rewrites the file
//! canonically; `stack store fsck [--repair]` drives the same path from the
//! command line.
//!
//! ## Generations and compaction
//!
//! Every `open` starts a new generation (the persisted one plus one, 1 for
//! a fresh store). Every record the run touches — a lookup hit or an
//! insert — is stamped with it, and `save` writes the stamps back. With
//! [`set_compaction`](RecordStore::set_compaction)`(Some(n))` (the CLI's
//! `--compact-store n`), `save` drops every record whose last use is `n` or
//! more generations old, so a long-lived archive store ages out dead keys.
//! Records used this run are never dropped.
//!
//! ## Merging and inspection
//!
//! [`merge`](RecordStore::merge) folds several files into one — the fan-in
//! of a sharded scan. It is strict where `open` is forgiving: a
//! revision-mismatched, malformed, or salvage-needing input is a loud
//! [`MergeError::Incompatible`], and a key present in several inputs must
//! carry equal values ([`MergeError::Conflict`] otherwise). Stamps take the
//! max across inputs and the output carries the max input generation, so
//! merging is commutative, and merging a file with itself reproduces it
//! byte for byte. [`inspect`](RecordStore::inspect) reads a file's header
//! and stamp histogram without trusting it, so even a store `open` would
//! discard can be examined.

use crate::cache::CacheStats;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{Debug, Write as _};
use std::hash::{Hash, Hasher};
use std::io;
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One revision field of a record-file header: written as `<tag><value>`,
/// and shown by `inspect` under its label (text) and key (`--json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Revision {
    /// The field's tag in the header line (`v`, `enc`, ...).
    pub tag: &'static str,
    /// The revision this binary writes and accepts.
    pub value: u64,
    /// The field's label in the `inspect` render.
    pub label: &'static str,
    /// The field's key in the `store inspect --json` object.
    pub json_key: &'static str,
}

/// The syntax of one kind of record file. A codec names the header and its
/// revision fields, and writes and parses one record; [`RecordStore`] does
/// everything else.
pub trait Codec {
    /// The store kind `inspect` and `fsck` report (`"query"`, `"scan"`).
    const KIND: &'static str;
    /// The first token of every header line.
    const HEADER_PREFIX: &'static str;
    /// The header's revision fields, in header order. All must match the
    /// running binary for a file to load or merge.
    const REVISIONS: &'static [Revision];
    /// Record key; records are written in key order.
    type Key: Clone + Eq + Hash + Ord + Debug + Send + Sync;
    /// Record value; merge insists duplicate keys carry equal values.
    type Value: Clone + PartialEq + Debug + Send + Sync;

    /// A key as a merge conflict names it.
    fn key_text(key: &Self::Key) -> String;

    /// Write one record: its head line, then any continuation lines.
    fn write_record(key: &Self::Key, value: &Self::Value, out: &mut RecordWriter<'_>);

    /// Parse one record from its head line's `tag` and the fields after
    /// its stamp, pulling continuation lines from `more`. `None` drops the
    /// record.
    fn parse_record(
        tag: &str,
        fields: &str,
        more: &mut RecordLines<'_, '_>,
    ) -> Option<(Self::Key, Self::Value)>;
}

/// Appends checksummed lines to a record file being written.
pub struct RecordWriter<'a> {
    out: &'a mut String,
    stamp: u64,
}

impl RecordWriter<'_> {
    /// Write the record's head line: `<tag> g<stamp> `, then whatever
    /// `fields` appends.
    pub fn head(&mut self, tag: &str, fields: impl FnOnce(&mut String)) {
        let start = self.out.len();
        let _ = write!(self.out, "{tag} g{} ", self.stamp);
        fields(self.out);
        self.seal(start);
    }

    /// Write one continuation line whose payload `payload` appends.
    pub fn line(&mut self, payload: impl FnOnce(&mut String)) {
        let start = self.out.len();
        payload(self.out);
        self.seal(start);
    }

    /// Terminate the line that began at byte `start` with its checksum.
    fn seal(&mut self, start: usize) {
        let sum = crc32(&self.out.as_bytes()[start..]);
        let _ = writeln!(self.out, " !{sum:08x}");
    }
}

/// The body lines after a record's head line, as a codec's
/// [`parse_record`](Codec::parse_record) sees them.
pub struct RecordLines<'a, 't> {
    lines: &'a mut Peekable<BodyLines<'t>>,
}

impl RecordLines<'_, '_> {
    /// Parse the next line's payload with `parse`. The line is consumed
    /// only if it is intact and `parse` accepts it; otherwise it stays in
    /// place, and the salvage loop counts it as a bad line of its own.
    pub fn next_line<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let &(line, _, terminated) = self.lines.peek()?;
        let parsed = verify_checksummed_line(line)
            .filter(|_| terminated)
            .and_then(parse)?;
        self.lines.next();
        Some(parsed)
    }
}

/// A record file's records held in memory: see the module docs.
#[derive(Debug)]
pub struct RecordStore<C: Codec> {
    path: PathBuf,
    /// The records, each with its last-used stamp. The query store's
    /// [`QueryStore`](crate::QueryStore) impl reads and writes it directly.
    pub(crate) table: Table<C::Key, C::Value>,
    /// This run's generation: the persisted header generation plus one.
    generation: u64,
    /// Compaction horizon in generations; 0 means compaction is off.
    compact_after: AtomicU64,
    loaded: u64,
    invalidated: bool,
    /// Set when `open` had to drop bad lines (`None` for a clean or missing
    /// file).
    salvage: Option<SalvageReport>,
}

/// A parsed record: key, value, last-used stamp.
type Record<C> = (<C as Codec>::Key, <C as Codec>::Value, u64);

impl<C: Codec> RecordStore<C> {
    /// Open a store backed by `path`, loading every persisted record and
    /// starting the next generation. A missing file yields an empty store
    /// at generation 1; a file with a mismatched header is discarded
    /// wholesale and [`was_invalidated`](Self::was_invalidated) reports it.
    /// A compatible file with torn or corrupted body lines loads every
    /// record that verifies, drops the rest, and reports the damage through
    /// [`salvage`](Self::salvage). Only I/O failures are errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let mut store = RecordStore {
            path: path.into(),
            table: Table::default(),
            generation: 1,
            compact_after: AtomicU64::new(0),
            loaded: 0,
            invalidated: false,
            salvage: None,
        };
        let text = match std::fs::read_to_string(&store.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e),
        };
        match Self::parse_file(&text) {
            Some((file_generation, entries, salvage)) => {
                store.generation = file_generation + 1;
                store.loaded = entries.len() as u64;
                for (key, value, stamp) in entries {
                    store.table.insert(key, value, stamp);
                }
                if !salvage.is_clean() {
                    store.salvage = Some(salvage);
                }
            }
            None => store.invalidated = true,
        }
        Ok(store)
    }

    /// Write every record back to the backing file through the atomic
    /// writer, dropping records outside the compaction horizon
    /// ([`set_compaction`](Self::set_compaction)). Returns the number of
    /// records written. Saving the same logical store twice within one run
    /// produces byte-identical files.
    pub fn save(&self) -> io::Result<usize> {
        let compact = self.compact_after.load(Ordering::Relaxed);
        let (text, written) = {
            let shards: Vec<_> = self.table.shards.iter().map(lock).collect();
            let mut entries: Vec<_> = shards
                .iter()
                .flat_map(|shard| shard.iter())
                .map(|(key, (value, stamp))| (key, value, *stamp))
                .filter(|(_, _, stamp)| compact == 0 || self.generation - stamp < compact)
                .collect();
            (render::<C>(self.generation, &mut entries), entries.len())
        };
        write_atomically(&self.path, &text)?;
        Ok(written)
    }

    /// Merge the store files at `inputs` into one file at `out`: the union
    /// of their records, written through the same atomic writer as
    /// [`save`](Self::save). An input with a different header, a malformed
    /// header, or a body that needs salvage is an
    /// [`Incompatible`](MergeError::Incompatible) error; a key whose values
    /// differ across inputs is a [`Conflict`](MergeError::Conflict). Stamps
    /// take the max across inputs, the output carries the max input
    /// generation, and with `compact_after = Some(n)` records unused for
    /// `n` or more generations are pruned. The result does not depend on
    /// input order, and merging a file with itself reproduces it.
    pub fn merge(
        out: impl AsRef<Path>,
        inputs: &[PathBuf],
        compact_after: Option<u64>,
    ) -> Result<MergeStats, MergeError> {
        let mut merged: HashMap<C::Key, (C::Value, u64)> = HashMap::new();
        let mut stats = MergeStats {
            inputs: inputs.len(),
            ..MergeStats::default()
        };
        for path in inputs {
            let text = read(path)?;
            let incompatible = |reason: String| MergeError::Incompatible {
                path: path.clone(),
                reason,
            };
            check_header_compatible::<C>(first_line(&text)).map_err(incompatible)?;
            let (file_generation, entries, salvage) = Self::parse_file(&text)
                .ok_or_else(|| incompatible("malformed store content".to_string()))?;
            // A store that needed salvage may have lost records; folding it
            // into a fleet-shared artifact would bake the loss in. Re-save
            // it (`stack store fsck --repair`) first.
            if !salvage.is_clean() {
                return Err(incompatible(format!(
                    "store needs salvage ({} bad line{}); run fsck --repair before merging",
                    salvage.dropped_lines,
                    plural(salvage.dropped_lines, "", "s")
                )));
            }
            stats.generation = stats.generation.max(file_generation);
            stats.entries_in += entries.len() as u64;
            for (key, value, stamp) in entries {
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut slot) => {
                        stats.duplicates += 1;
                        if slot.get().0 != value {
                            return Err(MergeError::Conflict {
                                path: path.clone(),
                                key: C::key_text(slot.key()),
                            });
                        }
                        let kept = &mut slot.get_mut().1;
                        *kept = (*kept).max(stamp);
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert((value, stamp));
                    }
                }
            }
        }
        let compact = compact_after.unwrap_or(0);
        let generation = stats.generation.max(1);
        stats.generation = generation;
        let mut entries: Vec<_> = merged
            .iter()
            .map(|(key, (value, stamp))| (key, value, *stamp))
            .filter(|(_, _, stamp)| compact == 0 || generation - stamp < compact)
            .collect();
        stats.entries_out = entries.len() as u64;
        stats.pruned = stats.entries_in - stats.duplicates - stats.entries_out;
        let text = render::<C>(generation, &mut entries);
        write_atomically(out.as_ref(), &text).map_err(|error| MergeError::Io {
            path: out.as_ref().to_path_buf(),
            error,
        })?;
        Ok(stats)
    }

    /// Read the store file at `path` for debugging: header revisions,
    /// generation, record count, and a last-used-stamp histogram — without
    /// the all-or-nothing discard [`open`](Self::open) applies, so a file
    /// a merge rejected can still be examined. Only the header prefix must
    /// match; a damaged body reports what salvage would keep.
    pub fn inspect(path: impl AsRef<Path>) -> Result<StoreInspection, MergeError> {
        let path = path.as_ref();
        let text = read(path)?;
        let first = first_line(&text);
        let fields =
            header_fields(first, C::HEADER_PREFIX).ok_or_else(|| MergeError::Incompatible {
                path: path.to_path_buf(),
                reason: format!("not a {} file", C::HEADER_PREFIX),
            })?;
        let field = |tag: &str| fields.iter().find(|(t, _)| *t == tag).map(|(_, n)| *n);
        // Formats that predate generations get an unbounded stamp horizon
        // so their bodies still count.
        let (entries, salvage) =
            Self::parse_body(&text, body_start(&text), field("gen").unwrap_or(u64::MAX));
        let mut last_used = BTreeMap::new();
        for (_, _, stamp) in &entries {
            *last_used.entry(*stamp).or_insert(0) += 1;
        }
        Ok(StoreInspection {
            kind: C::KIND,
            revisions: C::REVISIONS.iter().map(|r| (*r, field(r.tag))).collect(),
            generation: field("gen").unwrap_or(0),
            compatible: check_header_compatible::<C>(first).is_ok(),
            malformed: !salvage.is_clean(),
            entries: entries.len() as u64,
            salvageable_prefix: salvage.valid_prefix_entries,
            first_bad_offset: salvage.first_bad_offset,
            dropped_lines: salvage.dropped_lines,
            last_used,
        })
    }

    /// Lookup and size counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.table.stats()
    }

    /// Number of records loaded from disk at [`open`](Self::open).
    pub fn loaded_entries(&self) -> u64 {
        self.loaded
    }

    /// This run's generation: the persisted one plus one (1 for a fresh
    /// store). Every save stamps the header — and every record this run
    /// touched — with it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Set (or clear) the compaction horizon: at [`save`](Self::save),
    /// records whose last-used stamp is `n` or more generations old are
    /// pruned. `None` (the default) keeps everything forever.
    pub fn set_compaction(&self, n: Option<u64>) {
        self.compact_after.store(n.unwrap_or(0), Ordering::Relaxed);
    }

    /// Whether `open` found a file it had to discard (written by a
    /// different format or revision).
    pub fn was_invalidated(&self) -> bool {
        self.invalidated
    }

    /// The damage report when `open` had to drop bad lines from a torn or
    /// corrupted body; `None` when the file loaded clean (or was missing
    /// or invalidated wholesale).
    pub fn salvage(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The header line a file saved at `generation` carries, without the
    /// generation number itself.
    fn header_stem() -> String {
        let mut out = C::HEADER_PREFIX.to_string();
        for Revision { tag, value, .. } in C::REVISIONS {
            let _ = write!(out, " {tag}{value}");
        }
        out.push_str(" gen");
        out
    }

    /// Parse a whole file into its header generation, its verifiable
    /// records, and the salvage report. `None` only when the header does
    /// not match this binary exactly.
    fn parse_file(text: &str) -> Option<(u64, Vec<Record<C>>, SalvageReport)> {
        let generation: u64 = first_line(text)
            .strip_prefix(&Self::header_stem())?
            .parse()
            .ok()?;
        let (entries, salvage) = Self::parse_body(text, body_start(text), generation);
        Some((generation, entries, salvage))
    }

    /// Salvage-parse the records of a body (everything from `body_start`
    /// on): see the module docs for what survives.
    fn parse_body(
        text: &str,
        body_start: usize,
        generation: u64,
    ) -> (Vec<Record<C>>, SalvageReport) {
        let mut entries = Vec::new();
        let mut seen = HashSet::new();
        let mut salvage = SalvageReport::default();
        let mut lines = BodyLines::new(text, body_start).peekable();
        while let Some((line, offset, terminated)) = lines.next() {
            let record = verify_checksummed_line(line)
                .filter(|_| terminated)
                .and_then(|payload| {
                    let (tag, rest) = payload.split_once(' ')?;
                    let (stamp, fields) = rest.split_once(' ')?;
                    let stamp: u64 = stamp.strip_prefix('g')?.parse().ok()?;
                    if stamp > generation {
                        return None;
                    }
                    let mut more = RecordLines { lines: &mut lines };
                    let (key, value) = C::parse_record(tag, fields, &mut more)?;
                    Some((key, value, stamp))
                });
            match record {
                Some((key, value, stamp)) if seen.insert(key.clone()) => {
                    entries.push((key, value, stamp));
                    salvage.entry();
                }
                _ => salvage.bad(offset),
            }
        }
        (entries, salvage)
    }
}

/// Direct access by key. The bound is there only for method resolution:
/// inherent methods shadow trait methods, so an unbounded `lookup`/`insert`
/// would hide the [`QueryStore`](crate::QueryStore) methods every caller of
/// [`DiskQueryStore`](crate::DiskQueryStore) uses (whose key, a `Vec`, is
/// not `Copy`). The scan store's keys are single fingerprints.
impl<C: Codec> RecordStore<C>
where
    C::Key: Copy,
{
    /// Look up the value for `key`, counting a hit or miss. A hit refreshes
    /// the record's last-used stamp to this run's generation.
    pub fn lookup(&self, key: C::Key) -> Option<C::Value> {
        self.table.lookup(&key, self.generation)
    }

    /// Record a value for `key`, stamped with this run's generation. The
    /// first value stored for a key is kept (values for one key are equal
    /// by construction).
    pub fn insert(&self, key: C::Key, value: C::Value) {
        self.table.insert(key, value, self.generation);
    }
}

/// The complete text of a record file: the header at `generation`, then
/// `entries` sorted by key. Byte-deterministic in its inputs.
fn render<C: Codec>(generation: u64, entries: &mut [(&C::Key, &C::Value, u64)]) -> String {
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut out = RecordStore::<C>::header_stem();
    let _ = writeln!(out, "{generation}");
    for &mut (key, value, stamp) in entries {
        C::write_record(
            key,
            value,
            &mut RecordWriter {
                out: &mut out,
                stamp,
            },
        );
    }
    out
}

/// Replace the file at `path` with `text` atomically: write a sibling temp
/// file, then rename it over the target. The temp name appends
/// `.tmp.<pid>` to the full path, so concurrent savers of a shared file
/// never collide and the rename stays within one directory. A failed write
/// or rename removes the temp file again.
fn write_atomically(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn read(path: &Path) -> Result<String, MergeError> {
    std::fs::read_to_string(path).map_err(|error| MergeError::Io {
        path: path.to_path_buf(),
        error,
    })
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

/// Byte offset of the body: just past the header line.
fn body_start(text: &str) -> usize {
    text.lines().next().map_or(0, |l| l.len() + 1)
}

fn plural<'a>(n: u64, one: &'a str, many: &'a str) -> &'a str {
    if n == 1 {
        one
    } else {
        many
    }
}

/// Split a header line like `stack-query-store v4 enc1 gen7` into its
/// tag/number fields (`[("v", 4), ("enc", 1), ("gen", 7)]`). `None` when
/// the prefix is absent or any token is not tag-then-digits.
fn header_fields<'a>(line: &'a str, prefix: &str) -> Option<Vec<(&'a str, u64)>> {
    let rest = line.strip_prefix(prefix)?;
    if !rest.is_empty() && !rest.starts_with(' ') {
        return None;
    }
    let mut fields = Vec::new();
    for token in rest.split_whitespace() {
        let digits = token.find(|c: char| c.is_ascii_digit())?;
        if digits == 0 {
            return None;
        }
        let (tag, number) = token.split_at(digits);
        fields.push((tag, number.parse().ok()?));
    }
    Some(fields)
}

/// Check a header line against the codec's revision fields, returning a
/// found-vs-expected reason on any mismatch. Extra header fields (like
/// `gen`) are ignored.
fn check_header_compatible<C: Codec>(line: &str) -> Result<(), String> {
    let prefix = C::HEADER_PREFIX;
    let fields = header_fields(line, prefix)
        .ok_or_else(|| format!("not a {prefix} file (header `{line}`)"))?;
    for &Revision { tag, value, .. } in C::REVISIONS {
        match fields.iter().find(|(t, _)| *t == tag).map(|(_, n)| *n) {
            Some(n) if n == value => {}
            Some(n) => {
                return Err(format!(
                    "{tag} revision mismatch: file has {tag}{n}, this binary expects {tag}{value}"
                ))
            }
            None => return Err(format!("header `{line}` lacks the {tag} field")),
        }
    }
    Ok(())
}

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) lookup table,
/// computed at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum every record-file line carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Verify one body line's trailing ` !<crc32>` checksum, returning the
/// payload it covers. `None` when the suffix is missing, not 8 hex digits,
/// or does not match — the line cannot be trusted.
pub fn verify_checksummed_line(line: &str) -> Option<&str> {
    let (payload, sum) = line.rsplit_once(" !")?;
    if sum.len() != 8 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let sum = u32::from_str_radix(sum, 16).ok()?;
    (crc32(payload.as_bytes()) == sum).then_some(payload)
}

/// The body lines of a record file, each with its byte offset and whether
/// it was newline-terminated. An unterminated final line is truncation
/// debris — the writer terminates every line — so salvage drops it even
/// when its checksum happens to verify. Empty lines are skipped.
struct BodyLines<'t> {
    text: &'t str,
    pos: usize,
}

impl<'t> BodyLines<'t> {
    fn new(text: &'t str, body_start: usize) -> BodyLines<'t> {
        BodyLines {
            text,
            pos: body_start.min(text.len()),
        }
    }
}

impl<'t> Iterator for BodyLines<'t> {
    type Item = (&'t str, u64, bool);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.text.len() {
            let start = self.pos;
            let end = self.text[start..]
                .find('\n')
                .map_or(self.text.len(), |i| start + i);
            self.pos = end + 1;
            if end > start {
                return Some((&self.text[start..end], start as u64, end < self.text.len()));
            }
        }
        None
    }
}

/// Number of independent shards of a [`Table`]; a power of two keeps
/// contention low on the parallel hot path without bloating the structure.
const SHARDS: usize = 16;

/// A sharded, thread-safe `key → (value, last-used stamp)` table with
/// hit/miss counters: the memory of a [`RecordStore`] and of the
/// in-memory [`QueryCache`](crate::QueryCache). A lookup takes exactly one
/// lock, on the shard that holds both the value and its stamp.
#[derive(Debug)]
pub(crate) struct Table<K, V> {
    shards: [Mutex<HashMap<K, (V, u64)>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicU64,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Hash + Eq, V: Clone> Table<K, V> {
    fn shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, (V, u64)>> {
        // Keys are already well-mixed fingerprints: fold them, FNV-style,
        // a word at a time.
        struct Fold(u64);
        impl Hasher for Fold {
            fn write(&mut self, bytes: &[u8]) {
                for chunk in bytes.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(0x100_0000_01b3);
                }
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        let mut fold = Fold(0xcbf2_9ce4_8422_2325);
        key.hash(&mut fold);
        lock(&self.shards[(fold.finish() as usize) % SHARDS])
    }

    /// The value for `key`, counting a hit or miss; a hit sets the entry's
    /// stamp to `stamp`.
    pub(crate) fn lookup(&self, key: &K, stamp: u64) -> Option<V> {
        let found = self.shard(key).get_mut(key).map(|slot| {
            slot.1 = stamp;
            slot.0.clone()
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store `value` under `key` unless one is already there; either way
    /// the entry's stamp becomes `stamp`.
    pub(crate) fn insert(&self, key: K, value: V, stamp: u64) {
        match self.shard(&key).entry(key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => slot.get_mut().1 = stamp,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert((value, stamp));
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

/// Statistics of one store merge.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeStats {
    /// Input store files read.
    pub inputs: usize,
    /// Records across all inputs (duplicates counted every time they
    /// appear beyond the first).
    pub entries_in: u64,
    /// Records in the merged output.
    pub entries_out: u64,
    /// Input records whose key was already present (value equality was
    /// asserted; stamps took the max).
    pub duplicates: u64,
    /// Records dropped by the compaction horizon.
    pub pruned: u64,
    /// The output header's generation: the max across inputs.
    pub generation: u64,
}

/// Why a store merge (or inspection) failed. Merging is strict where
/// `open` is forgiving: a store that cannot be trusted byte for byte is
/// a loud error, never a silent discard — a fleet-shared cache built from
/// a half-read input would serve wrong answers forever.
#[derive(Debug)]
pub enum MergeError {
    /// Reading an input or writing the output failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
    /// An input was written by a different format or revision, needs
    /// salvage, or is not a store file of this kind at all.
    Incompatible {
        /// The offending input.
        path: PathBuf,
        /// What exactly mismatched, naming found vs. expected.
        reason: String,
    },
    /// Two inputs store different values under the same key — one of them
    /// is corrupt or was produced under different semantics.
    Conflict {
        /// The input whose record disagreed with an earlier one.
        path: PathBuf,
        /// The conflicting key, rendered in the store's line syntax.
        key: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            MergeError::Incompatible { path, reason } => {
                write!(f, "{}: incompatible store: {reason}", path.display())
            }
            MergeError::Conflict { path, key } => write!(
                f,
                "{}: conflicting value for key {key} (inputs disagree; refusing to merge)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// What [`RecordStore::inspect`] reads off a store file without trusting
/// it: the header fields, whether they match the running binary, and a
/// last-used histogram of the records that verify.
#[derive(Clone, Debug)]
pub struct StoreInspection {
    /// The codec's store kind (`"query"` or `"scan"`).
    pub kind: &'static str,
    /// The codec's revision fields, in header order, each with the value
    /// the file's header carries (`None` when the header lacks it).
    pub revisions: Vec<(Revision, Option<u64>)>,
    /// The header's generation (0 for formats that predate generations).
    pub generation: u64,
    /// Whether every header field matches the running binary — i.e.
    /// whether `open` would load this file and `merge` would accept it.
    pub compatible: bool,
    /// Whether any body line failed to checksum or parse under the
    /// current line format (those lines were dropped; the rest counted).
    pub malformed: bool,
    /// Records that checksummed and parsed (salvageable content).
    pub entries: u64,
    /// Records in the intact leading prefix, before the first bad line.
    pub salvageable_prefix: u64,
    /// Byte offset of the first bad line, when `malformed`.
    pub first_bad_offset: Option<u64>,
    /// Body lines dropped as unverifiable.
    pub dropped_lines: u64,
    /// last-used generation stamp → record count.
    pub last_used: BTreeMap<u64, u64>,
}

impl StoreInspection {
    /// Render as the aligned text block `stack store inspect` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} store", self.kind);
        for (revision, found) in &self.revisions {
            let found = found.map_or_else(|| "-".to_string(), |n| n.to_string());
            let _ = writeln!(out, "  {:<16} {found:>8}", revision.label);
        }
        let _ = writeln!(out, "  generation       {:>8}", self.generation);
        let _ = writeln!(
            out,
            "  compatible       {:>8}",
            if self.compatible { "yes" } else { "NO" }
        );
        if self.malformed {
            let _ = writeln!(
                out,
                "  body             {} bad line{} (first at byte offset {})",
                self.dropped_lines,
                plural(self.dropped_lines, "", "s"),
                self.first_bad_offset.unwrap_or(0)
            );
            let _ = writeln!(
                out,
                "  salvageable      {:>8} leading entr{} ({} total)",
                self.salvageable_prefix,
                plural(self.salvageable_prefix, "y", "ies"),
                self.entries
            );
        }
        let _ = writeln!(out, "  entries          {:>8}", self.entries);
        if !self.last_used.is_empty() {
            let _ = writeln!(out, "  last used:");
            for (stamp, count) in &self.last_used {
                let age = self.generation.saturating_sub(*stamp);
                let _ = writeln!(
                    out,
                    "    gen {stamp:>6} ({age:>3} old)  {count:>8} entr{}",
                    plural(*count, "y", "ies")
                );
            }
        }
        out.trim_end().to_string()
    }
}

/// What a salvage pass over a store body recovered and what it dropped.
/// Produced at `open` and by `inspect`; a clean body has zero dropped lines
/// and no first-bad offset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Body lines dropped because a checksum or the line syntax failed to
    /// verify (a failed multi-line record counts its head line here).
    pub dropped_lines: u64,
    /// Byte offset, from the start of the file, of the first bad line.
    pub first_bad_offset: Option<u64>,
    /// Records recovered before the first bad line — the intact leading
    /// prefix a simple truncation leaves behind.
    pub valid_prefix_entries: u64,
    /// Total records recovered (the prefix plus every verifiable record
    /// after the damage).
    pub salvaged_entries: u64,
}

impl SalvageReport {
    /// Whether the body verified in full (nothing was dropped).
    pub fn is_clean(&self) -> bool {
        self.dropped_lines == 0
    }

    fn entry(&mut self) {
        if self.first_bad_offset.is_none() {
            self.valid_prefix_entries += 1;
        }
        self.salvaged_entries += 1;
    }

    fn bad(&mut self, offset: u64) {
        self.dropped_lines += 1;
        if self.first_bad_offset.is_none() {
            self.first_bad_offset = Some(offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_lines_report_offsets_and_termination() {
        let text = "head\nab\n\ncd";
        let lines: Vec<_> = BodyLines::new(text, 5).collect();
        assert_eq!(lines, vec![("ab", 5, true), ("cd", 9, false)]);
        assert_eq!(BodyLines::new(text, 99).count(), 0);
    }
}
