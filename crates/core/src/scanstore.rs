//! The persisted report cache: function replay key → replayable reports.
//!
//! [`ScanStore`] is the second persistence layer of incremental re-scan,
//! sibling to the query-level
//! [`DiskQueryStore`](stack_solver::DiskQueryStore). Where the query store
//! makes a repeated *query* free, the scan store makes a repeated
//! *function* free: a function whose replay key
//! ([`function_replay_key`](crate::fingerprint::function_replay_key)) is
//! already recorded replays its saved raw [`BugReport`]s — in their
//! original discovery order — without issuing a single solver query, and is
//! counted as skipped
//! ([`CheckStats::functions_skipped`](crate::CheckStats)). An edited module
//! therefore pays the solver only for its edited functions; a module whose
//! functions all replay is additionally counted in
//! [`CheckStats::modules_skipped`](crate::CheckStats).
//!
//! **Path normalization.** Replay keys are path-independent, so one record
//! serves the same function under every path — identical vendored files
//! across an archive share one analysis. To make that sound, records are
//! stored *path-normalized*: at insert, every occurrence of the recording
//! module's file name in a report (the `file` field and the `file:line`
//! prefixes of `ub_sources`) is replaced with a reserved placeholder;
//! [`FunctionRecord::replay`] substitutes the scanning module's name back
//! in. Records for one key are thus byte-identical no matter which path
//! recorded them — which is exactly what lets shard scans that saw the
//! same function under different paths merge without conflict.
//!
//! The file discipline — versioned header, per-line checksums and salvage,
//! generations and compaction, atomic saves, merge, inspect — is the
//! generic record file of [`stack_solver::RecordStore`]. The header carries
//! [`FINGERPRINT_REVISION`] besides the format version and
//! [`ENCODING_REVISION`](stack_solver::ENCODING_REVISION); a v3
//! module-keyed store self-invalidates on the version mismatch — that *is*
//! the migration. The replay keys additionally bake both revisions and the
//! semantics-relevant config knobs into their own bits, so even a
//! same-format file can never replay reports computed under different
//! semantics.
//!
//! ## Line syntax
//!
//! ```text
//! stack-scan-store v4 enc1 fpr2 gen3
//! F g<gen> <key> r<reports> !<crc32>
//! R <alg> <line> <cg> <function> <file> <description> u <kind>@<loc> ... !<crc32>
//! ```
//!
//! `F` opens one function record (last-used stamp, replay key in
//! lower-case hex, report count); exactly `r` `R` lines follow, one per
//! raw report in discovery order. A record survives salvage only if all of
//! its lines verify. String fields are percent-escaped so they never
//! contain whitespace, `@`, or `%`; the path placeholder is the
//! (never-graphic) byte `0x01`, escaped as `%01`.

use crate::fingerprint::{FunctionKey, FINGERPRINT_REVISION};
use crate::report::{Algorithm, BugReport, UbSource};
use crate::ubcond::UbKind;
use stack_solver::{Codec, RecordLines, RecordStore, RecordWriter, Revision};
use std::fmt::Write as _;

/// On-disk layout version of the scan-store file. Bump when the syntax
/// changes. (v2 added the header generation and per-record last-used
/// stamps; v3 added the per-line ` !<crc32>` checksum that makes torn or
/// truncated stores salvageable record by record; v4 moved from
/// module-fingerprint entries to per-function replay keys with
/// path-normalized reports. Older files self-invalidate, as any stale
/// cache does.)
pub const SCAN_STORE_FORMAT_VERSION: u32 = 4;

/// The in-record stand-in for the recording module's file name. A control
/// byte, so it can never collide with a real (percent-escaped, graphic)
/// path, and never survives into user-visible reports — replay always
/// substitutes the scanning module's name.
const PATH_PLACEHOLDER: &str = "\u{1}";

/// The replayable record of one analyzed function: its raw (pre-filter)
/// reports in discovery order, path-normalized. Build with
/// [`normalized`](FunctionRecord::normalized), read back with
/// [`replay`](FunctionRecord::replay).
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionRecord {
    /// The function's raw reports with the recording path replaced by the
    /// placeholder. Not user-visible as-is — replay rewrites them.
    pub reports: Vec<BugReport>,
}

impl FunctionRecord {
    /// Normalize a function's freshly computed raw reports for storage:
    /// every mention of `file` (the recording module's name) becomes the
    /// placeholder, so the record is identical no matter which path the
    /// function was analyzed under.
    pub fn normalized(reports: &[BugReport], file: &str) -> FunctionRecord {
        FunctionRecord {
            reports: reports
                .iter()
                .map(|r| rewrite_report_path(r, file, PATH_PLACEHOLDER))
                .collect(),
        }
    }

    /// Reconstitute the raw reports for a replay under `file` (the
    /// scanning module's name): the placeholder is substituted back, so
    /// the replayed stream is byte-identical to what a fresh analysis of
    /// this function in that module would produce.
    pub fn replay(&self, file: &str) -> Vec<BugReport> {
        self.reports
            .iter()
            .map(|r| rewrite_report_path(r, PATH_PLACEHOLDER, file))
            .collect()
    }
}

/// Rewrite every mention of file name `from` in a report to `to`: the
/// report's own `file` field and the `from:`-prefixed `ub_sources`
/// locations. Locations naming *other* files (or no file — unknown
/// origins render as `:0`) pass through untouched.
fn rewrite_report_path(report: &BugReport, from: &str, to: &str) -> BugReport {
    if from.is_empty() {
        return report.clone();
    }
    let mut out = report.clone();
    if out.file == from {
        out.file = to.to_string();
    }
    let prefix = format!("{from}:");
    for src in &mut out.ub_sources {
        if let Some(rest) = src.location.strip_prefix(&prefix) {
            src.location = format!("{to}:{rest}");
        }
    }
    out
}

/// The scan store's record syntax: an `F` line plus one `R` line per
/// report.
#[derive(Debug)]
pub struct ScanCodec;

/// A disk-backed replay-key → function-record table, persisted as a record
/// file. Shared across the scan pipeline's file-level workers through an
/// `Arc`. See the module docs for the line syntax and
/// [`RecordStore`] for the file discipline.
pub type ScanStore = RecordStore<ScanCodec>;

impl Codec for ScanCodec {
    const KIND: &'static str = "scan";
    const HEADER_PREFIX: &'static str = "stack-scan-store";
    const REVISIONS: &'static [Revision] = &[
        Revision {
            tag: "v",
            value: SCAN_STORE_FORMAT_VERSION as u64,
            label: "format version",
            json_key: "format_version",
        },
        Revision {
            tag: "enc",
            value: stack_solver::ENCODING_REVISION as u64,
            label: "encoding rev",
            json_key: "encoding_revision",
        },
        Revision {
            tag: "fpr",
            value: FINGERPRINT_REVISION as u64,
            label: "fingerprint rev",
            json_key: "fingerprint_revision",
        },
    ];
    type Key = FunctionKey;
    type Value = FunctionRecord;

    fn key_text(key: &FunctionKey) -> String {
        format!("{key:032x}")
    }

    fn write_record(key: &FunctionKey, record: &FunctionRecord, out: &mut RecordWriter<'_>) {
        out.head("F", |line| {
            let _ = write!(line, "{key:032x} r{}", record.reports.len());
        });
        for report in &record.reports {
            out.line(|line| write_report(line, report));
        }
    }

    fn parse_record(
        tag: &str,
        fields: &str,
        more: &mut RecordLines<'_, '_>,
    ) -> Option<(FunctionKey, FunctionRecord)> {
        if tag != "F" {
            return None;
        }
        let (key, count) = fields.split_once(' ')?;
        let key = u128::from_str_radix(key, 16).ok()?;
        let count: usize = count.strip_prefix('r')?.parse().ok()?;
        let reports = (0..count)
            .map(|_| more.next_line(parse_report))
            .collect::<Option<_>>()?;
        Some((key, FunctionRecord { reports }))
    }
}

/// Append one report as an `R` line payload.
fn write_report(out: &mut String, report: &BugReport) {
    let _ = write!(
        out,
        "R {} {} {} {} {} {}",
        algorithm_tag(report.algorithm),
        report.line,
        u8::from(report.compiler_generated),
        escape(&report.function),
        escape(&report.file),
        escape(&report.description)
    );
    for src in &report.ub_sources {
        let _ = write!(
            out,
            " u {}@{}",
            src.kind.short_name(),
            escape(&src.location)
        );
    }
}

/// Parse one `R` line back into a report.
fn parse_report(line: &str) -> Option<BugReport> {
    let rest = line.strip_prefix("R ")?;
    let mut parts = rest.split(' ');
    let algorithm = parse_algorithm(parts.next()?)?;
    let line_no: u32 = parts.next()?.parse().ok()?;
    let compiler_generated = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let function = unescape(parts.next()?)?;
    let file = unescape(parts.next()?)?;
    let description = unescape(parts.next()?)?;
    let mut ub_sources = Vec::new();
    while let Some(marker) = parts.next() {
        if marker != "u" {
            return None;
        }
        let (kind_text, loc_text) = parts.next()?.split_once('@')?;
        let kind = parse_ub_kind(kind_text)?;
        ub_sources.push(UbSource {
            kind,
            location: unescape(loc_text)?,
        });
    }
    Some(BugReport {
        function,
        file,
        line: line_no,
        algorithm,
        description,
        ub_sources,
        compiler_generated,
    })
}

/// Stable one-word tag per algorithm (round-tripped by
/// [`parse_algorithm`]).
fn algorithm_tag(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Elimination => "elim",
        Algorithm::SimplifyBoolean => "bool",
        Algorithm::SimplifyAlgebra => "algebra",
    }
}

fn parse_algorithm(tag: &str) -> Option<Algorithm> {
    match tag {
        "elim" => Some(Algorithm::Elimination),
        "bool" => Some(Algorithm::SimplifyBoolean),
        "algebra" => Some(Algorithm::SimplifyAlgebra),
        _ => None,
    }
}

/// Invert [`UbKind::short_name`] (the Figure 9 column labels, already
/// unique).
fn parse_ub_kind(tag: &str) -> Option<UbKind> {
    UbKind::all()
        .iter()
        .copied()
        .find(|k| k.short_name() == tag)
}

/// Percent-escape a string so it never contains whitespace, `@`, or `%`
/// (the characters the line format relies on). The path placeholder byte
/// `0x01` is non-graphic, so it always renders as `%01`.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'%' | b'@' => {
                let _ = write!(out, "%{byte:02x}");
            }
            b if b.is_ascii_graphic() => out.push(b as char),
            b => {
                let _ = write!(out, "%{b:02x}");
            }
        }
    }
    out
}

/// Invert [`escape`]. `None` on malformed escapes or invalid UTF-8.
fn unescape(text: &str) -> Option<String> {
    let mut out = Vec::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    stack_solver::record_store_suite!(ScanCodec {
        save_is_deterministic => save_is_byte_deterministic,
        mismatched_revisions_self_invalidate => mismatched_revision_self_invalidates,
        bad_lines_are_salvaged => bad_records_are_salvaged_not_fatal,
        duplicate_keys_keep_the_first => duplicate_keys_keep_the_first_record,
        truncated_store_salvages_the_intact_prefix => truncated_store_salvages_the_intact_prefix,
        missing_file_is_an_empty_store => missing_file_is_an_empty_store,
        stamps_refresh_on_use => generations_advance_and_stamps_refresh_on_use,
        compaction_prunes_unused_records => compaction_prunes_unused_records,
        merge_unions_records_and_counts_duplicates => merge_unions_entries_and_counts_duplicates,
        merge_with_itself_is_the_identity => merge_with_itself_is_the_identity,
        merge_takes_max_stamps_and_compacts => merge_takes_max_stamps_and_compacts,
        merge_rejects_stores_that_need_salvage => merge_rejects_stores_that_need_salvage,
        failed_merge_leaves_no_temp_file => failed_merge_leaves_no_temp_file,
        inspect_reads_incompatible_headers => inspect_reads_headers_even_when_incompatible,
    });

    #[test]
    fn merge_rejects_incompatible_and_conflicting_inputs_loudly() {
        suite::merge_rejects_incompatible_inputs::<ScanCodec>();
        suite::merge_rejects_conflicting_values::<ScanCodec>();
    }

    impl suite::Fixture for ScanCodec {
        fn key(i: u8) -> FunctionKey {
            u128::from(i) + 1
        }

        /// Value `v` holds `v` reports: 0 is a one-line record.
        fn value(v: u8) -> FunctionRecord {
            record(&(0..u32::from(v)).map(|j| 10 * j + 1).collect::<Vec<_>>())
        }

        fn lookup(store: &ScanStore, key: &FunctionKey) -> Option<FunctionRecord> {
            store.lookup(*key)
        }

        fn insert(store: &ScanStore, key: FunctionKey, value: FunctionRecord) {
            store.insert(key, value);
        }

        fn bad_payloads() -> Vec<&'static str> {
            vec![
                "F 3 r0",         // stamp missing
                "F g2 3 r0",      // stamp beyond the header generation
                "F g1 nothex r0", // bad key
                "F g1 3 r1",      // missing R line
            ]
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "stack-scan-store-{tag}-{}-{}.ss",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_report(line: u32) -> BugReport {
        BugReport {
            function: "tun chr/poll".to_string(), // space + slash exercise escaping
            file: "drivers/net@tun.c".to_string(),
            line,
            algorithm: Algorithm::Elimination,
            description: "code is reachable only by inputs that trigger UB; 100% gone".to_string(),
            ub_sources: vec![
                UbSource {
                    kind: UbKind::NullPointerDereference,
                    location: "tun.c:3".to_string(),
                },
                UbSource {
                    kind: UbKind::SignedIntegerOverflow,
                    location: "tun.c:9".to_string(),
                },
            ],
            compiler_generated: line.is_multiple_of(2),
        }
    }

    fn record(lines: &[u32]) -> FunctionRecord {
        FunctionRecord {
            reports: lines.iter().map(|&l| sample_report(l)).collect(),
        }
    }

    #[test]
    fn roundtrip_preserves_records_and_report_order() {
        let path = temp_path("roundtrip");
        let store = ScanStore::open(&path).unwrap();
        store.insert(7, record(&[5, 2]));
        store.insert(u128::MAX, record(&[]));
        assert_eq!(store.save().unwrap(), 2);

        let reloaded = ScanStore::open(&path).unwrap();
        assert_eq!(reloaded.loaded_entries(), 2);
        assert!(!reloaded.was_invalidated());
        let found = reloaded.lookup(7).expect("record survives");
        assert_eq!(
            found.reports,
            vec![sample_report(5), sample_report(2)],
            "reports replay in their recorded order"
        );
        assert_eq!(reloaded.lookup(u128::MAX).unwrap().reports.len(), 0);
        assert!(reloaded.lookup(8).is_none());
        let stats = reloaded.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn normalization_makes_records_path_independent_and_replay_rewrites() {
        // The same function analyzed under two paths: reports differ only in
        // the file they name.
        let report_under = |file: &str| BugReport {
            function: "f".to_string(),
            file: file.to_string(),
            line: 2,
            algorithm: Algorithm::SimplifyBoolean,
            description: "check always true".to_string(),
            ub_sources: vec![
                UbSource {
                    kind: UbKind::SignedIntegerOverflow,
                    location: format!("{file}:1"),
                },
                UbSource {
                    kind: UbKind::NullPointerDereference,
                    location: "other.c:9".to_string(), // inlined from elsewhere
                },
            ],
            compiler_generated: false,
        };
        let a = FunctionRecord::normalized(&[report_under("a/vendored.c")], "a/vendored.c");
        let b = FunctionRecord::normalized(&[report_under("b/deep/copy.c")], "b/deep/copy.c");
        assert_eq!(a, b, "normalized records must not depend on the path");
        // Replay under a third path reconstructs exactly what a fresh
        // analysis there would report — including the untouched foreign
        // ub-source location.
        assert_eq!(a.replay("c/new.c"), vec![report_under("c/new.c")]);
        // And the normalized form survives a disk roundtrip (the
        // placeholder byte is escaped).
        let path = temp_path("normalized");
        let store = ScanStore::open(&path).unwrap();
        store.insert(1, a.clone());
        store.save().unwrap();
        let reloaded = ScanStore::open(&path).unwrap();
        assert_eq!(reloaded.lookup(1).unwrap(), a);
        std::fs::remove_file(&path).unwrap();
    }

    /// One checksummed body line (payload + valid CRC + newline).
    fn line(payload: &str) -> String {
        format!(
            "{payload} !{:08x}\n",
            stack_solver::crc32(payload.as_bytes())
        )
    }

    #[test]
    fn record_with_bad_report_line_drops_as_a_unit() {
        // The F line verifies but its R line does not: the whole record
        // drops (F counted, then the orphan R line counted on resync) and
        // the following record still loads.
        let path = temp_path("bad-report");
        std::fs::write(
            &path,
            format!(
                "stack-scan-store v{SCAN_STORE_FORMAT_VERSION} enc{} fpr{FINGERPRINT_REVISION} \
                 gen1\n{}{}{}",
                stack_solver::ENCODING_REVISION,
                line("F g1 1 r1"),
                line("R wat 1 0 f g d"),
                line("F g1 2 r0")
            ),
        )
        .unwrap();
        let store = ScanStore::open(&path).unwrap();
        assert!(!store.was_invalidated());
        assert_eq!(store.loaded_entries(), 1);
        assert!(store.lookup(1).is_none());
        assert!(store.lookup(2).is_some());
        let salvage = store.salvage().unwrap();
        assert_eq!(salvage.dropped_lines, 2);
        assert_eq!(salvage.valid_prefix_entries, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn escape_roundtrip() {
        for text in ["plain", "a b@c%d", "héllo\nworld", "", PATH_PLACEHOLDER] {
            assert_eq!(unescape(&escape(text)).as_deref(), Some(text));
        }
        let escaped = escape("a b@c");
        assert!(!escaped.contains(' '));
        assert!(!escaped.contains('@'));
        assert_eq!(escape(PATH_PLACEHOLDER), "%01");
    }
}
