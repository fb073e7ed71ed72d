//! Pluggable query stores: where decided solver answers live between queries
//! — and, for the disk-backed store, between *processes*.
//!
//! The [`QueryStore`] trait abstracts the destination of memoized query
//! results. [`BvSolver`](crate::solver::BvSolver) only ever talks to the
//! trait: on every query it looks the canonical fingerprint key up, and on
//! every decided (never `Unknown`) miss it inserts the result back. Two
//! implementations exist:
//!
//! * [`QueryCache`] — the sharded in-memory table of `cache.rs`, shared
//!   across the parallel checker's worker threads. Dies with the process.
//! * [`DiskQueryStore`] — the same table persisted as a record file
//!   (`record.rs`: versioned header, checksummed lines, salvage,
//!   generations, compaction, atomic saves, merge), so the next process —
//!   the next package of an archive scan, or the next scan of the same
//!   archive entirely — starts warm. This is the §6.5 deployment mode: the
//!   paper's Debian-scale runs re-analyze thousands of packages that
//!   instantiate the same unstable idioms, and a cross-run store turns all
//!   but the first instance into a lookup.
//!
//! ## Line syntax
//!
//! ```text
//! stack-query-store v4 enc1 gen7
//! U g<gen> <fp>,<fp>,... !<crc32>
//! S g<gen> <fp>,<fp>,... !<crc32>
//! ```
//!
//! One line per entry: `U` (UNSAT) or `S` (SAT), the last-used stamp, and
//! the canonical cache key (sorted 128-bit structural fingerprints,
//! lower-case hex, comma-separated).
//!
//! SAT entries persist the decided **fact**, never the witness model. The
//! fact is canonical — structurally identical queries decide identically —
//! but a witness is whatever assignment the search happened to land on: in
//! incremental mode it is extracted from a per-function instance whose
//! variables and phases depend on every query that instance answered
//! before, so two runs (or two shards of a distributed scan) legitimately
//! find different witnesses for the same key. A persisted witness would
//! make store bytes history-dependent, and merge — which insists that
//! duplicate keys carry equal values — would reject honest shard stores.
//! Witnesses therefore stay process-local; a warm `Sat` hit from disk
//! carries an empty model, which no checker algorithm inspects. `Unknown`
//! results are never inserted (a budget exhaustion is a property of the
//! budget, not the formula), so they are never persisted either.

use crate::cache::{CacheKey, CacheStats, QueryCache};
use crate::model::Model;
use crate::record::{Codec, RecordLines, RecordStore, RecordWriter, Revision};
use crate::solver::QueryResult;
use std::fmt::Write as _;

pub use crate::record::verify_checksummed_line;

/// On-disk layout version of the store file. Bump when the file syntax
/// changes. (v2 added the header generation and per-entry last-used
/// stamps; v3 dropped witness models from `S` lines — witnesses are
/// search-history-dependent, and a mergeable artifact must not be; v4
/// added the per-line ` !<crc32>` checksum that makes torn or truncated
/// stores salvageable line by line. Older files self-invalidate, as any
/// stale cache does.)
pub const STORE_FORMAT_VERSION: u32 = 4;

/// Revision of everything a fingerprint's meaning depends on: the term
/// encoding, the structural fingerprint function, and the solver's decided
/// semantics. Bump whenever any of those change observably — persisted
/// entries from a different revision are discarded at `open`, so stale
/// caches self-invalidate instead of serving answers computed under
/// different semantics.
pub const ENCODING_REVISION: u32 = 1;

/// Destination of memoized query results.
///
/// `lookup` returns a previously decided result for a canonical key (and
/// counts a hit or miss); `insert` stores a decided result (`Unknown` must
/// be ignored). Implementations are shared across worker threads through an
/// `Arc`, so both methods take `&self`.
pub trait QueryStore: Send + Sync + std::fmt::Debug {
    /// Look up a decided result for `key`, updating hit/miss counters.
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult>;

    /// Store a decided result. `Unknown` is silently ignored.
    fn insert(&self, key: CacheKey, result: &QueryResult);

    /// Counters accumulated so far.
    fn stats(&self) -> CacheStats;
}

impl QueryStore for QueryCache {
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        QueryCache::lookup(self, key)
    }

    fn insert(&self, key: CacheKey, result: &QueryResult) {
        QueryCache::insert(self, key, result);
    }

    fn stats(&self) -> CacheStats {
        QueryCache::stats(self)
    }
}

/// The query store's record syntax: one `U`/`S` line per decided query.
#[derive(Debug)]
pub struct QueryCodec;

/// A disk-backed query store: fingerprint key → decided result, persisted
/// as a record file. See the module docs for the line syntax and
/// [`RecordStore`] for the file discipline.
pub type DiskQueryStore = RecordStore<QueryCodec>;

impl Codec for QueryCodec {
    const KIND: &'static str = "query";
    const HEADER_PREFIX: &'static str = "stack-query-store";
    const REVISIONS: &'static [Revision] = &[
        Revision {
            tag: "v",
            value: STORE_FORMAT_VERSION as u64,
            label: "format version",
            json_key: "format_version",
        },
        Revision {
            tag: "enc",
            value: ENCODING_REVISION as u64,
            label: "encoding rev",
            json_key: "encoding_revision",
        },
    ];
    type Key = CacheKey;
    type Value = QueryResult;

    fn key_text(key: &CacheKey) -> String {
        let mut out = String::new();
        write_key(&mut out, key);
        out
    }

    /// `Sat` writes the fact alone — witnesses are process-local.
    fn write_record(key: &CacheKey, result: &QueryResult, out: &mut RecordWriter<'_>) {
        let tag = match result {
            QueryResult::Unsat => "U",
            QueryResult::Sat(_) => "S",
            QueryResult::Unknown => unreachable!("Unknown is never stored"),
        };
        out.head(tag, |line| write_key(line, key));
    }

    fn parse_record(
        tag: &str,
        fields: &str,
        _: &mut RecordLines<'_, '_>,
    ) -> Option<(CacheKey, QueryResult)> {
        let result = match tag {
            "U" => QueryResult::Unsat,
            // The empty model is the "witness elided" marker lookups hand
            // back.
            "S" => QueryResult::Sat(Model::new()),
            _ => return None,
        };
        Some((parse_key(fields)?, result))
    }
}

impl QueryStore for DiskQueryStore {
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        self.table.lookup(key, self.generation())
    }

    fn insert(&self, key: CacheKey, result: &QueryResult) {
        if !matches!(result, QueryResult::Unknown) {
            self.table.insert(key, result.clone(), self.generation());
        }
    }

    fn stats(&self) -> CacheStats {
        RecordStore::stats(self)
    }
}

/// Append the canonical text of a cache key: its fingerprints as 32-digit
/// lower-case hex, comma-separated.
fn write_key(out: &mut String, key: &CacheKey) {
    for (i, fp) in key.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{fp:032x}");
    }
}

/// Parse a comma-separated list of 128-bit hex fingerprints.
fn parse_key(text: &str) -> Option<CacheKey> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',')
        .map(|fp| u128::from_str_radix(fp, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    crate::record_store_suite!(QueryCodec {
        save_is_deterministic => save_is_deterministic_within_a_generation,
        mismatched_revisions_self_invalidate => stale_revision_self_invalidates,
        bad_lines_are_salvaged => bad_lines_are_salvaged_not_fatal,
        duplicate_keys_keep_the_first => duplicate_keys_keep_the_first_occurrence,
        truncated_store_salvages_the_intact_prefix => truncated_store_salvages_the_intact_prefix,
        missing_file_is_an_empty_store => missing_file_is_an_empty_store,
        stamps_refresh_on_use => generations_advance_and_stamps_refresh_on_use,
        compaction_prunes_unused_records => compaction_prunes_only_entries_unused_for_n_generations,
        merge_unions_records_and_counts_duplicates => merge_unions_entries_and_counts_duplicates,
        merge_with_itself_is_the_identity => merge_with_itself_is_the_identity,
        merge_takes_max_stamps_and_compacts => merge_takes_max_stamps_and_compacts,
        merge_rejects_incompatible_inputs => merge_rejects_incompatible_inputs_loudly,
        merge_rejects_conflicting_values => merge_rejects_conflicting_values_loudly,
        merge_rejects_stores_that_need_salvage => merge_rejects_stores_that_need_salvage,
        failed_merge_leaves_no_temp_file => failed_merge_leaves_no_temp_file,
        inspect_reads_incompatible_headers => inspect_reads_headers_even_when_incompatible,
    });

    impl suite::Fixture for QueryCodec {
        fn key(i: u8) -> CacheKey {
            // Keys of one and of several fingerprints.
            (0..=u128::from(i % 2))
                .map(|j| u128::from(i) + (j << 100))
                .collect()
        }

        fn value(v: u8) -> QueryResult {
            if v == 1 {
                QueryResult::Sat(Model::new())
            } else {
                QueryResult::Unsat
            }
        }

        fn lookup(store: &DiskQueryStore, key: &CacheKey) -> Option<QueryResult> {
            QueryStore::lookup(store, key)
        }

        fn insert(store: &DiskQueryStore, key: CacheKey, value: QueryResult) {
            QueryStore::insert(store, key, &value);
        }

        fn bad_payloads() -> Vec<&'static str> {
            vec![
                "U g1 not-hex",   // checksums, does not parse
                "S g1 1,2 m x=1", // v2-style witness payload
                "X g1 3",         // unknown entry kind
                "U 4,5",          // missing stamp
                "U g9 6,7",       // stamp from the future
            ]
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stack-store-{tag}-{}.qs", std::process::id()))
    }

    fn sat(pairs: &[(&str, u64)]) -> QueryResult {
        let mut model = Model::new();
        for (name, value) in pairs {
            model.set(name, *value);
        }
        QueryResult::Sat(model)
    }

    #[test]
    fn roundtrip_preserves_facts_and_elides_witnesses() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = DiskQueryStore::open(&path).unwrap();
        store.insert(vec![1, 2, 3], &QueryResult::Unsat);
        store.insert(vec![9], &sat(&[("arg0_x", 42), ("weird name=%,", 7)]));
        store.insert(vec![5, 6], &sat(&[]));
        store.insert(vec![7], &QueryResult::Unknown); // must not persist
        assert_eq!(store.save().unwrap(), 3);

        let reloaded = DiskQueryStore::open(&path).unwrap();
        assert_eq!(reloaded.loaded_entries(), 3);
        assert!(!reloaded.was_invalidated());
        assert!(matches!(
            reloaded.lookup(&vec![1, 2, 3]),
            Some(QueryResult::Unsat)
        ));
        match reloaded.lookup(&vec![9]) {
            Some(QueryResult::Sat(model)) => {
                // The fact survives; the witness is process-local and does
                // not (see the module docs on why it must not).
                assert_eq!(model.len(), 0, "witness models are never persisted");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        assert!(matches!(
            reloaded.lookup(&vec![5, 6]),
            Some(QueryResult::Sat(_))
        ));
        assert!(reloaded.lookup(&vec![7]).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc32_known_answer() {
        // The standard CRC-32 (IEEE) check value.
        assert_eq!(crate::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crate::crc32(b""), 0);
        let line = format!("U g1 2a !{:08x}", crate::crc32(b"U g1 2a"));
        assert_eq!(verify_checksummed_line(&line), Some("U g1 2a"));
        assert_eq!(verify_checksummed_line("U g1 2a !deadbeef"), None);
        assert_eq!(verify_checksummed_line("U g1 2a"), None);
    }

    #[test]
    fn header_fields_parse_and_reject() {
        let path = temp_path("header-fields");
        let inspect = |header: &str| {
            std::fs::write(&path, format!("{header}\n")).unwrap();
            DiskQueryStore::inspect(&path)
        };
        let info = inspect("stack-query-store v2 enc1 gen7").unwrap();
        let found: Vec<_> = info.revisions.iter().map(|(_, n)| *n).collect();
        assert_eq!((found, info.generation), (vec![Some(2), Some(1)], 7));
        assert!(!info.compatible);
        let bare = inspect("stack-query-store").unwrap();
        assert!(bare.revisions.iter().all(|(_, n)| n.is_none()));
        for bad in ["stack-query-storev2", "other v2", "stack-query-store vv"] {
            assert!(inspect(bad).is_err(), "{bad}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn old_format_version_self_invalidates() {
        // A pre-generation (v1) header carries no `gen` field at all.
        let path = temp_path("v1");
        std::fs::write(
            &path,
            format!("stack-query-store v1 enc{ENCODING_REVISION}\nU 1,2\n"),
        )
        .unwrap();
        let store = DiskQueryStore::open(&path).unwrap();
        assert!(store.was_invalidated());
        assert_eq!(store.generation(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
