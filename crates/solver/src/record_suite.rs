//! The shared test suite of the record-file discipline, run against every
//! codec.
//!
//! `record_store_suite!(Codec { suite_test => test_name, ... })`, invoked
//! inside a `#[cfg(test)]` module, defines a `suite` module of generic
//! checks and one `#[test] fn test_name` per listed check running it
//! against `Codec`. The invoking module implements `suite::Fixture` for the
//! codec: numbered keys and values, how to insert one, and payloads of the
//! codec's own syntax that must fail to load. Every check builds its files
//! through the store's public API or from those fixtures, so the same
//! assertions hold the query store and the scan store to one behavior.

/// See the module docs.
#[doc(hidden)]
#[macro_export]
macro_rules! record_store_suite {
    ($codec:ty { $($check:ident => $test:ident),* $(,)? }) => {
        $(
            #[test]
            fn $test() {
                suite::$check::<$codec>();
            }
        )*

        mod suite {
            use $crate::{Codec, MergeError, RecordStore, Revision};
            use std::collections::BTreeMap;
            use std::path::PathBuf;
            use std::sync::atomic::{AtomicU64, Ordering};

            /// How the suite builds records of one codec.
            pub(super) trait Fixture: Codec + Sized {
                /// Key number `i`; keys ascend with `i`.
                fn key(i: u8) -> Self::Key;
                /// Value number `v`; values 0, 1 and 2 differ, and value 0
                /// is written as a one-line record.
                fn value(v: u8) -> Self::Value;
                /// Look `key` up in `store`.
                fn lookup(store: &RecordStore<Self>, key: &Self::Key) -> Option<Self::Value>;
                /// Insert `value` under `key` into `store`.
                fn insert(store: &RecordStore<Self>, key: Self::Key, value: Self::Value);
                /// Payloads in this codec's syntax that checksum but must
                /// not load (each one bad line between two good records at
                /// generation 1).
                fn bad_payloads() -> Vec<&'static str>;
            }

            fn temp_path<F: Fixture>(tag: &str) -> PathBuf {
                static UNIQUE: AtomicU64 = AtomicU64::new(0);
                std::env::temp_dir().join(format!(
                    "stack-{}-store-{tag}-{}-{}",
                    F::KIND,
                    std::process::id(),
                    UNIQUE.fetch_add(1, Ordering::Relaxed)
                ))
            }

            fn read(path: &PathBuf) -> String {
                std::fs::read_to_string(path).unwrap()
            }

            /// One checksummed body line.
            fn line(payload: &str) -> String {
                format!("{payload} !{:08x}\n", $crate::crc32(payload.as_bytes()))
            }

            /// The header line (with its newline) of a compatible file at
            /// `generation`, with revision field `bump.0` offset by `bump.1`.
            fn header_with<F: Fixture>(generation: u64, bump: (usize, i64)) -> String {
                let mut out = F::HEADER_PREFIX.to_string();
                for (i, Revision { tag, value, .. }) in F::REVISIONS.iter().enumerate() {
                    let value = if i == bump.0 {
                        value.saturating_add_signed(bump.1)
                    } else {
                        *value
                    };
                    out.push_str(&format!(" {tag}{value}"));
                }
                format!("{out} gen{generation}\n")
            }

            fn header<F: Fixture>(generation: u64) -> String {
                header_with::<F>(generation, (0, 0))
            }

            /// A header whose last revision field is one ahead of this
            /// binary's, and the `tag<n>` text naming that field.
            fn future_header<F: Fixture>(generation: u64) -> (String, String) {
                let last = F::REVISIONS.len() - 1;
                let Revision { tag, value, .. } = F::REVISIONS[last];
                (header_with::<F>(generation, (last, 1)), format!("{tag}{}", value + 1))
            }

            fn put<F: Fixture>(store: &RecordStore<F>, i: u8, v: u8) {
                F::insert(store, F::key(i), F::value(v));
            }

            /// A store file at a fresh path holding records `(i, v)`,
            /// saved at generation 1.
            fn store_with<F: Fixture>(tag: &str, records: &[(u8, u8)]) -> PathBuf {
                let path = temp_path::<F>(tag);
                let store = RecordStore::<F>::open(&path).unwrap();
                for &(i, v) in records {
                    put(&store, i, v);
                }
                store.save().unwrap();
                path
            }

            /// The lines of record `(i, v)` as saved, last used at `stamp`.
            fn record_text<F: Fixture>(i: u8, v: u8, stamp: u64) -> String {
                let path = store_with::<F>("record", &[(i, v)]);
                let text = read(&path);
                std::fs::remove_file(&path).unwrap();
                let mut lines = text.lines().skip(1);
                let head = lines.next().unwrap().rsplit_once(" !").unwrap().0;
                let mut out = line(&head.replacen(" g1 ", &format!(" g{stamp} "), 1));
                for rest in lines {
                    out.push_str(rest);
                    out.push('\n');
                }
                out
            }

            fn write(path: &PathBuf, parts: &[&str]) {
                std::fs::write(path, parts.concat()).unwrap();
            }

            pub(super) fn save_is_deterministic<F: Fixture>() {
                let path = temp_path::<F>("deterministic");
                let store = RecordStore::<F>::open(&path).unwrap();
                for (i, v) in [(2, 0), (0, 1), (1, 2)] {
                    put(&store, i, v);
                }
                assert_eq!(store.save().unwrap(), 3);
                let first = read(&path);
                // Saving the same store again (same run, same generation)
                // is byte-identical.
                store.save().unwrap();
                assert_eq!(first, read(&path));
                // A re-open starts the next generation: an untouched store
                // differs from the previous file only in the header.
                let reloaded = RecordStore::<F>::open(&path).unwrap();
                assert_eq!(reloaded.generation(), store.generation() + 1);
                reloaded.save().unwrap();
                let third = read(&path);
                assert_eq!(first.split_once('\n').unwrap().1, third.split_once('\n').unwrap().1);
                assert!(third.starts_with(&header::<F>(2)), "{third}");
                std::fs::remove_file(&path).unwrap();
            }

            pub(super) fn mismatched_revisions_self_invalidate<F: Fixture>() {
                for field in 0..F::REVISIONS.len() {
                    for delta in [-1, 1] {
                        let path = temp_path::<F>("stale");
                        let stale = header_with::<F>(1, (field, delta));
                        write(&path, &[&stale, &record_text::<F>(0, 0, 1)]);
                        let store = RecordStore::<F>::open(&path).unwrap();
                        assert!(store.was_invalidated(), "{stale}");
                        assert_eq!(store.loaded_entries(), 0);
                        assert_eq!(store.generation(), 1);
                        assert!(F::lookup(&store, &F::key(0)).is_none());
                        std::fs::remove_file(&path).unwrap();
                    }
                }
            }

            pub(super) fn bad_lines_are_salvaged<F: Fixture>() {
                let good = record_text::<F>(2, 0, 1);
                let mut bad: Vec<String> = F::bad_payloads().into_iter().map(line).collect();
                bad.push("garbage\n".to_string());
                // A truncated checksum.
                bad.push(format!("{}\n", &good[..good.len() - 2]));
                let (before, after) = (record_text::<F>(0, 1, 1), record_text::<F>(1, 2, 1));
                for bad in bad {
                    let path = temp_path::<F>("salvage");
                    write(&path, &[&header::<F>(1), &before, &bad, &after]);
                    let store = RecordStore::<F>::open(&path).unwrap();
                    assert!(!store.was_invalidated(), "bad line {bad:?}");
                    assert_eq!(store.loaded_entries(), 2, "bad line {bad:?}");
                    assert_eq!(F::lookup(&store, &F::key(0)), Some(F::value(1)));
                    assert_eq!(F::lookup(&store, &F::key(1)), Some(F::value(2)));
                    let salvage = *store.salvage().expect("damage must be reported");
                    assert_eq!(salvage.dropped_lines, 1, "bad line {bad:?}");
                    assert_eq!(salvage.valid_prefix_entries, 1);
                    assert_eq!(salvage.salvaged_entries, 2);
                    assert_eq!(
                        salvage.first_bad_offset,
                        Some((header::<F>(1).len() + before.len()) as u64),
                        "bad line {bad:?}"
                    );
                    // A save rewrites the file canonically; the re-open is
                    // clean.
                    store.save().unwrap();
                    let healed = RecordStore::<F>::open(&path).unwrap();
                    assert_eq!(healed.loaded_entries(), 2);
                    assert!(healed.salvage().is_none());
                    std::fs::remove_file(&path).unwrap();
                }
            }

            /// A torn write that splices two file versions can duplicate a
            /// key; salvage keeps the first record and drops the second.
            pub(super) fn duplicate_keys_keep_the_first<F: Fixture>() {
                let path = temp_path::<F>("dup");
                write(
                    &path,
                    &[
                        &header::<F>(3),
                        &record_text::<F>(0, 2, 3),
                        &record_text::<F>(0, 0, 1),
                        &record_text::<F>(1, 1, 2),
                    ],
                );
                let store = RecordStore::<F>::open(&path).unwrap();
                assert!(!store.was_invalidated());
                assert_eq!(store.loaded_entries(), 2);
                assert_eq!(F::lookup(&store, &F::key(0)), Some(F::value(2)), "first record wins");
                assert_eq!(store.salvage().unwrap().dropped_lines, 1);
                std::fs::remove_file(&path).unwrap();
            }

            pub(super) fn truncated_store_salvages_the_intact_prefix<F: Fixture>() {
                let path = store_with::<F>("truncate", &[(0, 0), (1, 1), (2, 2)]);
                let full = std::fs::read(&path).unwrap();
                let header_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
                // Cut mid-way through the last line: the last record drops,
                // the first two survive.
                std::fs::write(&path, &full[..full.len() - 3]).unwrap();
                let store = RecordStore::<F>::open(&path).unwrap();
                assert!(!store.was_invalidated());
                assert_eq!(store.loaded_entries(), 2);
                assert!(F::lookup(&store, &F::key(1)).is_some());
                assert!(F::lookup(&store, &F::key(2)).is_none());
                let salvage = store.salvage().unwrap();
                assert!(salvage.dropped_lines >= 1);
                assert_eq!(salvage.valid_prefix_entries, 2);
                assert!(salvage.first_bad_offset.unwrap() >= header_len as u64);
                std::fs::remove_file(&path).unwrap();
            }

            pub(super) fn missing_file_is_an_empty_store<F: Fixture>() {
                let store = RecordStore::<F>::open(temp_path::<F>("missing")).unwrap();
                assert_eq!(store.loaded_entries(), 0);
                assert_eq!(store.generation(), 1);
                assert!(!store.was_invalidated());
                assert_eq!(store.stats().entries, 0);
            }

            pub(super) fn stamps_refresh_on_use<F: Fixture>() {
                let path = store_with::<F>("generations", &[(0, 0), (1, 1)]);
                // Generation 2 touches only key 0.
                let store = RecordStore::<F>::open(&path).unwrap();
                assert_eq!(store.generation(), 2);
                assert!(F::lookup(&store, &F::key(0)).is_some());
                assert!(F::lookup(&store, &F::key(5)).is_none());
                let stats = store.stats();
                assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 2));
                store.save().unwrap();
                let info = RecordStore::<F>::inspect(&path).unwrap();
                assert_eq!(info.generation, 2);
                assert_eq!(info.last_used, BTreeMap::from([(1, 1), (2, 1)]));
                std::fs::remove_file(&path).unwrap();
            }

            pub(super) fn compaction_prunes_unused_records<F: Fixture>() {
                let path = store_with::<F>("compaction", &[(0, 0), (1, 1)]);
                // Generations 2 and 3 only ever look up key 0.
                for generation in [2, 3] {
                    let store = RecordStore::<F>::open(&path).unwrap();
                    assert_eq!(store.generation(), generation);
                    assert!(F::lookup(&store, &F::key(0)).is_some());
                    store.save().unwrap();
                }
                // Generation 4, horizon 2: key 1 was last used at generation
                // 1 and is pruned; key 0 (used at 3) survives, as does a
                // fresh insert.
                let store = RecordStore::<F>::open(&path).unwrap();
                store.set_compaction(Some(2));
                put(&store, 2, 2);
                assert_eq!(store.save().unwrap(), 2);
                let reloaded = RecordStore::<F>::open(&path).unwrap();
                assert_eq!(reloaded.loaded_entries(), 2);
                assert!(F::lookup(&reloaded, &F::key(0)).is_some());
                assert!(F::lookup(&reloaded, &F::key(2)).is_some());
                assert!(F::lookup(&reloaded, &F::key(1)).is_none(), "aged-out record pruned");
                std::fs::remove_file(&path).unwrap();
            }

            pub(super) fn merge_unions_records_and_counts_duplicates<F: Fixture>() {
                let a = store_with::<F>("merge-a", &[(0, 0), (1, 1)]);
                let b = store_with::<F>("merge-b", &[(1, 1), (2, 2)]);
                let out = temp_path::<F>("merge-out");
                let stats = RecordStore::<F>::merge(&out, &[a.clone(), b.clone()], None).unwrap();
                assert_eq!(stats.inputs, 2);
                assert_eq!(stats.entries_in, 4);
                assert_eq!(stats.entries_out, 3);
                assert_eq!(stats.duplicates, 1);
                assert_eq!(stats.pruned, 0);
                // Fan-in must not depend on the order inputs arrive in.
                let reversed = temp_path::<F>("merge-out-rev");
                RecordStore::<F>::merge(&reversed, &[b.clone(), a.clone()], None).unwrap();
                assert_eq!(read(&out), read(&reversed), "merge(a, b) == merge(b, a)");
                let merged = RecordStore::<F>::open(&out).unwrap();
                assert!(!merged.was_invalidated());
                assert_eq!(merged.loaded_entries(), 3);
                for i in 0..3 {
                    assert_eq!(F::lookup(&merged, &F::key(i)), Some(F::value(i)));
                }
                for path in [a, b, out, reversed] {
                    std::fs::remove_file(path).unwrap();
                }
            }

            pub(super) fn merge_with_itself_is_the_identity<F: Fixture>() {
                let a = store_with::<F>("merge-self", &[(1, 2), (0, 1)]);
                let out = temp_path::<F>("merge-self-out");
                RecordStore::<F>::merge(&out, &[a.clone(), a.clone()], None).unwrap();
                assert_eq!(read(&a), read(&out), "merge(a, a) must reproduce a");
                std::fs::remove_file(&a).unwrap();
                std::fs::remove_file(&out).unwrap();
            }

            pub(super) fn merge_takes_max_stamps_and_compacts<F: Fixture>() {
                // `a` at generation 3: key 0 used at 3, key 1 at 1. `b` at
                // generation 2: key 0 used at 2.
                let a = temp_path::<F>("merge-stamps-a");
                write(
                    &a,
                    &[&header::<F>(3), &record_text::<F>(0, 0, 3), &record_text::<F>(1, 1, 1)],
                );
                let b = temp_path::<F>("merge-stamps-b");
                write(&b, &[&header::<F>(2), &record_text::<F>(0, 0, 2)]);
                let out = temp_path::<F>("merge-stamps-out");
                let stats =
                    RecordStore::<F>::merge(&out, &[b.clone(), a.clone()], Some(2)).unwrap();
                assert_eq!(stats.generation, 3, "output generation is the max input's");
                assert_eq!(stats.entries_out, 1, "key 1 fell behind the horizon");
                assert_eq!(stats.pruned, 1);
                let info = RecordStore::<F>::inspect(&out).unwrap();
                assert_eq!(info.last_used, BTreeMap::from([(3, 1)]), "stamps take the max");
                for path in [a, b, out] {
                    std::fs::remove_file(path).unwrap();
                }
            }

            pub(super) fn merge_rejects_incompatible_inputs<F: Fixture>() {
                let good = store_with::<F>("merge-good", &[(0, 0)]);
                let stale = temp_path::<F>("merge-stale");
                let (future, found) = future_header::<F>(1);
                write(&stale, &[&future, &record_text::<F>(1, 1, 1)]);
                let out = temp_path::<F>("merge-stale-out");
                match RecordStore::<F>::merge(&out, &[good.clone(), stale.clone()], None) {
                    Err(MergeError::Incompatible { path, reason }) => {
                        assert_eq!(path, stale);
                        assert!(reason.contains(&found), "reason names the mismatch: {reason}");
                    }
                    other => panic!("expected Incompatible, got {other:?}"),
                }
                assert!(!out.exists(), "a failed merge writes nothing");
                for path in [good, stale] {
                    std::fs::remove_file(path).unwrap();
                }
            }

            /// The same key carrying different values in two inputs means
            /// one of them is corrupt (values are canonical per key).
            pub(super) fn merge_rejects_conflicting_values<F: Fixture>() {
                let a = store_with::<F>("merge-conflict-a", &[(0, 0)]);
                let b = store_with::<F>("merge-conflict-b", &[(0, 1)]);
                let out = temp_path::<F>("merge-conflict-out");
                match RecordStore::<F>::merge(&out, &[a.clone(), b.clone()], None) {
                    Err(MergeError::Conflict { path, key }) => {
                        assert_eq!(path, b);
                        assert_eq!(key, F::key_text(&F::key(0)));
                    }
                    other => panic!("expected Conflict, got {other:?}"),
                }
                assert!(!out.exists());
                for path in [a, b] {
                    std::fs::remove_file(path).unwrap();
                }
            }

            pub(super) fn merge_rejects_stores_that_need_salvage<F: Fixture>() {
                let good = store_with::<F>("merge-salvage-good", &[(0, 0)]);
                let torn = temp_path::<F>("merge-salvage-torn");
                write(&torn, &[&header::<F>(1), &record_text::<F>(1, 1, 1), "garbage\n"]);
                let out = temp_path::<F>("merge-salvage-out");
                match RecordStore::<F>::merge(&out, &[good.clone(), torn.clone()], None) {
                    Err(MergeError::Incompatible { path, reason }) => {
                        assert_eq!(path, torn);
                        assert!(reason.contains("salvage"), "{reason}");
                    }
                    other => panic!("expected Incompatible, got {other:?}"),
                }
                assert!(!out.exists());
                for path in [good, torn] {
                    std::fs::remove_file(path).unwrap();
                }
            }

            /// A write that fails — here the rename onto an existing,
            /// non-empty directory — must not leave its temp file behind.
            pub(super) fn failed_merge_leaves_no_temp_file<F: Fixture>() {
                let input = store_with::<F>("merge-dir-in", &[(0, 0)]);
                let dir = temp_path::<F>("merge-dir-out");
                std::fs::create_dir(&dir).unwrap();
                std::fs::write(dir.join("occupant"), "x").unwrap();
                let result = RecordStore::<F>::merge(&dir, std::slice::from_ref(&input), None);
                assert!(matches!(result, Err(MergeError::Io { .. })), "{result:?}");
                let name = dir.file_name().unwrap().to_str().unwrap().to_string();
                let leaked: Vec<_> = std::fs::read_dir(dir.parent().unwrap())
                    .unwrap()
                    .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
                    .filter(|sibling| sibling.starts_with(&format!("{name}.tmp.")))
                    .collect();
                assert!(leaked.is_empty(), "temp files left behind: {leaked:?}");
                std::fs::remove_dir_all(&dir).unwrap();
                std::fs::remove_file(&input).unwrap();
            }

            pub(super) fn inspect_reads_incompatible_headers<F: Fixture>() {
                let path = store_with::<F>("inspect", &[(0, 0), (1, 1)]);
                let info = RecordStore::<F>::inspect(&path).unwrap();
                assert_eq!(info.kind, F::KIND);
                assert_eq!(info.revisions[0], (F::REVISIONS[0], Some(F::REVISIONS[0].value)));
                assert_eq!(info.generation, 1);
                assert!(info.compatible);
                assert!(!info.malformed);
                assert_eq!(info.entries, 2);
                assert_eq!(info.last_used, BTreeMap::from([(1, 2)]));
                assert!(info.render().contains("entries"));

                // A future revision of any one field: open and merge reject
                // it, inspect still reports the file's own revisions.
                for bumped in 0..F::REVISIONS.len() {
                    write(&path, &[&header_with::<F>(4, (bumped, 9))]);
                    let info = RecordStore::<F>::inspect(&path).unwrap();
                    let found: Vec<u64> = info.revisions.iter().filter_map(|(_, n)| *n).collect();
                    let want: Vec<u64> = F::REVISIONS
                        .iter()
                        .enumerate()
                        .map(|(i, r)| if i == bumped { r.value + 9 } else { r.value })
                        .collect();
                    assert_eq!(found, want, "header field {bumped} reads back");
                    assert!(!info.compatible);
                    assert!(info.render().contains(&(want[bumped]).to_string()));
                }

                // ...and counts the records under the same line syntax.
                let (future, _) = future_header::<F>(4);
                write(&path, &[&future, &record_text::<F>(0, 0, 2), &record_text::<F>(1, 1, 4)]);
                let info = RecordStore::<F>::inspect(&path).unwrap();
                assert!(!info.compatible);
                assert_eq!(info.generation, 4);
                assert!(!info.malformed, "same line syntax still counts records");
                assert_eq!(info.entries, 2);
                assert_eq!(info.last_used, BTreeMap::from([(2, 1), (4, 1)]));
                assert!(info.render().contains("NO"), "{}", info.render());

                // A torn body: inspect reports the salvageable prefix and the
                // byte offset of the first bad line.
                let first = record_text::<F>(0, 0, 1);
                write(&path, &[&header::<F>(2), &first, "corrupt\n", &record_text::<F>(1, 1, 2)]);
                let info = RecordStore::<F>::inspect(&path).unwrap();
                assert!(info.compatible);
                assert!(info.malformed);
                assert_eq!(info.entries, 2);
                assert_eq!(info.salvageable_prefix, 1);
                assert_eq!(info.dropped_lines, 1);
                assert_eq!(
                    info.first_bad_offset,
                    Some((header::<F>(2).len() + first.len()) as u64)
                );
                let rendered = info.render();
                assert!(rendered.contains("1 bad line"), "{rendered}");
                assert!(rendered.contains("salvageable"), "{rendered}");

                // Not a store of this kind at all: a loud error.
                std::fs::write(&path, "something else\n").unwrap();
                assert!(matches!(
                    RecordStore::<F>::inspect(&path),
                    Err(MergeError::Incompatible { .. })
                ));
                std::fs::remove_file(&path).unwrap();
            }
        }
    };
}
