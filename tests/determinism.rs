//! Determinism of the scan pipeline, the checker's one scheduler: scanning
//! the synthetic corpus four files at a time must produce exactly the same
//! bug reports as a one-file-at-a-time scan, with and without the query
//! cache. The pipeline emits results in task order through its reorder
//! buffer, so even the raw report order must coincide; the assertions
//! below compare origin-sorted sets first (the contract) and the raw order
//! second (the implementation guarantee). The same contract covers the
//! solver's granularity and SAT-core counters, a panicking module, sharded
//! scans, and *processes*: a warm run that answers its queries from a
//! disk-backed store must produce byte-identical reports to the cold run
//! that populated it.

use stack_repro::core::{
    AnalysisSession, CheckerConfig, ScanEvent, ScanPipeline, ScanSource, ScanStore, ScanTask,
};
use stack_repro::corpus::{churn_archive, generate, generate_archive, ArchiveConfig, SynthConfig};
use stack_repro::solver::DiskQueryStore;
use std::sync::Arc;

/// Scan the synthetic corpus `width` files at a time. Renders every report
/// as a stable string (Debug covers function, file, line, algorithm,
/// description, and the minimal UB set), next to the run's total solver
/// queries.
fn run(width: usize, query_cache: bool) -> (Vec<String>, u64) {
    let synth = SynthConfig {
        packages: 6,
        seed: 2024,
        ..SynthConfig::default()
    };
    let tasks: Vec<ScanTask> = generate(&synth)
        .into_iter()
        .flat_map(|pkg| pkg.files)
        .map(|file| ScanTask {
            name: file.name,
            source: ScanSource::Inline(file.source),
        })
        .collect();
    let session = AnalysisSession::new(CheckerConfig {
        threads: Some(width),
        query_cache,
        ..CheckerConfig::default()
    });
    let mut out = Vec::new();
    let outcome = ScanPipeline::new(&session).run(&tasks, &mut |event| match event {
        ScanEvent::Report(r) => out.push(format!("{r:?}")),
        ScanEvent::Failure { name, error } => panic!("{name} must compile: {error}"),
    });
    assert_eq!(outcome.failures, 0);
    (out, session.stats().queries)
}

/// Origin-sorted copy (file, line, then the rest of the rendering).
fn sorted(mut reports: Vec<String>) -> Vec<String> {
    reports.sort();
    reports
}

#[test]
fn parallel_and_sequential_runs_agree() {
    let (sequential, sequential_queries) = run(1, true);
    assert!(
        !sequential.is_empty(),
        "the synthetic corpus must produce reports"
    );
    let (parallel, parallel_queries) = run(4, true);
    assert_eq!(
        sorted(sequential.clone()),
        sorted(parallel.clone()),
        "report sets must match"
    );
    assert_eq!(sequential, parallel, "report order must match too");
    assert_eq!(sequential_queries, parallel_queries);
}

#[test]
fn cache_does_not_change_reports() {
    let (cached, cached_queries) = run(4, true);
    let (uncached, uncached_queries) = run(4, false);
    assert_eq!(sorted(cached), sorted(uncached));
    // The cache answers queries; it never skips one.
    assert_eq!(cached_queries, uncached_queries);
}

/// The SAT-core work counters of one scan: queries, propagations,
/// conflicts, learned clauses. They are the deterministic currency of
/// solver work, so they must not depend on the pipeline width.
type SatCounters = [u64; 4];

/// The SAT-core work counters of a session's aggregate statistics, after
/// checking that nothing was a cache hit (there is no query store) and
/// that only incremental runs answered on persistent per-function
/// instances, reusing the clauses they already loaded.
fn sat_counters(session: &AnalysisSession, incremental: bool) -> SatCounters {
    let stats = session.stats();
    assert_eq!(stats.cache_hits, 0, "{stats:?}");
    assert_eq!(stats.incremental_queries > 0, incremental, "{stats:?}");
    assert_eq!(stats.reused_clauses > 0, incremental, "{stats:?}");
    [
        stats.queries,
        stats.propagations,
        stats.conflicts,
        stats.learned_clauses,
    ]
}

/// Scan a seeded six-package archive without the query cache, so every
/// query reaches the solver: its report stream and SAT-core counters.
///
/// Every module goes through one check whichever way it is driven, so the
/// pipeline without a scan store, the pipeline over an empty scan store
/// (a cold scan: every lookup misses), and a per-file `check_source` loop
/// must all produce the same report stream and the same counters.
/// Uncached counters do not depend on scheduling, so this holds at every
/// width.
fn uncached_archive_reports(
    seed: u64,
    incremental: bool,
    jobs: usize,
) -> (Vec<String>, SatCounters) {
    let archive_cfg = ArchiveConfig {
        packages: 6,
        seed,
        ..ArchiveConfig::default()
    };
    let files = generate_archive(&archive_cfg);
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let config = CheckerConfig {
        threads: Some(jobs),
        query_cache: false,
        incremental,
        ..CheckerConfig::default()
    };
    let scan = |scan_store: Option<Arc<ScanStore>>| {
        let session = AnalysisSession::new(config);
        let mut pipeline = ScanPipeline::new(&session);
        if let Some(store) = scan_store {
            pipeline = pipeline.with_scan_store(store);
        }
        let mut reports = Vec::new();
        pipeline.run(&tasks, &mut |event| {
            if let ScanEvent::Report(r) = event {
                reports.push(format!("{r:?}"));
            }
        });
        (reports, sat_counters(&session, incremental))
    };

    let no_store = scan(None);
    // Opened but never saved, so nothing is written.
    let empty_store = std::env::temp_dir().join(format!(
        "stack-determinism-uncached-{}-{seed:x}-{incremental}-{jobs}.ss",
        std::process::id()
    ));
    let cold = scan(Some(Arc::new(
        ScanStore::open(&empty_store).expect("open scan store"),
    )));
    assert!(!empty_store.exists());
    assert_eq!(no_store, cold, "no scan store vs a cold one (jobs={jobs})");

    let session = AnalysisSession::new(config);
    let mut per_file = Vec::new();
    for file in &files {
        let result = session
            .check_source(&file.source, &file.name)
            .expect("archive files compile");
        per_file.extend(result.reports.iter().map(|r| format!("{r:?}")));
    }
    assert_eq!(
        no_store,
        (per_file, sat_counters(&session, incremental)),
        "pipeline vs per-file check_source (jobs={jobs})"
    );
    no_store
}

/// The solver-granularity contract: with every query decided (no budget),
/// one incremental instance per function and a fresh solver per query may
/// do different amounts of work, but never return different verdicts. The
/// report stream must be byte-identical across that choice at every
/// pipeline width, compared against the incremental sequential reference,
/// and so must the query count; each granularity's SAT-core counters must
/// be identical at every width.
#[test]
fn solver_granularity_does_not_change_reports() {
    let reference = uncached_archive_reports(0x50AC, true, 1);
    assert!(!reference.0.is_empty(), "the archive must produce reports");
    let [_, propagations, conflicts, _] = reference.1;
    assert!(
        propagations > 0 && conflicts > 0,
        "the solver must do real work"
    );
    assert_eq!(
        reference,
        uncached_archive_reports(0x50AC, true, 4),
        "incremental jobs=4"
    );
    let fresh = uncached_archive_reports(0x50AC, false, 1);
    assert_eq!(reference.0, fresh.0, "fresh solver per query, jobs=1");
    assert_eq!(
        reference.1[0], fresh.1[0],
        "granularity never changes the queries"
    );
    assert_eq!(
        fresh,
        uncached_archive_reports(0x50AC, false, 4),
        "fresh solver per query, jobs=4"
    );
}

/// The SAT-core work contract: every verdict comes out of the CDCL search
/// of the instance that asked, and each module's instances see the same
/// queries whichever worker checks it. So the report stream and the
/// SAT-core counters (queries, propagations, conflicts, learned clauses)
/// must be identical at every pipeline width, compared against the
/// sequential reference.
#[test]
fn sat_core_counters_do_not_depend_on_pipeline_width() {
    let reference = uncached_archive_reports(0xC0DE, true, 1);
    assert!(!reference.0.is_empty(), "the archive must produce reports");
    for jobs in [2, 4] {
        assert_eq!(
            reference,
            uncached_archive_reports(0xC0DE, true, jobs),
            "jobs={jobs}"
        );
    }
}

/// One archive pass through a session backed by the given cache file:
/// every report rendered in order, plus the session's aggregate stats.
fn archive_run(path: &std::path::Path) -> (Vec<String>, stack_repro::core::CheckStats) {
    let archive_cfg = ArchiveConfig {
        packages: 8,
        seed: 0xD15C,
        ..ArchiveConfig::default()
    };
    let store = Arc::new(DiskQueryStore::open(path).expect("open cache file"));
    let session = AnalysisSession::with_store(CheckerConfig::default(), store.clone() as _);
    let mut reports = Vec::new();
    for file in generate_archive(&archive_cfg) {
        let result = session
            .check_source(&file.source, &file.name)
            .expect("archive files compile");
        reports.extend(result.reports.iter().map(|r| format!("{r:?}")));
    }
    store.save().expect("save cache file");
    (reports, session.stats())
}

#[test]
fn warm_disk_store_run_matches_cold_run() {
    let path =
        std::env::temp_dir().join(format!("stack-determinism-warm-{}.qs", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (cold_reports, cold_stats) = archive_run(&path);
    assert!(
        !cold_reports.is_empty(),
        "the archive population must produce reports"
    );
    let (warm_reports, warm_stats) = archive_run(&path);

    // Byte-identical reports, in identical order: answering from the disk
    // store must be indistinguishable from recomputing.
    assert_eq!(cold_reports, warm_reports);
    assert_eq!(cold_stats.queries, warm_stats.queries);

    // The warm run answers at least 90% of its store lookups from disk —
    // here all of them, since every decided query of the cold run was
    // persisted and the archive produces no budget-exhausted queries.
    assert_eq!(warm_stats.cache_misses, 0, "{warm_stats:?}");
    assert!(
        warm_stats.cache_hit_rate() >= 0.9,
        "warm hit rate {} below the 90% bar ({warm_stats:?})",
        warm_stats.cache_hit_rate()
    );
    std::fs::remove_file(&path).unwrap();
}

/// One archive pass through the file-parallel scan pipeline, optionally
/// backed by a persisted scan store: the ordered event stream plus the
/// session's aggregate stats.
fn pipeline_run(
    files: &[stack_repro::corpus::ArchiveFile],
    jobs: usize,
    scan_store: Option<&std::path::Path>,
) -> (Vec<String>, stack_repro::core::CheckStats) {
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let session = AnalysisSession::new(CheckerConfig {
        threads: Some(jobs),
        ..CheckerConfig::default()
    });
    let mut pipeline = ScanPipeline::new(&session);
    let store = scan_store.map(|p| Arc::new(ScanStore::open(p).expect("open scan store")));
    if let Some(store) = &store {
        pipeline = pipeline.with_scan_store(Arc::clone(store));
    }
    let mut events = Vec::new();
    pipeline.run(&tasks, &mut |event| {
        if let ScanEvent::Report(r) = event {
            events.push(format!("{r:?}"));
        }
    });
    if let Some(store) = &store {
        store.save().expect("save scan store");
    }
    (events, session.stats())
}

/// The incremental-rescan acceptance contract: a 0%-churn re-scan (only
/// comment/whitespace edits between runs) skips 100% of modules, issues no
/// solver queries, and produces a byte-identical report stream — at every
/// file-level parallelism width.
#[test]
fn zero_churn_rescan_skips_every_module_with_identical_output() {
    let archive_cfg = ArchiveConfig {
        packages: 8,
        seed: 0xF1D0,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let churned = churn_archive(&base, archive_cfg.seed, 0.0);
    assert_eq!(churned.semantic_edits, 0);
    assert!(
        churned.cosmetic_edits > 0,
        "cosmetic churn must be exercised"
    );

    let path = std::env::temp_dir().join(format!(
        "stack-determinism-rescan-{}.ss",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Cold: analyze the base archive, recording every module.
    let (cold_reports, cold_stats) = pipeline_run(&base, 4, Some(&path));
    assert!(!cold_reports.is_empty());
    assert_eq!(cold_stats.modules_skipped, 0);

    // Plain reference run over the *churned* copy (no store at all).
    let (reference_reports, _) = pipeline_run(&churned.files, 1, None);
    assert_eq!(
        cold_reports, reference_reports,
        "comment/whitespace edits must not change any report"
    );

    // Re-scan the churned copy against the recorded store.
    for jobs in [1, 4] {
        let (warm_reports, warm_stats) = pipeline_run(&churned.files, jobs, Some(&path));
        assert_eq!(cold_reports, warm_reports, "jobs={jobs}");
        assert_eq!(
            warm_stats.modules_skipped, warm_stats.modules,
            "every module must be skipped (jobs={jobs}): {warm_stats:?}"
        );
        assert_eq!(warm_stats.modules_skipped, base.len());
        assert_eq!(
            warm_stats.functions_skipped, cold_stats.functions,
            "every function must replay (jobs={jobs}): {warm_stats:?}"
        );
        assert_eq!(warm_stats.queries, 0, "jobs={jobs}: {warm_stats:?}");
        assert_eq!(warm_stats.functions, cold_stats.functions);
    }
    std::fs::remove_file(&path).unwrap();
}

/// The failure-containment contract: a module whose analysis panics
/// degrades to a `Failure` event in the ordered stream — and that stream,
/// reports and failures alike, is byte-identical at every file-level
/// parallelism width. (The panic is injected through the pipeline's own
/// fault hook, so the test models an analysis bug, not a corpus bug.)
#[test]
fn panicking_module_scan_is_deterministic_across_jobs_widths() {
    let archive_cfg = ArchiveConfig {
        packages: 6,
        seed: 0x9A71C,
        ..ArchiveConfig::default()
    };
    let files = generate_archive(&archive_cfg);
    let run = |jobs: usize| {
        let tasks: Vec<ScanTask> = files
            .iter()
            .map(|f| ScanTask {
                name: f.name.clone(),
                source: ScanSource::Inline(f.source.clone()),
            })
            .collect();
        let session = AnalysisSession::new(CheckerConfig {
            threads: Some(jobs),
            ..CheckerConfig::default()
        });
        // Panic while analyzing every file of package 3 (one fragment,
        // several matching modules, so containment is exercised more than
        // once per run).
        let pipeline = ScanPipeline::new(&session).with_injected_panic("archive-0003");
        let mut events = Vec::new();
        pipeline.run(&tasks, &mut |event| {
            events.push(match event {
                ScanEvent::Report(r) => format!("report {r:?}"),
                ScanEvent::Failure { name, error } => format!("failure {name}: {error}"),
            });
        });
        events
    };

    let sequential = run(1);
    let injected: Vec<&String> = sequential
        .iter()
        .filter(|e| e.contains("injected fault: panic while analyzing"))
        .collect();
    assert!(
        !injected.is_empty(),
        "the injected panic must surface as Failure events: {sequential:?}"
    );
    assert!(
        sequential.iter().any(|e| e.starts_with("report ")),
        "the unaffected modules must still report"
    );
    for jobs in [2, 4] {
        assert_eq!(sequential, run(jobs), "jobs={jobs}");
    }
}

/// The distributed-scan contract: scanning the archive as four disjoint
/// content-keyed shards, merging the per-shard scan stores, and re-scanning
/// the whole archive warm from the merged store must skip every module and
/// reproduce the unsharded cold run's report stream byte for byte — at
/// every file-level parallelism width.
#[test]
fn sharded_scan_with_merged_stores_matches_unsharded_run() {
    use stack_repro::core::{content_key, shard_assignment};

    const SHARDS: usize = 4;
    let archive_cfg = ArchiveConfig {
        packages: 8,
        seed: 0x5AD5,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);

    // Unsharded cold reference, no store involved.
    let (reference_reports, reference_stats) = pipeline_run(&base, 1, None);
    assert!(!reference_reports.is_empty());

    // Fan-out: each shard scans only the files the content-keyed partition
    // assigns it, recording into its own scan store.
    let tag = format!("stack-determinism-shard-{}", std::process::id());
    let shard_path = |i: usize| std::env::temp_dir().join(format!("{tag}-{i}.ss"));
    let mut sharded_modules = 0;
    for shard in 0..SHARDS {
        let files: Vec<stack_repro::corpus::ArchiveFile> = base
            .iter()
            .filter(|f| shard_assignment(content_key(f.source.as_bytes()), SHARDS) == shard)
            .cloned()
            .collect();
        let path = shard_path(shard);
        let _ = std::fs::remove_file(&path);
        let (_, stats) = pipeline_run(&files, 4, Some(&path));
        assert_eq!(stats.modules, files.len());
        sharded_modules += stats.modules;
    }
    assert_eq!(
        sharded_modules,
        base.len(),
        "the shards must partition the archive exactly"
    );

    // Fan-in: one merged store, then full warm re-scans against it.
    let merged = std::env::temp_dir().join(format!("{tag}-merged.ss"));
    let inputs: Vec<std::path::PathBuf> = (0..SHARDS).map(shard_path).collect();
    let stats = ScanStore::merge(&merged, &inputs, None).expect("merge shard scan stores");
    // One record per *function* since the store keys on function replay
    // keys; generated function names are unique, so no two shards ever
    // record the same key.
    assert_eq!(stats.entries_out, reference_stats.functions as u64);
    assert_eq!(stats.duplicates, 0, "shards are disjoint");

    for jobs in [1, 4] {
        let (warm_reports, warm_stats) = pipeline_run(&base, jobs, Some(&merged));
        assert_eq!(reference_reports, warm_reports, "jobs={jobs}");
        assert_eq!(
            warm_stats.modules_skipped,
            base.len(),
            "every module must replay from the merged store (jobs={jobs}): {warm_stats:?}"
        );
        assert_eq!(warm_stats.functions_skipped, reference_stats.functions);
        assert_eq!(warm_stats.queries, 0, "jobs={jobs}: {warm_stats:?}");
        assert_eq!(warm_stats.functions, reference_stats.functions);
    }
    for path in inputs.into_iter().chain([merged]) {
        std::fs::remove_file(path).unwrap();
    }
}
