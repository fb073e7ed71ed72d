//! The traced scan driver: one pass over an on-disk archive that calls each
//! layer's public entry point in the order `ScanPipeline` runs a task —
//! read, compile, optimize, replay keys, scan-store lookup, check of the
//! missed functions, scan-store insert — then saves both stores. Every
//! call sits in its own span; with the recorder disabled the same code
//! runs without reading the clock.
//!
//! It runs one file at a time and one checker thread
//! (`CheckerConfig { threads: Some(1), .. }`), the setting at which the
//! deterministic counters repeat exactly from run to run.

use crate::spans::{Recorder, Span};
use stack_core::{
    collect_ub_conditions, function_replay_key, AnalysisSession, BugReport, CheckStats,
    CheckerConfig, FunctionEncoder, FunctionRecord, ScanStore,
};
use stack_solver::{CacheKey, CacheStats, DiskQueryStore, QueryResult, QueryStore};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Name of the span around a whole pass.
pub const ROOT: &str = "scan";

/// The program's disk-backed query store, with its lookups and inserts
/// timed and counted — handed to `AnalysisSession::with_store` in its
/// place.
#[derive(Debug)]
struct TracedStore {
    inner: Arc<DiskQueryStore>,
    rec: Arc<Recorder>,
    lookups: AtomicU64,
    hits: AtomicU64,
}

impl QueryStore for TracedStore {
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        let found = self
            .rec
            .time("querystore.lookup", || self.inner.lookup(key));
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(&self, key: CacheKey, result: &QueryResult) {
        self.rec
            .time("querystore.insert", || self.inner.insert(key, result));
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Everything one pass produced.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Spans, empty for an untraced pass.
    pub spans: Vec<Span>,
    /// Deterministic work counters, by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per file name: the distinct functions named in surviving reports.
    pub reported: BTreeMap<String, BTreeSet<String>>,
}

/// Scan `files` (in the given order) against the query store at
/// `query_path` and the scan store at `scan_path`, both opened from
/// whatever those files hold and saved back at the end.
pub fn run_pass(
    files: &[PathBuf],
    query_path: &Path,
    scan_path: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let rec = Arc::new(Recorder::new(traced));
    let started = Instant::now();
    let root = rec.enter(ROOT);
    let disk = Arc::new(
        rec.time("querystore.open", || DiskQueryStore::open(query_path))
            .map_err(|e| format!("open {}: {e}", query_path.display()))?,
    );
    let scan_store = rec
        .time("scanstore.open", || ScanStore::open(scan_path))
        .map_err(|e| format!("open {}: {e}", scan_path.display()))?;
    let store = Arc::new(TracedStore {
        inner: Arc::clone(&disk),
        rec: Arc::clone(&rec),
        lookups: AtomicU64::new(0),
        hits: AtomicU64::new(0),
    });
    let config = CheckerConfig {
        threads: Some(1),
        ..CheckerConfig::default()
    };
    let session = AnalysisSession::with_store(config, Arc::clone(&store) as _);
    let config = session.config();

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut add = |name: &'static str, n: usize| *counts.entry(name).or_default() += n as u64;
    let mut solver = CheckStats::default();
    let mut reported: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    for path in files {
        let name = path.display().to_string();
        let source = rec
            .time("read", || std::fs::read_to_string(path))
            .map_err(|e| format!("read {name}: {e}"))?;
        let mut module = rec
            .time("minic.compile", || stack_minic::compile(&source, &name))
            .map_err(|e| format!("compile {name}: {e}"))?;
        add("minic.functions", module.functions().len());
        add("ir.insts", module.total_insts());
        let opt = rec.time("opt.optimize", || {
            stack_opt::optimize_for_analysis(&mut module)
        });
        add("opt.promoted_allocas", opt.promoted_allocas);
        add("opt.removed_insts", opt.removed_insts);
        add("ir.insts_after_opt", module.total_insts());

        let functions = module.functions();
        let keys: Vec<u128> = functions
            .iter()
            .map(|f| rec.time("fingerprint.replay_key", || function_replay_key(f, config)))
            .collect();
        add("fingerprint.keys", keys.len());
        let replayed: Vec<Option<FunctionRecord>> = keys
            .iter()
            .map(|&key| rec.time("scanstore.lookup", || scan_store.lookup(key)))
            .collect();
        let select: Vec<bool> = replayed.iter().map(Option::is_none).collect();

        // UB-condition collection as a call of its own, over the functions
        // the check below analyzes (the check repeats it internally).
        for (func, _) in functions.iter().zip(&select).filter(|(_, &s)| s) {
            let conditions = rec.time("ubcond.collect", || {
                let mut encoder = FunctionEncoder::new(func);
                collect_ub_conditions(func, &mut encoder).len()
            });
            add("ubcond.conditions", conditions);
        }

        let checks = if select.contains(&true) {
            let (checks, stats) = rec.time("session.check", || {
                session.check_functions_selected(&module, &select)
            });
            assert!(stats.threads <= 1, "spans assume one checker thread");
            solver.merge(&stats);
            checks
        } else {
            Vec::new()
        };
        add("session.functions_checked", checks.len());
        for check in &checks {
            if check.timeouts == 0 {
                rec.time("scanstore.insert", || {
                    scan_store.insert(
                        keys[check.index],
                        FunctionRecord::normalized(&check.reports, &name),
                    )
                });
            }
        }

        let mut fresh: HashMap<usize, Vec<BugReport>> =
            checks.into_iter().map(|c| (c.index, c.reports)).collect();
        for (i, slot) in replayed.iter().enumerate() {
            let raw = match slot {
                Some(record) => record.replay(&name),
                None => fresh.remove(&i).unwrap_or_default(),
            };
            // The module filter drops compiler-generated reports unless
            // configured otherwise; its dedup never removes a function.
            for report in raw {
                if config.report_compiler_generated || !report.compiler_generated {
                    reported
                        .entry(file_name(&report.file))
                        .or_default()
                        .insert(report.function);
                }
            }
        }
    }

    let query_entries = rec
        .time("querystore.save", || disk.save())
        .map_err(|e| format!("save {}: {e}", query_path.display()))?;
    let scan_entries = rec
        .time("scanstore.save", || scan_store.save())
        .map_err(|e| format!("save {}: {e}", scan_path.display()))?;
    rec.exit(root);
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let scan_stats = scan_store.stats();
    counts.insert("scanstore.hits", scan_stats.hits);
    counts.insert("scanstore.lookups", scan_stats.hits + scan_stats.misses);
    counts.insert("scanstore.entries", scan_entries as u64);
    counts.insert("scanstore.bytes", file_len(scan_path));
    counts.insert("querystore.lookups", store.lookups.load(Ordering::Relaxed));
    counts.insert("querystore.hits", store.hits.load(Ordering::Relaxed));
    counts.insert("querystore.entries", query_entries as u64);
    counts.insert("querystore.bytes", file_len(query_path));
    counts.insert("solver.queries", solver.queries);
    counts.insert("solver.misses", solver.cache_misses);
    counts.insert("solver.sat", solver.sat_queries);
    counts.insert("solver.unsat", solver.unsat_queries);
    counts.insert("solver.timeouts", solver.timeouts);
    counts.insert("solver.propagations", solver.propagations);
    counts.insert("solver.conflicts", solver.conflicts);
    counts.insert("solver.learned_clauses", solver.learned_clauses);
    counts.insert("solver.model_cache_hits", solver.model_cache_hits);
    counts.insert("solver.core_cache_hits", solver.core_cache_hits);
    counts.insert(
        "solver.minimization_saved",
        solver.minimization_queries_saved,
    );

    Ok(Pass {
        wall_ns,
        spans: rec.take(),
        counts,
        reported,
    })
}

fn file_name(path: &str) -> String {
    Path::new(path)
        .file_name()
        .map_or_else(|| path.to_string(), |n| n.to_string_lossy().into_owned())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
