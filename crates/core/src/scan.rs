//! The file-parallel scan pipeline: the archive-scale driver above
//! [`AnalysisSession`], and the only scheduler in the checker.
//!
//! STACK checks every function on its own (§4.4), so an archive scan
//! could run in parallel within a module or across modules. It does the
//! latter only: [`ScanPipeline`] runs [`CheckerConfig::threads`] scoped
//! worker threads (`None`: the machine's available parallelism; clamped to
//! the task count) that draw file indices from a shared atomic counter, so
//! a worker that drew cheap files steals the remaining work of slower
//! ones. Each worker drives the shared, sequential session one whole
//! module at a time. The width the run used is recorded as
//! [`CheckStats::threads`] in the session aggregate.
//!
//! **Determinism.** Workers finish out of order, but results are emitted in
//! task order through a small reorder buffer: a finishing worker parks its
//! result and flushes every consecutive ready result from the head. The
//! event stream — reports, failures — is therefore byte-identical to a
//! sequential scan's regardless of width or scheduling, and the buffer
//! holds only the out-of-order window, preserving the scan's
//! bounded-memory property. One caveat concerns queries that exhaust the
//! per-query budget: a decided answer is a fact whichever module's query
//! store lookup supplied it, but in incremental mode a function's solver
//! instance only encodes the queries the shared store did not answer, and
//! at width > 1 which ones those are depends on which modules ran first.
//! Budget-boundary `Unknown` outcomes — and the reports they suppress —
//! can then vary with timing. Timeout-free scans, and every scan with
//! `incremental: false`, are byte-identical at every width.
//!
//! **Incremental re-scan.** With a [`ScanStore`] attached, every function
//! of a compiled module is keyed
//! ([`function_replay_key`]) before any solver work: a hit replays the
//! function's stored raw reports — path-rewritten to the scanning module's
//! name — without touching the solver and counts the function as skipped
//! ([`CheckStats::functions_skipped`]); a miss analyzes just that function
//! and, when its budget was never exhausted, records it for the next run.
//! An edited module therefore pays the solver only for its edited
//! functions; a module whose functions all replay additionally counts as
//! skipped ([`CheckStats::modules_skipped`]). The replay key is
//! path-independent, so identical vendored files across an archive share
//! one analysis (cross-path dedup). Replayed and fresh raw reports are
//! re-assembled in function order and run through the *module-level*
//! dedup/suppression filter, so the surviving stream is byte-identical to
//! a cold scan's by construction — the key guarantees the checker would
//! have produced identical raw reports under identical semantics, and the
//! filter sees the same assembled stream either way.
//!
//! **Panic containment.** Each task's compile-and-analyze body runs under
//! `catch_unwind`: a panic anywhere in the front end, the optimizer, or
//! the checker degrades that one module to a
//! [`ScanEvent::Failure`] carrying the panic payload — the scan, the
//! other workers, and the exit-code semantics continue as if the module
//! had failed to compile. A panicking module is never recorded in the
//! scan store (record inserts happen only after every selected function
//! returned), and never persisted as a query answer (the unwound query
//! never returned one). Because failures are emitted through the same
//! reorder buffer as reports, a panicking module produces the identical
//! event stream at every width.
//!
//! [`CheckerConfig::threads`]: crate::checker::CheckerConfig::threads

use crate::checker::CheckStats;
use crate::fingerprint::function_replay_key;
use crate::report::BugReport;
use crate::scanstore::{FunctionRecord, ScanStore};
use crate::session::AnalysisSession;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where one scan task's source comes from. Paths are read only when their
/// turn comes, so one unreadable file fails that task, not the scan — and a
/// scan never holds the whole archive's text in memory.
#[derive(Clone, Debug)]
pub enum ScanSource {
    /// Read from disk when the task is picked up.
    Path(PathBuf),
    /// Source generated in-process (synthetic archives).
    Inline(String),
}

/// One unit of scan work.
#[derive(Clone, Debug)]
pub struct ScanTask {
    /// The module name reports will carry (usually the source path).
    pub name: String,
    /// Where the source text comes from.
    pub source: ScanSource,
}

/// One event of the (deterministically ordered) scan output stream.
#[derive(Debug)]
pub enum ScanEvent {
    /// A surviving report of the task named. Reports of task *i* are always
    /// emitted before any event of task *i + 1*.
    Report(BugReport),
    /// The named task failed to read or compile; the scan continues.
    Failure { name: String, error: String },
}

/// Aggregate outcome of one pipeline run (per-module statistics are merged
/// into the session as usual; this is the scan-level layer on top).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanOutcome {
    /// Tasks attempted.
    pub files: usize,
    /// Tasks that failed to read or compile.
    pub failures: usize,
    /// Modules all of whose functions replayed from the scan store.
    pub modules_skipped: usize,
    /// Functions replayed from the scan store without solver work.
    pub functions_skipped: usize,
}

/// The file-parallel scan driver. See the module docs for the pipeline
/// shape and the determinism contract.
pub struct ScanPipeline<'s> {
    session: &'s AnalysisSession,
    scan_store: Option<Arc<ScanStore>>,
    /// Fault injection: panic while analyzing any module whose name
    /// contains this fragment (tests of the containment boundary).
    panic_on: Option<String>,
}

/// What one worker produced for one task, parked until its turn to emit.
enum TaskResult {
    Analyzed {
        reports: Vec<BugReport>,
        functions_skipped: usize,
    },
    Skipped {
        reports: Vec<BugReport>,
        functions_skipped: usize,
    },
    Failed {
        error: String,
    },
}

impl<'s> ScanPipeline<'s> {
    /// A pipeline over `session`, as wide as the session's
    /// [`threads`](crate::checker::CheckerConfig::threads) setting.
    pub fn new(session: &'s AnalysisSession) -> ScanPipeline<'s> {
        ScanPipeline {
            session,
            scan_store: None,
            panic_on: None,
        }
    }

    /// Attach a persisted report cache: function replay-key hits replay
    /// their recorded reports instead of re-analyzing, misses are recorded.
    pub fn with_scan_store(mut self, store: Arc<ScanStore>) -> ScanPipeline<'s> {
        self.scan_store = Some(store);
        self
    }

    /// Arm fault injection for this pipeline: analyzing any module whose
    /// name contains `fragment` panics on purpose, exercising the
    /// containment boundary. Scoped to this pipeline (unlike the
    /// process-wide [`faultinject::PANIC_ENV`](crate::faultinject::PANIC_ENV)
    /// variable), so concurrent tests never interfere.
    pub fn with_injected_panic(mut self, fragment: impl Into<String>) -> ScanPipeline<'s> {
        self.panic_on = Some(fragment.into());
        self
    }

    /// Run the pipeline over `tasks`, handing every event to `sink` in task
    /// order. `sink` must be `Send` because out-of-order workers take turns
    /// flushing the reorder buffer; it is never called concurrently.
    pub fn run(&self, tasks: &[ScanTask], sink: &mut (dyn FnMut(ScanEvent) + Send)) -> ScanOutcome {
        let outcome = Mutex::new(ScanOutcome {
            files: tasks.len(),
            ..ScanOutcome::default()
        });
        let emitter = Mutex::new(Emitter {
            next: 0,
            pending: HashMap::new(),
            sink,
        });
        let next_task = AtomicUsize::new(0);
        let workers = self
            .session
            .config()
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(tasks.len())
            .max(1);
        self.session.absorb_stats(&CheckStats {
            threads: workers,
            ..CheckStats::default()
        });
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next_task.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let result = self.run_task(task);
                    {
                        let mut outcome = outcome
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        match &result {
                            TaskResult::Failed { .. } => outcome.failures += 1,
                            TaskResult::Skipped {
                                functions_skipped, ..
                            } => {
                                outcome.modules_skipped += 1;
                                outcome.functions_skipped += functions_skipped;
                            }
                            TaskResult::Analyzed {
                                functions_skipped, ..
                            } => outcome.functions_skipped += functions_skipped,
                        }
                    }
                    emitter
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .emit(i, result, tasks);
                });
            }
        });
        let outcome = outcome.into_inner().unwrap();
        debug_assert_eq!(emitter.into_inner().unwrap().next, tasks.len());
        outcome
    }

    /// Process one task end to end: load, compile, key, replay or
    /// analyze. Everything past the source read runs under
    /// `catch_unwind`, so a panic anywhere in the stack degrades the task
    /// to a `Failed` result instead of aborting the scan.
    fn run_task(&self, task: &ScanTask) -> TaskResult {
        let read;
        let source: &str = match &task.source {
            ScanSource::Inline(source) => source,
            ScanSource::Path(path) => match std::fs::read_to_string(path) {
                Ok(text) => {
                    read = text;
                    &read
                }
                Err(e) => {
                    return TaskResult::Failed {
                        error: format!("cannot read: {e}"),
                    }
                }
            },
        };
        // AssertUnwindSafe: the shared state the closure touches (session
        // aggregate, caches, scan store) guards every structure behind
        // mutexes whose contents stay structurally valid at any unwind
        // point, and their locks recover from poisoning.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.analyze_task(source, &task.name)
        })) {
            Ok(result) => result,
            Err(payload) => TaskResult::Failed {
                error: format!("panic: {}", panic_message(payload.as_ref())),
            },
        }
    }

    /// The panic-containable body of one task: compile, key every
    /// function, replay hits, analyze misses, record clean results,
    /// re-assemble and filter the module's report stream.
    fn analyze_task(&self, source: &str, name: &str) -> TaskResult {
        if let Some(fragment) = &self.panic_on {
            if name.contains(fragment.as_str()) {
                panic!("injected fault: panic while analyzing {name}");
            }
        }
        crate::faultinject::maybe_injected_panic(name);
        let mut module = match stack_minic::compile(source, name) {
            Ok(module) => module,
            Err(e) => {
                return TaskResult::Failed {
                    error: e.to_string(),
                }
            }
        };
        stack_opt::optimize_for_analysis(&mut module);

        let Some(store) = &self.scan_store else {
            // No store: the session's streaming driver does everything
            // (including merging its stats into the aggregate).
            let mut reports = Vec::new();
            self.session
                .check_module_streaming(&module, &mut |r| reports.push(r));
            return TaskResult::Analyzed {
                reports,
                functions_skipped: 0,
            };
        };

        let start = Instant::now();
        let config = self.session.config();
        let keys: Vec<u128> = module
            .functions()
            .iter()
            .map(|f| function_replay_key(f, config))
            .collect();
        let replayed: Vec<Option<FunctionRecord>> =
            keys.iter().map(|&key| store.lookup(key)).collect();
        let skipped = replayed.iter().filter(|r| r.is_some()).count();
        let select: Vec<bool> = replayed.iter().map(Option::is_none).collect();

        let (checks, mut stats) = if select.contains(&true) {
            self.session.check_functions_selected(&module, &select)
        } else {
            (Vec::new(), CheckStats::default())
        };
        // A function with budget-exhausted (degraded) queries is never
        // recorded: its report set reflects the budget, not the function,
        // and a later run with a higher budget must re-analyze it. Its
        // healthy siblings still record and will replay next run.
        for check in &checks {
            if check.timeouts == 0 {
                store.insert(
                    keys[check.index],
                    FunctionRecord::normalized(&check.reports, name),
                );
            }
        }

        // Re-assemble the module's raw report stream in function order —
        // replays path-rewritten to this module's name — and apply the
        // module-level dedup/suppression filter exactly as a cold
        // analysis would.
        let mut fresh: HashMap<usize, Vec<BugReport>> =
            checks.into_iter().map(|c| (c.index, c.reports)).collect();
        let raw: Vec<BugReport> = replayed
            .iter()
            .enumerate()
            .flat_map(|(i, slot)| match slot {
                Some(record) => record.replay(name),
                None => fresh.remove(&i).unwrap_or_default(),
            })
            .collect();
        let mut by_algorithm = HashMap::new();
        let mut reports = Vec::new();
        self.session
            .filter_module_reports(raw, &mut by_algorithm, &mut |r| reports.push(r));

        let fully_skipped = skipped == keys.len() && !keys.is_empty();
        stats.modules = 1;
        stats.modules_skipped = usize::from(fully_skipped);
        stats.functions += skipped;
        stats.functions_skipped = skipped;
        stats.by_algorithm = by_algorithm;
        stats.elapsed = start.elapsed();
        self.session.absorb_stats(&stats);

        if fully_skipped {
            TaskResult::Skipped {
                reports,
                functions_skipped: skipped,
            }
        } else {
            TaskResult::Analyzed {
                reports,
                functions_skipped: skipped,
            }
        }
    }
}

/// Render a caught panic payload: `panic!` carries a `String` or `&str`
/// in practice; anything else gets a stable placeholder (payload types
/// must not leak nondeterminism into the event stream).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<opaque panic payload>")
}

/// The reorder buffer: workers park finished results under their task index
/// and whoever holds the lock flushes the consecutive ready prefix, so the
/// sink sees events in task order no matter which worker finished first.
struct Emitter<'a> {
    next: usize,
    pending: HashMap<usize, TaskResult>,
    sink: &'a mut (dyn FnMut(ScanEvent) + Send),
}

impl Emitter<'_> {
    fn emit(&mut self, index: usize, result: TaskResult, tasks: &[ScanTask]) {
        self.pending.insert(index, result);
        while let Some(result) = self.pending.remove(&self.next) {
            let name = &tasks[self.next].name;
            match result {
                TaskResult::Analyzed { reports, .. } | TaskResult::Skipped { reports, .. } => {
                    for report in reports {
                        (self.sink)(ScanEvent::Report(report));
                    }
                }
                TaskResult::Failed { error } => (self.sink)(ScanEvent::Failure {
                    name: name.clone(),
                    error,
                }),
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckerConfig;
    use std::sync::atomic::AtomicU64;

    /// The default configuration at pipeline width `jobs`.
    fn width(jobs: usize) -> CheckerConfig {
        CheckerConfig {
            threads: Some(jobs),
            ..CheckerConfig::default()
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "stack-scan-pipeline-{tag}-{}-{}.ss",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A small mixed task list: unstable, stable, and broken modules.
    /// Every compiling module has 2 functions.
    fn tasks() -> Vec<ScanTask> {
        let mut out = Vec::new();
        for i in 0..6 {
            out.push(ScanTask {
                name: format!("mod{i}.c"),
                source: ScanSource::Inline(format!(
                    "int f{i}(int x) {{ if (x + {} < x) return 1; return 0; }}\n\
                     int g{i}(int a, int b) {{ if (b == 0) return -1; return a / b; }}\n",
                    i + 1
                )),
            });
        }
        out.push(ScanTask {
            name: "broken.c".to_string(),
            source: ScanSource::Inline("int (((".to_string()),
        });
        out
    }

    fn events_to_strings(jobs: usize, tasks: &[ScanTask]) -> Vec<String> {
        let session = AnalysisSession::new(width(jobs));
        let mut events = Vec::new();
        ScanPipeline::new(&session).run(tasks, &mut |e| events.push(format!("{e:?}")));
        events
    }

    #[test]
    fn parallel_jobs_emit_the_sequential_event_stream() {
        let tasks = tasks();
        let sequential = events_to_strings(1, &tasks);
        assert!(sequential.iter().any(|e| e.starts_with("Report")));
        assert!(sequential.iter().any(|e| e.starts_with("Failure")));
        for jobs in [2, 4, 8] {
            let parallel = events_to_strings(jobs, &tasks);
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn width_comes_from_the_config_and_is_clamped_to_the_task_count() {
        let tasks = tasks();
        for (jobs, used) in [(1, 1), (2, 2), (64, tasks.len())] {
            let session = AnalysisSession::new(width(jobs));
            ScanPipeline::new(&session).run(&tasks, &mut |_| {});
            assert_eq!(session.stats().threads, used, "jobs={jobs}");
        }
        // `None` means the machine's parallelism, still clamped.
        let session = AnalysisSession::default();
        ScanPipeline::new(&session).run(&tasks[..1], &mut |_| {});
        assert_eq!(session.stats().threads, 1);
    }

    #[test]
    fn rescan_with_scan_store_skips_every_module_and_replays_reports() {
        let path = temp_path("rescan");
        let tasks = tasks();
        let config = width(2);

        let store = Arc::new(ScanStore::open(&path).unwrap());
        let cold_session = AnalysisSession::new(config);
        let mut cold = Vec::new();
        let outcome = ScanPipeline::new(&cold_session)
            .with_scan_store(store.clone())
            .run(&tasks, &mut |e| cold.push(format!("{e:?}")));
        assert_eq!(outcome.modules_skipped, 0);
        assert_eq!(outcome.functions_skipped, 0);
        assert_eq!(outcome.failures, 1);
        assert!(store.save().unwrap() > 0);

        let rescan_store = Arc::new(ScanStore::open(&path).unwrap());
        let warm_session = AnalysisSession::new(config);
        let mut warm = Vec::new();
        let outcome = ScanPipeline::new(&warm_session)
            .with_scan_store(rescan_store)
            .run(&tasks, &mut |e| warm.push(format!("{e:?}")));
        assert_eq!(cold, warm, "replayed stream must be byte-identical");
        // Every compiling module is skipped; the broken file still fails.
        assert_eq!(outcome.modules_skipped, tasks.len() - 1);
        assert_eq!(outcome.functions_skipped, 2 * (tasks.len() - 1));
        assert_eq!(outcome.failures, 1);
        let stats = warm_session.stats();
        assert_eq!(stats.modules_skipped, tasks.len() - 1);
        assert_eq!(stats.functions_skipped, 2 * (tasks.len() - 1));
        assert_eq!(
            stats.queries, 0,
            "a full-skip re-scan never touches the solver"
        );
        assert_eq!(stats.functions, 2 * (tasks.len() - 1));
        assert!(stats.by_algorithm.values().sum::<usize>() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn changed_modules_miss_and_reanalyze() {
        let path = temp_path("changed");
        let config = width(1);
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let before = vec![ScanTask {
            name: "m.c".to_string(),
            source: ScanSource::Inline(
                "int f(int x) { if (x + 1 < x) return 1; return 0; }\n".to_string(),
            ),
        }];
        let session = AnalysisSession::new(config);
        ScanPipeline::new(&session)
            .with_scan_store(store.clone())
            .run(&before, &mut |_| {});
        store.save().unwrap();

        // A semantic edit (changed constant) must miss; a cosmetic one hits.
        let edited = |src: &str| {
            vec![ScanTask {
                name: "m.c".to_string(),
                source: ScanSource::Inline(src.to_string()),
            }]
        };
        let store2 = Arc::new(ScanStore::open(&path).unwrap());
        let session2 = AnalysisSession::new(config);
        let outcome = ScanPipeline::new(&session2)
            .with_scan_store(store2.clone())
            .run(
                &edited("int f(int x) { if (x + 2 < x) return 1; return 0; }\n"),
                &mut |_| {},
            );
        assert_eq!(outcome.modules_skipped, 0);
        assert_eq!(outcome.functions_skipped, 0);
        let outcome = ScanPipeline::new(&session2).with_scan_store(store2).run(
            &edited("int f(int x) {  /* note */ if (x + 1 < x) return 1; return 0; }\n"),
            &mut |_| {},
        );
        assert_eq!(outcome.modules_skipped, 1);
        assert_eq!(outcome.functions_skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn edited_function_reanalyzes_while_siblings_replay() {
        let path = temp_path("partial");
        let config = width(1);
        let src = |k: u32| {
            format!(
                "int f(int x) {{ if (x + {k} < x) return 1; return 0; }}\n\
                 int g(int a, int b) {{ if (b == 0) return -1; return a / b; }}\n\
                 int h(int x) {{ return x; }}\n"
            )
        };
        let task = |source: String| {
            vec![ScanTask {
                name: "m.c".to_string(),
                source: ScanSource::Inline(source),
            }]
        };
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(config);
        let mut cold = Vec::new();
        ScanPipeline::new(&session)
            .with_scan_store(store.clone())
            .run(&task(src(1)), &mut |e| cold.push(format!("{e:?}")));
        store.save().unwrap();

        // Edit only f: g and h replay, f re-analyzes; the module is NOT
        // counted skipped, and the stream matches a cold scan of the
        // edited source.
        let cold_session = AnalysisSession::new(config);
        let mut reference = Vec::new();
        ScanPipeline::new(&cold_session)
            .run(&task(src(2)), &mut |e| reference.push(format!("{e:?}")));
        let store2 = Arc::new(ScanStore::open(&path).unwrap());
        let warm_session = AnalysisSession::new(config);
        let mut warm = Vec::new();
        let outcome = ScanPipeline::new(&warm_session)
            .with_scan_store(store2.clone())
            .run(&task(src(2)), &mut |e| warm.push(format!("{e:?}")));
        assert_eq!(reference, warm);
        assert_eq!(outcome.modules_skipped, 0);
        assert_eq!(outcome.functions_skipped, 2, "g and h replayed");
        let stats = warm_session.stats();
        assert_eq!(stats.functions, 3);
        assert_eq!(stats.functions_skipped, 2);
        assert!(
            stats.queries > 0 && stats.queries < cold_session.stats().queries,
            "only the edited function touched the solver: {} vs cold {}",
            stats.queries,
            cold_session.stats().queries
        );
        // The edited f was recorded: a further rescan is a full skip.
        store2.save().unwrap();
        let store3 = Arc::new(ScanStore::open(&path).unwrap());
        let session3 = AnalysisSession::new(config);
        let outcome = ScanPipeline::new(&session3)
            .with_scan_store(store3)
            .run(&task(src(2)), &mut |_| {});
        assert_eq!(outcome.modules_skipped, 1);
        assert_eq!(outcome.functions_skipped, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_files_share_one_analysis() {
        let path = temp_path("dedup");
        let config = width(1);
        let src = "int f(int x) { if (x + 7 < x) return 1; return 0; }\n";
        let single = vec![ScanTask {
            name: "a/vendored.c".to_string(),
            source: ScanSource::Inline(src.to_string()),
        }];
        let cold_session = AnalysisSession::new(config);
        ScanPipeline::new(&cold_session).run(&single, &mut |_| {});
        let one_file_queries = cold_session.stats().queries;
        assert!(one_file_queries > 0);

        // Two copies under different paths, cold store, jobs 1: the second
        // copy replays the first's record — path-rewritten.
        let both = vec![
            single[0].clone(),
            ScanTask {
                name: "b/deep/copy.c".to_string(),
                source: ScanSource::Inline(src.to_string()),
            },
        ];
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(config);
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session)
            .with_scan_store(store.clone())
            .run(&both, &mut |e| events.push(e));
        assert_eq!(
            session.stats().queries,
            one_file_queries,
            "the duplicate must not issue new queries"
        );
        assert_eq!(outcome.functions_skipped, 1);
        assert_eq!(outcome.modules_skipped, 1);
        assert_eq!(store.stats().entries, 1, "one record serves both paths");
        // Each copy's reports carry its own path.
        let files: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ScanEvent::Report(r) => Some(r.file.as_str()),
                ScanEvent::Failure { .. } => None,
            })
            .collect();
        assert!(files.contains(&"a/vendored.c"), "{files:?}");
        assert!(files.contains(&"b/deep/copy.c"), "{files:?}");
        // The store was never saved to disk in this test; nothing to clean.
        assert!(!path.exists());
    }

    #[test]
    fn budget_degraded_function_is_not_recorded_but_siblings_are() {
        let path = temp_path("budget");
        // f is query-hungry (several checks), h is trivial; a tiny budget
        // degrades f but leaves h clean.
        let src = "int f(int x, int y) { if (x + 1 < x) return 1; if (y + 2 < y) return 2; \
                   if (x + 3 < x) return 3; return x / y; }\n\
                   int h(int x) { return x; }\n";
        let tasks = vec![ScanTask {
            name: "m.c".to_string(),
            source: ScanSource::Inline(src.to_string()),
        }];
        let config = CheckerConfig {
            query_budget: 1,
            ..width(1)
        };
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(config);
        ScanPipeline::new(&session)
            .with_scan_store(store.clone())
            .run(&tasks, &mut |_| {});
        assert!(session.stats().timeouts > 0, "budget must actually bite");
        assert_eq!(
            store.stats().entries,
            1,
            "only the clean sibling is recorded"
        );
        store.save().unwrap();

        // Rescan at the same budget: h replays, f re-analyzes (and again
        // fails to record).
        let store2 = Arc::new(ScanStore::open(&path).unwrap());
        let session2 = AnalysisSession::new(config);
        let outcome = ScanPipeline::new(&session2)
            .with_scan_store(store2.clone())
            .run(&tasks, &mut |_| {});
        assert_eq!(outcome.functions_skipped, 1);
        assert_eq!(outcome.modules_skipped, 0);
        assert!(session2.stats().queries > 0);
        assert_eq!(store2.stats().entries, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_panic_degrades_to_a_failure_event_and_is_never_recorded() {
        let path = temp_path("panic");
        let tasks = tasks();
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(width(2));
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session)
            .with_scan_store(store.clone())
            .with_injected_panic("mod3")
            .run(&tasks, &mut |e| events.push(format!("{e:?}")));
        // The parse failure plus the injected panic; everything else scans.
        assert_eq!(outcome.failures, 2);
        assert!(
            events
                .iter()
                .any(|e| e.contains("injected fault: panic while analyzing mod3.c")),
            "{events:?}"
        );
        // The panicking module's functions are never cached: only the
        // clean compiles' are (2 functions per compiling module).
        assert_eq!(store.stats().entries, 2 * (tasks.len() as u64 - 2));
        store.save().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panicking_module_emits_the_same_stream_at_every_jobs_width() {
        let tasks = tasks();
        let stream = |jobs: usize| {
            let session = AnalysisSession::new(width(jobs));
            let mut events = Vec::new();
            ScanPipeline::new(&session)
                .with_injected_panic("mod2")
                .run(&tasks, &mut |e| events.push(format!("{e:?}")));
            events
        };
        let sequential = stream(1);
        assert!(sequential
            .iter()
            .any(|e| e.contains("panic: injected fault")));
        for jobs in [2, 4] {
            assert_eq!(sequential, stream(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn unreadable_path_fails_only_that_task() {
        let tasks = vec![
            ScanTask {
                name: "missing.mc".to_string(),
                source: ScanSource::Path(PathBuf::from("/nonexistent/missing.mc")),
            },
            ScanTask {
                name: "ok.c".to_string(),
                source: ScanSource::Inline("int f(int x) { return x; }\n".to_string()),
            },
        ];
        let session = AnalysisSession::new(width(2));
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session).run(&tasks, &mut |e| events.push(e));
        assert_eq!(outcome.failures, 1);
        assert_eq!(outcome.files, 2);
        assert!(matches!(
            &events[0],
            ScanEvent::Failure { name, .. } if name == "missing.mc"
        ));
    }
}
