//! `stack-bench` — experiment harnesses that regenerate every table and
//! figure of the paper's evaluation (§2.3 and §6).
//!
//! Each `figure*`/`sec*` function returns a plain data structure and a
//! formatted text rendering; the binaries under `src/bin/` print them (see
//! the README's "Experiment binaries" section), and the figure table in
//! `docs/ARCHITECTURE.md` maps each one to its paper section.

use stack_core::{Algorithm, AnalysisSession, CheckerConfig, UbKind};
use stack_corpus::{completeness_benchmark, figure9_corpus, generate, SynthConfig, UB_COLUMNS};
use stack_opt::{lowest_discarding_level, survey_compilers};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Figure 4: the compiler × example matrix of lowest discarding levels.
pub struct Figure4 {
    /// Example labels, in the paper's column order.
    pub examples: Vec<&'static str>,
    /// Rows: compiler name and, per example, the lowest `-On` (None = "–").
    pub rows: Vec<(String, Vec<Option<u8>>)>,
}

/// Regenerate Figure 4 by running each surveyed compiler profile over the six
/// §2.2 idioms at increasing optimization levels.
pub fn figure4() -> Figure4 {
    let examples = vec![
        "if (p + 100 < p)",
        "*p; if (!p)",
        "if (x + 100 < x)",
        "if (x+ + 100 < 0)",
        "if (!(1 << x))",
        "if (abs(x) < 0)",
    ];
    let sources: Vec<&str> = stack_corpus::SEC22_EXAMPLES
        .iter()
        .map(|p| p.source)
        .collect();
    let mut rows = Vec::new();
    for profile in survey_compilers() {
        let mut cells = Vec::new();
        for src in &sources {
            cells.push(lowest_discarding_level(src, &profile));
        }
        rows.push((profile.name.to_string(), cells));
    }
    Figure4 { examples, rows }
}

impl Figure4 {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 4: lowest -O level at which each compiler discards the check"
        );
        let _ = writeln!(out, "{:<18} {}", "compiler", self.examples.join(" | "));
        for (name, cells) in &self.rows {
            let cells: Vec<String> = cells
                .iter()
                .map(|c| match c {
                    Some(l) => format!("O{l}"),
                    None => "–".to_string(),
                })
                .collect();
            let _ = writeln!(out, "{name:<18} {}", cells.join("   "));
        }
        out
    }
}

/// Figure 9: bugs found per system and per UB class, by running the checker
/// over the per-system corpus.
pub struct Figure9 {
    pub rows: Vec<(String, usize, HashMap<UbKind, usize>)>,
    pub total: usize,
}

/// Regenerate Figure 9 from the per-system corpus.
pub fn figure9() -> Figure9 {
    let session = AnalysisSession::default();
    let mut rows: Vec<(String, usize, HashMap<UbKind, usize>)> = Vec::new();
    for bug in figure9_corpus() {
        let result = session
            .check_source(&bug.source, &bug.file)
            .expect("corpus programs must compile");
        let found = !result.reports.is_empty();
        let entry = match rows.iter_mut().find(|(s, _, _)| *s == bug.system) {
            Some(e) => e,
            None => {
                rows.push((bug.system.to_string(), 0, HashMap::new()));
                rows.last_mut().unwrap()
            }
        };
        if found {
            entry.1 += 1;
            // Attribute the bug to the UB class(es) the checker reported.
            let mut kinds: Vec<UbKind> = result
                .reports
                .iter()
                .flat_map(|r| r.ub_sources.iter().map(|s| s.kind))
                .collect();
            kinds.sort();
            kinds.dedup();
            for k in kinds.into_iter().take(1) {
                *entry.2.entry(k).or_insert(0) += 1;
            }
        }
    }
    let total = rows.iter().map(|(_, n, _)| n).sum();
    Figure9 { rows, total }
}

impl Figure9 {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 9: bugs identified per system (total {})",
            self.total
        );
        let _ = writeln!(
            out,
            "{:<16} {:>6}  {}",
            "system",
            "#bugs",
            UB_COLUMNS.join(" ")
        );
        for (system, count, by_kind) in &self.rows {
            let cells: Vec<String> = UbKind::all()
                .iter()
                .map(|k| {
                    let n = by_kind.get(k).copied().unwrap_or(0);
                    if n == 0 {
                        ".".to_string()
                    } else {
                        n.to_string()
                    }
                })
                .collect();
            let _ = writeln!(out, "{system:<16} {count:>6}  {}", cells.join(" "));
        }
        out
    }
}

/// Figure 16: build/analysis time, files, queries, and timeouts for three
/// code bases of increasing size.
pub struct Figure16Row {
    pub name: String,
    pub build_time_ms: u128,
    pub analysis_time_ms: u128,
    pub files: usize,
    pub queries: u64,
    pub timeouts: u64,
}

/// Regenerate the Figure 16 performance table over synthetic code bases
/// standing in for Kerberos, Postgres, and the Linux kernel.
pub fn figure16(scale: usize) -> Vec<Figure16Row> {
    let presets = [
        ("kerberos (synthetic)", 8 * scale, 11),
        ("postgres (synthetic)", 12 * scale, 23),
        ("linux (synthetic)", 24 * scale, 47),
    ];
    let mut rows = Vec::new();
    for (name, packages, seed) in presets {
        let cfg = SynthConfig {
            packages,
            seed,
            ..SynthConfig::default()
        };
        let build_start = Instant::now();
        let population = generate(&cfg);
        let mut modules = Vec::new();
        let mut files = 0usize;
        for pkg in &population {
            for file in &pkg.files {
                files += 1;
                let mut module = stack_minic::compile(&file.source, &file.name)
                    .expect("synthetic files compile");
                stack_opt::optimize_for_analysis(&mut module);
                modules.push(module);
            }
        }
        let build_time_ms = build_start.elapsed().as_millis();
        let session = AnalysisSession::new(CheckerConfig {
            query_budget: 500_000,
            ..CheckerConfig::default()
        });
        let analysis_start = Instant::now();
        let mut queries = 0u64;
        let mut timeouts = 0u64;
        for module in &modules {
            let result = session.check_module(module);
            queries += result.stats.queries;
            timeouts += result.stats.timeouts;
        }
        rows.push(Figure16Row {
            name: name.to_string(),
            build_time_ms,
            analysis_time_ms: analysis_start.elapsed().as_millis(),
            files,
            queries,
            timeouts,
        });
    }
    rows
}

/// Render the Figure 16 table.
pub fn render_figure16(rows: &[Figure16Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 16: {:<22} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "code base", "build(ms)", "analyze(ms)", "files", "queries", "timeouts"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "           {:<22} {:>10} {:>12} {:>8} {:>10} {:>10}",
            r.name, r.build_time_ms, r.analysis_time_ms, r.files, r.queries, r.timeouts
        );
    }
    out
}

/// Figures 17/18 + §6.5: reports per algorithm, reports per UB condition, and
/// the fraction of packages with at least one report.
pub struct PrevalenceResult {
    pub packages: usize,
    pub packages_with_reports: usize,
    pub reports_by_algorithm: HashMap<Algorithm, usize>,
    pub packages_by_algorithm: HashMap<Algorithm, usize>,
    pub reports_by_ub: HashMap<UbKind, usize>,
    pub packages_by_ub: HashMap<UbKind, usize>,
}

/// Run the checker over a synthetic package population.
pub fn prevalence(packages: usize, seed: u64) -> PrevalenceResult {
    let cfg = SynthConfig {
        packages,
        seed,
        ..SynthConfig::default()
    };
    let population = generate(&cfg);
    let session = AnalysisSession::default();
    let mut result = PrevalenceResult {
        packages: population.len(),
        packages_with_reports: 0,
        reports_by_algorithm: HashMap::new(),
        packages_by_algorithm: HashMap::new(),
        reports_by_ub: HashMap::new(),
        packages_by_ub: HashMap::new(),
    };
    for pkg in &population {
        let mut pkg_algorithms = Vec::new();
        let mut pkg_kinds = Vec::new();
        let mut any = false;
        for file in &pkg.files {
            let check = session
                .check_source(&file.source, &file.name)
                .expect("synthetic files compile");
            for report in &check.reports {
                any = true;
                *result
                    .reports_by_algorithm
                    .entry(report.algorithm)
                    .or_insert(0) += 1;
                pkg_algorithms.push(report.algorithm);
                for src in &report.ub_sources {
                    *result.reports_by_ub.entry(src.kind).or_insert(0) += 1;
                    pkg_kinds.push(src.kind);
                }
            }
        }
        if any {
            result.packages_with_reports += 1;
        }
        pkg_algorithms.sort_by_key(|a| a.name());
        pkg_algorithms.dedup();
        for a in pkg_algorithms {
            *result.packages_by_algorithm.entry(a).or_insert(0) += 1;
        }
        pkg_kinds.sort();
        pkg_kinds.dedup();
        for k in pkg_kinds {
            *result.packages_by_ub.entry(k).or_insert(0) += 1;
        }
    }
    result
}

impl PrevalenceResult {
    /// Render the Figure 17 table (reports per algorithm).
    pub fn render_figure17(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 17: reports per algorithm over {} packages ({} with >=1 report, {:.1}%)",
            self.packages,
            self.packages_with_reports,
            100.0 * self.packages_with_reports as f64 / self.packages.max(1) as f64
        );
        for alg in [
            Algorithm::Elimination,
            Algorithm::SimplifyBoolean,
            Algorithm::SimplifyAlgebra,
        ] {
            let _ = writeln!(
                out,
                "  {:<38} {:>8} reports {:>8} packages",
                alg.name(),
                self.reports_by_algorithm.get(&alg).copied().unwrap_or(0),
                self.packages_by_algorithm.get(&alg).copied().unwrap_or(0),
            );
        }
        out
    }

    /// Render the Figure 18 table (reports per UB condition).
    pub fn render_figure18(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Figure 18: reports per undefined-behavior condition");
        let mut kinds: Vec<(&UbKind, &usize)> = self.reports_by_ub.iter().collect();
        kinds.sort_by(|a, b| b.1.cmp(a.1));
        for (kind, count) in kinds {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} reports {:>8} packages",
                kind.description(),
                count,
                self.packages_by_ub.get(kind).copied().unwrap_or(0)
            );
        }
        out
    }
}

/// §6.3 precision: run the checker over the Kerberos- and Postgres-like
/// corpora and classify the reports.
pub struct PrecisionResult {
    pub system: String,
    pub reports: usize,
    pub urgent: usize,
    pub time_bombs: usize,
}

/// Regenerate the §6.3 precision experiment shape.
pub fn sec63_precision() -> Vec<PrecisionResult> {
    let session = AnalysisSession::default();
    let mut out = Vec::new();
    for system in ["Kerberos", "Postgres"] {
        let mut reports = 0usize;
        let mut urgent = 0usize;
        let mut time_bombs = 0usize;
        for bug in figure9_corpus().iter().filter(|b| b.system == system) {
            let result = session.check_source(&bug.source, &bug.file).unwrap();
            for report in &result.reports {
                reports += 1;
                match stack_core::classify_source(&bug.source, &bug.file, report.line) {
                    stack_core::BugClass::UrgentOptimization { .. } => urgent += 1,
                    stack_core::BugClass::TimeBomb => time_bombs += 1,
                }
            }
        }
        out.push(PrecisionResult {
            system: system.to_string(),
            reports,
            urgent,
            time_bombs,
        });
    }
    out
}

/// §6.6 completeness: how many of the ten benchmark tests the checker finds.
pub struct CompletenessResult {
    pub total: usize,
    pub found: usize,
    pub expected_found: usize,
    pub details: Vec<(String, bool, bool)>, // (id, expected, got)
}

/// Regenerate the §6.6 completeness experiment.
pub fn sec66_completeness() -> CompletenessResult {
    let session = AnalysisSession::default();
    let mut details = Vec::new();
    let mut found = 0usize;
    let tests = completeness_benchmark();
    let expected_found = tests.iter().filter(|t| t.expected_found).count();
    for t in &tests {
        let result = session
            .check_source(t.pattern.source, &format!("{}.c", t.pattern.id))
            .unwrap();
        let got = !result.reports.is_empty();
        if got {
            found += 1;
        }
        details.push((t.pattern.id.to_string(), t.expected_found, got));
    }
    CompletenessResult {
        total: tests.len(),
        found,
        expected_found,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_matches_the_papers_matrix() {
        let fig = figure4();
        assert_eq!(fig.rows.len(), 16);
        let row = |name: &str| {
            fig.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.clone())
                .unwrap()
        };
        // Spot-check the paper's most distinctive rows.
        assert_eq!(
            row("gcc-2.95.3"),
            vec![None, None, Some(1), None, None, None]
        );
        assert_eq!(
            row("gcc-4.8.1"),
            vec![Some(2), Some(2), Some(2), Some(2), None, Some(2)]
        );
        assert_eq!(
            row("clang-3.3"),
            vec![Some(1), None, Some(1), None, Some(1), None]
        );
        assert_eq!(row("xlc-12.1"), vec![Some(3), None, None, None, None, None]);
        assert_eq!(
            row("ti-7.4.2"),
            vec![Some(0), None, Some(0), Some(2), None, None]
        );
    }

    #[test]
    fn completeness_finds_seven_of_ten() {
        let result = sec66_completeness();
        assert_eq!(result.total, 10);
        assert_eq!(result.expected_found, 7);
        assert_eq!(result.found, result.expected_found, "{:?}", result.details);
        for (id, expected, got) in &result.details {
            assert_eq!(expected, got, "mismatch for {id}");
        }
    }

    #[test]
    fn prevalence_sample_has_reports() {
        let result = prevalence(12, 3);
        assert_eq!(result.packages, 12);
        assert!(result.packages_with_reports > 0);
        assert!(!result.reports_by_algorithm.is_empty());
    }
}
