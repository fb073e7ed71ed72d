//! The traced driver on small generated archives: traced and untraced
//! passes agree, the layer spans account for the traced total, and the
//! reported functions match the generator's ground truth.

use scanbench::driver::{run_pass, Pass};
use scanbench::{summarize, MIN_COVERAGE};
use stack_corpus::{churn_archive, generate_archive, ArchiveConfig, ArchiveFile};
use std::fs;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("scanbench-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("src")).unwrap();
    dir
}

fn write(dir: &Path, files: &[ArchiveFile]) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = files
        .iter()
        .map(|f| {
            let path = dir.join("src").join(&f.name);
            fs::write(&path, &f.source).unwrap();
            path
        })
        .collect();
    paths.sort();
    paths
}

fn pass(dir: &Path, paths: &[PathBuf], traced: bool, fresh_stores: bool) -> Pass {
    let (query, scan) = (dir.join("q.qs"), dir.join("s.ss"));
    if fresh_stores {
        let _ = fs::remove_file(&query);
        let _ = fs::remove_file(&scan);
    }
    run_pass(paths, &query, &scan, traced).unwrap()
}

fn assert_matches_truth(pass: &Pass, files: &[ArchiveFile]) {
    for file in files {
        let reported = pass.reported.get(&file.name).map_or(0, |f| f.len());
        assert_eq!(reported, file.injected, "{}", file.name);
    }
    assert!(pass
        .reported
        .keys()
        .all(|name| files.iter().any(|f| &f.name == name)));
}

#[test]
fn traced_pass_repeats_the_untraced_one_and_its_spans_cover_it() {
    let dir = fresh_dir("cold");
    let files = generate_archive(&ArchiveConfig {
        packages: 6,
        seed: 5,
        ..ArchiveConfig::default()
    });
    let paths = write(&dir, &files);
    let untraced = pass(&dir, &paths, false, true);
    let traced = pass(&dir, &paths, true, true);
    assert!(untraced.spans.is_empty());
    assert_matches_truth(&traced, &files);

    let summary = summarize(&[traced], &[untraced]);
    assert!(summary.repeatable, "traced and untraced passes disagree");
    let m = &summary.metrics;
    let coverage = m["trace.coverage_frac"];
    assert!(
        (MIN_COVERAGE..=1.0).contains(&coverage),
        "layer spans cover {coverage} of the traced pass"
    );
    assert_eq!(m["minic.functions"], (files.len() * 5) as f64);
    assert_eq!(m["fingerprint.keys"], m["minic.functions"]);
    assert!(m["check.self_ms"] <= m["session.check_ms"]);
    assert!(m["solver.misses"] > 0.0 && m["querystore.lookups"] > 0.0);
}

#[test]
fn edited_rescan_checks_only_the_added_functions() {
    let dir = fresh_dir("rescan");
    let base = generate_archive(&ArchiveConfig {
        packages: 6,
        seed: 9,
        ..ArchiveConfig::default()
    });
    let paths = write(&dir, &base);
    pass(&dir, &paths, false, true);

    let churned = churn_archive(&base, 9, 0.25);
    assert!(churned.semantic_edits > 0);
    let paths = write(&dir, &churned.files);
    let rescan = pass(&dir, &paths, true, false);
    assert_matches_truth(&rescan, &churned.files);
    let functions = (base.len() * 5 + churned.semantic_edits) as u64;
    assert_eq!(rescan.counts["scanstore.lookups"], functions);
    assert_eq!(
        rescan.counts["scanstore.hits"],
        functions - churned.semantic_edits as u64
    );
    assert_eq!(
        rescan.counts["session.functions_checked"],
        churned.semantic_edits as u64
    );
}
