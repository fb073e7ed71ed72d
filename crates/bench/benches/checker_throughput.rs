//! Criterion benchmarks for end-to-end checker throughput (the analysis-time
//! column of Figure 16) and for the compiler-profile pipeline (Figure 4).

use criterion::{criterion_group, criterion_main, Criterion};
use stack_core::{Checker, CheckerConfig};
use stack_corpus::{
    generate, SynthConfig, FIG10_POSTGRES_DIVISION, FIG12_FFMPEG_BOUNDS, FIG2_TUN_NULL_CHECK,
};
use stack_opt::{most_aggressive, run_profile};

fn checker_on_paper_examples(c: &mut Criterion) {
    let checker = Checker::new();
    let mut group = c.benchmark_group("checker");
    for pattern in [
        FIG2_TUN_NULL_CHECK,
        FIG10_POSTGRES_DIVISION,
        FIG12_FFMPEG_BOUNDS,
    ] {
        group.bench_function(pattern.id, |b| {
            b.iter(|| {
                criterion::black_box(
                    checker
                        .check_source(pattern.source, &format!("{}.c", pattern.id))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// The fig16 synthetic workload, with and without the memoized query
/// cache.
fn checker_on_synthetic_population(c: &mut Criterion) {
    let synth = SynthConfig {
        packages: 4,
        seed: 47,
        ..SynthConfig::default()
    };
    let mut modules = Vec::new();
    for pkg in generate(&synth) {
        for file in &pkg.files {
            let mut module =
                stack_minic::compile(&file.source, &file.name).expect("synthetic files compile");
            stack_opt::optimize_for_analysis(&mut module);
            modules.push(module);
        }
    }
    let mut group = c.benchmark_group("checker_population");
    for (name, query_cache) in [("uncached", false), ("cached", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let checker = Checker::with_config(CheckerConfig {
                    query_budget: 500_000,
                    query_cache,
                    ..CheckerConfig::default()
                });
                let mut reports = 0usize;
                for module in &modules {
                    reports += checker.check_module(module).reports.len();
                }
                criterion::black_box(reports)
            })
        });
    }
    group.finish();
}

fn profile_pipeline(c: &mut Criterion) {
    c.bench_function("opt/aggressive_profile_on_fig12", |b| {
        b.iter(|| {
            let mut module = stack_minic::compile(FIG12_FFMPEG_BOUNDS.source, "fig12.c").unwrap();
            criterion::black_box(run_profile(&mut module, &most_aggressive(), 2))
        })
    });
}

criterion_group!(
    benches,
    checker_on_paper_examples,
    checker_on_synthetic_population,
    profile_pipeline
);
criterion_main!(benches);
