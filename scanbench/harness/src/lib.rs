//! The archive-scan benchmark's compiled half: seeded archive generation,
//! the measured spawn of one `stack scan` process, and the traced
//! per-layer driver. `scanbench/run.py` drives all three through this
//! crate's binary.

pub mod child;
pub mod driver;
pub mod spans;

use driver::{Pass, ROOT};
use spans::{coverage, self_times};
use std::collections::BTreeMap;

/// The least share of a traced pass that the layer spans must account
/// for; below it the per-layer split leaves too much unexplained.
pub const MIN_COVERAGE: f64 = 0.9;

/// Per-layer metrics reported as a layer's self time, by span name.
const SELF_MS: [(&str, &str); 12] = [
    ("minic.compile_ms", "minic.compile"),
    ("opt.optimize_ms", "opt.optimize"),
    ("fingerprint.replay_key_ms", "fingerprint.replay_key"),
    ("scanstore.open_ms", "scanstore.open"),
    ("scanstore.lookup_ms", "scanstore.lookup"),
    ("scanstore.insert_ms", "scanstore.insert"),
    ("scanstore.save_ms", "scanstore.save"),
    ("ubcond.collect_ms", "ubcond.collect"),
    ("querystore.lookup_ms", "querystore.lookup"),
    ("querystore.insert_ms", "querystore.insert"),
    ("querystore.open_ms", "querystore.open"),
    ("querystore.save_ms", "querystore.save"),
];

/// Counters reported as they are.
const COUNTS: [&str; 24] = [
    "minic.functions",
    "ir.insts",
    "opt.promoted_allocas",
    "opt.removed_insts",
    "ir.insts_after_opt",
    "fingerprint.keys",
    "scanstore.entries",
    "scanstore.bytes",
    "ubcond.conditions",
    "querystore.lookups",
    "querystore.entries",
    "querystore.bytes",
    "session.functions_checked",
    "solver.queries",
    "solver.misses",
    "solver.sat",
    "solver.unsat",
    "solver.timeouts",
    "solver.propagations",
    "solver.conflicts",
    "solver.learned_clauses",
    "solver.model_cache_hits",
    "solver.core_cache_hits",
    "solver.minimization_saved",
];

/// What a set of passes over one input measured.
pub struct Summary {
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Whether every pass, traced or not, produced the same counters and
    /// the same reported functions.
    pub repeatable: bool,
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fold traced and untraced passes of the same input into the per-layer
/// metrics: times are medians over the traced passes, counters come from
/// the first pass, and overhead compares traced to untraced wall time.
pub fn summarize(traced: &[Pass], untraced: &[Pass]) -> Summary {
    let first = &traced[0];
    let repeatable = traced
        .iter()
        .chain(untraced)
        .all(|p| p.counts == first.counts && p.reported == first.reported);
    let layers: Vec<_> = traced.iter().map(|p| self_times(&p.spans)).collect();
    let ms = |f: &dyn Fn(&BTreeMap<&'static str, spans::LayerTime>) -> u64| {
        median(layers.iter().map(|l| f(l) as f64 / 1e6).collect())
    };

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in SELF_MS {
        metrics.insert(metric, ms(&|l| l.get(span).map_or(0, |t| t.self_ns)));
    }
    let check = |l: &BTreeMap<_, spans::LayerTime>| l.get("session.check").copied();
    metrics.insert(
        "session.check_ms",
        ms(&|l| check(l).map_or(0, |t| t.total_ns)),
    );
    metrics.insert("check.self_ms", ms(&|l| check(l).map_or(0, |t| t.self_ns)));
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0);
    for name in COUNTS {
        metrics.insert(name, count(name) as f64);
    }
    metrics.insert(
        "scanstore.replay_ratio",
        ratio(count("scanstore.hits"), count("scanstore.lookups")),
    );
    metrics.insert(
        "querystore.hit_ratio",
        ratio(count("querystore.hits"), count("querystore.lookups")),
    );
    metrics.insert(
        "solver.props_per_miss",
        ratio(count("solver.propagations"), count("solver.misses")),
    );
    let traced_ms = ms(&|l| l.get(ROOT).map_or(0, |t| t.total_ns));
    let untraced_ms = median(untraced.iter().map(|p| p.wall_ns as f64 / 1e6).collect());
    metrics.insert("trace.traced_ms", traced_ms);
    metrics.insert("trace.untraced_ms", untraced_ms);
    metrics.insert("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    metrics.insert(
        "trace.coverage_frac",
        median(layers.iter().map(|l| coverage(l, ROOT)).collect()),
    );
    Summary {
        metrics,
        repeatable,
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
