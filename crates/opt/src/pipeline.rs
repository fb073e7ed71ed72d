//! Optimization pipelines.
//!
//! [`optimize_for_analysis`] is the canonical pre-pass the checker runs
//! before UB-condition insertion (SSA promotion plus ordinary cleanup, no
//! UB-exploiting rewrites — those are what the checker itself reasons about).
//! [`run_profile`] emulates a real compiler at a given `-O` level and reports
//! which checks it discarded, which drives the Figure 4 experiment and the
//! urgent-optimization-bug classification of §6.2.

use crate::profile::CompilerProfile;
use crate::ub_rewrites::{OptEvent, UbRewrite};
use crate::{dce, mem2reg, simplify, simplifycfg};
use stack_ir::{Function, Module};

/// Statistics from one pipeline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub promoted_allocas: usize,
    pub simplified: usize,
    pub folded_branches: usize,
    pub removed_insts: usize,
}

/// Prepare a module for analysis: promote locals to SSA and run ordinary
/// (UB-agnostic) cleanup. This corresponds to the "first phase" of the
/// paper's two-phase scheme (§3.2): optimizations valid under C*.
///
/// Debug builds run the IR verifier after every pass and panic, naming the
/// pass and the function, on the first malformed result.
pub fn optimize_for_analysis(module: &mut Module) -> PipelineStats {
    let mut stats = PipelineStats::default();
    for func in module.functions_mut() {
        stats.promoted_allocas += mem2reg::run(func);
        debug_verify("mem2reg", func);
        stats.simplified += simplify::run(func);
        debug_verify("simplify", func);
        stats.folded_branches += simplifycfg::run(func);
        debug_verify("simplifycfg", func);
        // Keep memory accesses: they carry the UB conditions the checker
        // inserts in the next stage.
        stats.removed_insts += dce::run_keeping_loads(func);
        debug_verify("dce", func);
    }
    stats
}

/// Panic if `pass` left `func` malformed (debug builds only).
fn debug_verify(pass: &str, func: &Function) {
    if !cfg!(debug_assertions) {
        return;
    }
    if let Err(errors) = stack_ir::verify_function(func) {
        let errors: Vec<&str> = errors.iter().map(|e| e.message.as_str()).collect();
        panic!(
            "IR verifier failed after `{pass}` on function `{}`: {}",
            func.name,
            errors.join("; ")
        );
    }
}

/// Apply a set of UB-exploiting rewrites to a whole module (after the
/// analysis pre-pass) and clean up. Returns the events describing every
/// check that was folded or rewritten.
pub fn optimize_with_rewrites(module: &mut Module, rewrites: &[UbRewrite]) -> Vec<OptEvent> {
    let mut events = Vec::new();
    for func in module.functions_mut() {
        mem2reg::run(func);
        simplify::run(func);
        events.extend(crate::ub_rewrites::run(func, rewrites));
        simplify::run(func);
        simplifycfg::run(func);
        dce::run(func);
    }
    events
}

/// Emulate a compiler profile at an optimization level over a module.
/// Level 0 still performs ordinary cleanup (every real compiler folds
/// constants even at `-O0`); the profile decides which UB-based rewrites are
/// enabled.
pub fn run_profile(module: &mut Module, profile: &CompilerProfile, level: u8) -> Vec<OptEvent> {
    let rewrites = profile.enabled_rewrites(level);
    optimize_with_rewrites(module, &rewrites)
}

/// For a single unstable-code example, find the lowest optimization level at
/// which the profile discards (or rewrites) a check anywhere in `source`. Returns `None` if the
/// check survives every level — the "–" entries of Figure 4.
pub fn lowest_discarding_level(source: &str, profile: &CompilerProfile) -> Option<u8> {
    for level in 0..=CompilerProfile::MAX_LEVEL {
        let mut module = stack_minic::compile(source, "survey.c").ok()?;
        let events = run_profile(&mut module, profile, level);
        if !events.is_empty() {
            return Some(level);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{most_aggressive, survey_compilers};
    use stack_minic::compile;

    #[test]
    fn analysis_pipeline_promotes_and_cleans() {
        let mut m = compile(
            "int f(int x) { int y = x + 1; int z = y + 1; return z; }",
            "t.c",
        )
        .unwrap();
        let stats = optimize_for_analysis(&mut m);
        assert!(stats.promoted_allocas >= 2);
        let text = stack_ir::print_function(m.function("f").unwrap());
        assert!(!text.contains("alloca"));
    }

    #[test]
    fn aggressive_profile_discards_figure1_check() {
        let src = "int f(char *p) { if (p + 100 < p) return 1; return 0; }";
        let level = lowest_discarding_level(src, &most_aggressive());
        assert_eq!(level, Some(0));
    }

    #[test]
    fn gcc295_only_discards_signed_overflow_example() {
        let profiles = survey_compilers();
        let gcc295 = profiles.iter().find(|p| p.name == "gcc-2.95.3").unwrap();
        let ptr = "int f(char *p) { if (p + 100 < p) return 1; return 0; }";
        let signed_ = "int f(int x) { if (x + 100 < x) return 1; return 0; }";
        assert_eq!(lowest_discarding_level(ptr, gcc295), None);
        assert_eq!(lowest_discarding_level(signed_, gcc295), Some(1));
    }

    #[test]
    fn msvc_discards_null_check_at_o1() {
        let profiles = survey_compilers();
        let msvc = profiles.iter().find(|p| p.name == "msvc-11.0").unwrap();
        let src = "int f(int *p) { int v = *p; if (!p) return 1; return v; }";
        assert_eq!(lowest_discarding_level(src, msvc), Some(1));
    }
}
