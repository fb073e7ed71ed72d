//! `stack-core` — the STACK checker.
//!
//! This crate is the reproduction of the primary contribution of
//! *Towards Optimization-Safe Systems: Analyzing the Impact of Undefined
//! Behavior* (Wang, Zeldovich, Kaashoek, Solar-Lezama; SOSP 2013): a static
//! checker that identifies **optimization-unstable code** — code a compiler
//! may silently discard because it is only relevant on executions that
//! trigger undefined behavior.
//!
//! The pipeline mirrors Figure 7 of the paper:
//!
//! 1. the mini-C frontend (`stack-minic`) lowers source to IR and the
//!    analysis pre-pass (`stack-opt`) promotes locals to SSA;
//! 2. [`ubcond`] computes the undefined-behavior conditions of Figure 3 for
//!    every instruction;
//! 3. an [`AnalysisSession`] runs the solver-based elimination and
//!    simplification algorithms of §3.2 (described in [`checker`]) against
//!    the `stack-solver` bit-vector solver, using the per-function
//!    approximations of §4.4 (dominator-scoped Δ and function-local
//!    reachability);
//! 4. [`report`] produces bug reports with the minimal UB set of Figure 8,
//!    suppressing macro/inline-generated code, and [`classify`] separates
//!    urgent optimization bugs from time bombs by re-running the surveyed
//!    compiler profiles of `stack-opt`.
//!
//! ```
//! use stack_core::AnalysisSession;
//!
//! let src = "int f(int *p) { int v = *p; if (!p) return 1; return v; }";
//! let result = AnalysisSession::default().check_source(src, "demo.c").unwrap();
//! assert!(!result.reports.is_empty());
//! ```

pub mod checker;
pub mod classify;
pub mod encoder;
pub mod faultinject;
pub mod fingerprint;
pub mod report;
pub mod scan;
pub mod scanstore;
pub mod session;
pub mod ubcond;

pub use checker::{CheckResult, CheckStats, CheckerConfig};
pub use classify::{classify_source, BugClass};
pub use encoder::FunctionEncoder;
pub use fingerprint::{
    content_key, function_digest, function_replay_key, origin_signature, shard_assignment,
    FunctionKey,
};
pub use report::{Algorithm, BugReport, UbSource};
pub use scan::{ScanEvent, ScanOutcome, ScanPipeline, ScanSource, ScanTask};
pub use scanstore::{FunctionRecord, ScanCodec, ScanStore};
pub use session::{AnalysisSession, FunctionCheck};
pub use ubcond::{collect_ub_conditions, UbCondition, UbKind};
