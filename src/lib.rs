//! `stack-repro` — a Rust reproduction of *Towards Optimization-Safe Systems:
//! Analyzing the Impact of Undefined Behavior* (Wang et al., SOSP 2013).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`solver`] — the QF_BV decision procedure (Boolector stand-in);
//! * [`ir`] — the SSA intermediate representation (LLVM IR stand-in);
//! * [`minic`] — the mini-C frontend (clang stand-in);
//! * [`opt`] — optimizer passes and the Figure 4 compiler profiles;
//! * [`core`] — the STACK checker itself;
//! * [`corpus`] — the unstable-code corpora used by the experiments.
//!
//! See `examples/quickstart.rs` for the three-line usage pattern, and the
//! `stack-bench` crate for the binaries that regenerate every table and
//! figure of the paper's evaluation.

pub use stack_core as core;
pub use stack_corpus as corpus;
pub use stack_ir as ir;
pub use stack_minic as minic;
pub use stack_opt as opt;
pub use stack_solver as solver;

pub use stack_core::{
    Algorithm, AnalysisSession, BugReport, CheckResult, CheckerConfig, ScanPipeline, ScanStore,
    UbKind,
};
pub use stack_solver::{DiskQueryStore, QueryStore};
