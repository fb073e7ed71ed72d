//! The Postgres signed-division case study of §6.2.1 (Figure 10) and the
//! time-bomb follow-up fix of Figure 14: the overflow check placed after the
//! division is unstable, and the developers' replacement check is a time
//! bomb that a future compiler may also discard.
//!
//! Run with: `cargo run --example postgres_division`

use stack_core::{classify_source, AnalysisSession};
use stack_corpus::{FIG10_POSTGRES_DIVISION, FIG14_POSTGRES_TIMEBOMB};

fn main() {
    let session = AnalysisSession::default();
    for (pattern, note) in [
        (FIG10_POSTGRES_DIVISION, "original int8div overflow check"),
        (FIG14_POSTGRES_TIMEBOMB, "developers' replacement check"),
    ] {
        println!("=== {note} ({}) ===", pattern.paper_ref);
        println!("{}\n", pattern.source);
        let result = session
            .check_source(pattern.source, &format!("{}.c", pattern.id))
            .unwrap();
        for report in &result.reports {
            print!("{report}");
            let class = classify_source(pattern.source, &format!("{}.c", pattern.id), report.line);
            println!("  classification: {}\n", class.label());
        }
    }
}
