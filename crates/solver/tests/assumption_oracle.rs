//! Incremental solving under assumptions, checked against an oracle that
//! shares no code with the solver: brute-force enumeration of all 2^12
//! assignments.
//!
//! Each case loads clause batches one at a time, so the formula grows in
//! the middle of a query sequence, and asks overlapping assumption sets:
//! every query assumes a subset of one shared set plus literals of its own,
//! the shape of the checker's minimal-UB-set loop. Every verdict must equal
//! the enumeration's, and every `Sat` model must satisfy all clauses added
//! so far and the query's assumptions.

use proptest::prelude::*;
use stack_solver::lit::{Lit, Var};
use stack_solver::sat::{Budget, SatResult, SatSolver};

/// A clause or assumption set as (variable index, polarity) pairs.
type Lits = Vec<(usize, bool)>;

const NUM_VARS: usize = 12;

fn to_lits(spec: &[(usize, bool)]) -> Vec<Lit> {
    spec.iter()
        .map(|&(v, pos)| Lit::new(Var(v as u32), pos))
        .collect()
}

fn holds(assignment: u32, &(v, pos): &(usize, bool)) -> bool {
    (assignment >> v & 1 == 1) == pos
}

/// Every assignment (bit `v` is variable `v`) that satisfies all clauses.
fn models(clauses: &[Lits]) -> Vec<u32> {
    (0..1u32 << NUM_VARS)
        .filter(|&a| clauses.iter().all(|c| c.iter().any(|l| holds(a, l))))
        .collect()
}

fn lits(max: usize) -> impl Strategy<Value = Lits> {
    prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_verdicts_and_models_match_enumeration(
        batches in prop::collection::vec(prop::collection::vec(lits(4), 1..16), 1..4),
        shared in lits(5),
        queries in prop::collection::vec((any::<u8>(), lits(3)), 2..10),
    ) {
        let mut solver = SatSolver::new();
        for _ in 0..NUM_VARS {
            solver.new_var();
        }
        let mut loaded: Vec<Lits> = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            for clause in batch {
                solver.add_clause(&to_lits(clause));
            }
            loaded.extend(batch.iter().cloned());
            let satisfying = models(&loaded);
            for (q, (mask, own)) in queries.iter().enumerate() {
                let assumed: Lits = shared
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &l)| l)
                    .chain(own.iter().copied())
                    .collect();
                let got = solver.solve_with(&to_lits(&assumed), Budget::unlimited());
                let want = if satisfying.iter().any(|&a| assumed.iter().all(|l| holds(a, l))) {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                };
                prop_assert_eq!(got, want, "batch {} query {} assuming {:?}", b, q, assumed);
                if got == SatResult::Sat {
                    let value = |&(v, pos): &(usize, bool)| {
                        solver.model_value(Var(v as u32)) == pos
                    };
                    prop_assert!(
                        loaded.iter().all(|c| c.iter().any(value)),
                        "batch {b} query {q}: model violates a loaded clause"
                    );
                    prop_assert!(
                        assumed.iter().all(value),
                        "batch {b} query {q}: model violates an assumption"
                    );
                }
            }
        }
    }
}
