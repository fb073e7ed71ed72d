//! The full query pipeline — presimplify, bit-blast, CNF, CDCL — checked
//! against an oracle that trusts none of it: enumeration of every
//! assignment of at most 16 free bits through `TermPool::eval`, the
//! reference semantics of the term language.
//!
//! Each case builds random small bit-vector terms over a few variables of
//! one width, mixing constants into the operands of the operators whose
//! encodings are the most intricate — multiplication, division, remainder
//! and the three shifts — and into comparisons. The constants favour edge
//! values: zero divisors, shift amounts at and past the width, the signed
//! minimum. Every non-empty subset of the case's assertions is then asked
//! of a fresh-mode solver and, in sequence, of one incremental solver, the
//! checker's query shape. Every verdict must equal the enumeration's, and
//! every `Sat` model must satisfy the query's assertions.

use proptest::prelude::*;
use stack_solver::{mask, BvSolver, QueryResult, Sort, TermId, TermPool};

/// (width, variables): at most 16 free bits in total.
const SHAPES: [(u32, usize); 5] = [(3, 3), (4, 3), (5, 3), (6, 2), (8, 2)];

/// Draws choices from the case's random words, one at a time.
struct Choices<'a> {
    words: &'a [u64],
    next: usize,
}

impl Choices<'_> {
    fn pick(&mut self, n: usize) -> usize {
        let word = self.words[self.next % self.words.len()];
        self.next += 1;
        // Mix the position in, so a short word list still varies.
        (word.rotate_left(self.next as u32 % 64) % n as u64) as usize
    }

    /// A constant of `width` bits, biased towards edge values.
    fn constant(&mut self, pool: &mut TermPool, width: u32) -> TermId {
        let value = match self.pick(8) {
            0 => 0,
            1 => 1,
            2 => mask(u64::MAX, width),
            3 => 1 << (width - 1),
            4 => (1 << (width - 1)) - 1,
            5 => u64::from(width),
            6 => u64::from(width) - 1,
            _ => self.pick(1 << width) as u64,
        };
        pool.bv_const(width, value)
    }
}

/// Grow a list of bit-vector terms from the variables, then build one to
/// four boolean assertions over it.
fn build(pool: &mut TermPool, width: u32, vars: &[TermId], c: &mut Choices) -> Vec<TermId> {
    let mut terms: Vec<TermId> = vars.to_vec();
    for _ in 0..2 + c.pick(5) {
        let a = terms[c.pick(terms.len())];
        // Constant operands for roughly half the operations, on either side.
        let b = match c.pick(4) {
            0 | 1 => c.constant(pool, width),
            _ => terms[c.pick(terms.len())],
        };
        let (a, b) = if c.pick(4) == 0 { (b, a) } else { (a, b) };
        let t = match c.pick(12) {
            0 => pool.bv_mul(a, b),
            1 => pool.bv_udiv(a, b),
            2 => pool.bv_sdiv(a, b),
            3 => pool.bv_urem(a, b),
            4 => pool.bv_shl(a, b),
            5 => pool.bv_lshr(a, b),
            6 => pool.bv_ashr(a, b),
            7 => pool.bv_add(a, b),
            8 => pool.bv_sub(a, b),
            9 => pool.bv_srem(a, b),
            10 => pool.bv_xor(a, b),
            _ => pool.bv_neg(a),
        };
        terms.push(t);
    }
    (0..1 + c.pick(4))
        .map(|_| {
            let a = terms[c.pick(terms.len())];
            let b = match c.pick(3) {
                0 => c.constant(pool, width),
                _ => terms[c.pick(terms.len())],
            };
            let cmp = match c.pick(8) {
                0 => pool.eq(a, b),
                1 => pool.ne(a, b),
                2 => pool.bv_ult(a, b),
                3 => pool.bv_ule(a, b),
                4 => pool.bv_slt(a, b),
                5 => pool.bv_sle(a, b),
                6 => pool.bv_ugt(a, b),
                _ => pool.bv_sge(a, b),
            };
            if c.pick(5) == 0 {
                pool.not(cmp)
            } else {
                cmp
            }
        })
        .collect()
}

/// For every assignment, the bit set of assertions it satisfies; the
/// distinct sets are all a subset query needs.
fn satisfied_sets(
    pool: &TermPool,
    width: u32,
    names: &[String],
    assertions: &[TermId],
) -> Vec<u32> {
    let mut sets = Vec::new();
    for assignment in 0..1u64 << (width * names.len() as u32) {
        let value = |name: &str, _: Sort| {
            let i = names
                .iter()
                .position(|n| n == name)
                .expect("known variable");
            mask(assignment >> (width * i as u32), width)
        };
        let set = assertions
            .iter()
            .enumerate()
            .filter(|&(_, &a)| pool.eval(a, &value) != 0)
            .fold(0u32, |set, (i, _)| set | 1 << i);
        if !sets.contains(&set) {
            sets.push(set);
        }
    }
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verdicts_and_models_match_enumeration(
        shape in 0usize..SHAPES.len(),
        words in prop::collection::vec(any::<u64>(), 8..48),
    ) {
        let (width, nvars) = SHAPES[shape];
        let mut pool = TermPool::new();
        let names: Vec<String> = (0..nvars).map(|i| format!("v{i}")).collect();
        let vars: Vec<TermId> = names.iter().map(|n| pool.bv_var(n, width)).collect();
        let mut choices = Choices { words: &words, next: 0 };
        let assertions = build(&mut pool, width, &vars, &mut choices);
        let sets = satisfied_sets(&pool, width, &names, &assertions);

        let mut fresh = BvSolver::new();
        let mut incremental = BvSolver::new().with_incremental(true);
        for query in 1u32..1 << assertions.len() {
            let asked: Vec<TermId> = (0..assertions.len())
                .filter(|i| query >> i & 1 == 1)
                .map(|i| assertions[i])
                .collect();
            let want_sat = sets.iter().any(|&set| set & query == query);
            let shown = || asked.iter().map(|&a| pool.display(a)).collect::<Vec<_>>();
            for (mode, solver) in [("fresh", &mut fresh), ("incremental", &mut incremental)] {
                match solver.check(&pool, &asked) {
                    QueryResult::Sat(model) => {
                        prop_assert!(want_sat, "{} said Sat, enumeration Unsat: {:?}", mode, shown());
                        for &a in &asked {
                            prop_assert!(
                                model.eval_bool(&pool, a),
                                "{} model {} violates {}", mode, model, pool.display(a)
                            );
                        }
                    }
                    QueryResult::Unsat => {
                        prop_assert!(!want_sat, "{} said Unsat, enumeration Sat: {:?}", mode, shown());
                    }
                    QueryResult::Unknown => panic!("{mode}: Unknown without a budget: {:?}", shown()),
                }
            }
        }
    }
}
