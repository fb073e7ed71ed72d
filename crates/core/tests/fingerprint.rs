//! Property coverage for a module's fingerprint as the scan store sees it:
//! the multiset of its functions' replay keys. For random modules drawn
//! from the unstable-idiom template pool, it is invariant under same-line
//! formatting/comment changes and under reordering definitions that share
//! a line, but changes whenever an instruction, a UB condition, or a
//! semantics-relevant config knob changes. A comment that pushes functions
//! onto later lines re-keys exactly those functions, because replayed
//! reports embed line numbers.

use proptest::prelude::*;
use stack_core::{function_replay_key, CheckerConfig, FunctionKey};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One random function definition drawn from a template pool spanning the
/// checker's UB-condition repertoire (null deref, signed overflow, pointer
/// overflow, oversized shift, division).
fn random_function(name: &str, state: &mut u64) -> String {
    let k = 1 + lcg(state) % 97;
    match lcg(state) % 6 {
        0 => format!("int {name}(struct pkt *p) {{ long s = p->seq; if (!p) return {k}; return (int)s; }}"),
        1 => format!("int {name}(int x) {{ if (x + {k} < x) return 1; return x; }}"),
        2 => format!("int {name}(char *b, unsigned int l) {{ if (b + l < b) return -{k}; return 0; }}"),
        3 => format!("int {name}(unsigned int v, int s) {{ unsigned int r = v << s; if (s >= 32) return {k}; return (int)r; }}"),
        4 => format!("int {name}(int a, int b) {{ int q = (a + {k}) / b; if (b == 0) return -1; return q; }}"),
        _ => format!("int {name}(int a, int b) {{ if (b == 0) return -1; return a / b + {k}; }}"),
    }
}

/// A random module of 1–5 functions, returned one definition per element.
fn random_module(state: &mut u64) -> Vec<String> {
    let n = 1 + (lcg(state) % 5) as usize;
    (0..n)
        .map(|i| random_function(&format!("fn_{i}"), state))
        .collect()
}

/// A same-line cosmetic rewrite of a module rendered on one line: random
/// spacing and block comments between definitions, plus doubled
/// inter-token spacing — everything the lexer throws away, and no newline.
fn cosmetic_rewrite(functions: &[String], state: &mut u64) -> String {
    let mut out = String::new();
    for f in functions {
        match lcg(state) % 4 {
            0 => out.push_str(" /* a block comment */ "),
            1 => out.push('\t'),
            2 => out.push_str("   "),
            _ => out.push(' '),
        }
        let spaced = if lcg(state).is_multiple_of(2) {
            f.replace(" { ", "  {  ").replace("; ", ";   ")
        } else {
            f.clone()
        };
        out.push_str(&spaced);
    }
    if lcg(state).is_multiple_of(2) {
        out.push_str("   /* trailing */");
    }
    out.push('\n');
    out
}

/// Replay keys of a compiled module, in definition order.
fn keys_with(src: &str, config: &CheckerConfig) -> Vec<FunctionKey> {
    let mut module = stack_minic::compile(src, "prop.c").expect("module compiles");
    stack_opt::optimize_for_analysis(&mut module);
    module
        .functions()
        .iter()
        .map(|f| function_replay_key(f, config))
        .collect()
}

/// The module's fingerprint: its replay keys as a multiset (sorted).
fn fp_with(src: &str, config: &CheckerConfig) -> Vec<FunctionKey> {
    let mut keys = keys_with(src, config);
    keys.sort_unstable();
    keys
}

fn fp(src: &str) -> Vec<FunctionKey> {
    fp_with(src, &CheckerConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cosmetic_rewrites_and_reordering_preserve_the_fingerprint(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(7);
        let functions = random_module(&mut state);
        // Every definition on line 1, so reordering moves no line.
        let plain = functions.join(" ") + "\n";
        let base = fp(&plain);

        // Two independent same-line cosmetic rewrites agree with the plain
        // rendering.
        for _ in 0..2 {
            prop_assert_eq!(&base, &fp(&cosmetic_rewrite(&functions, &mut state)));
        }

        // Any rotation of the definition order agrees (semantics per
        // function are untouched; only the order changes).
        if functions.len() > 1 {
            let rot = 1 + (lcg(&mut state) as usize) % (functions.len() - 1);
            let mut rotated = functions.clone();
            rotated.rotate_left(rot);
            prop_assert_eq!(&base, &fp(&(rotated.join(" ") + "\n")));
            // Reordering *and* reformatting at once still agrees.
            prop_assert_eq!(&base, &fp(&cosmetic_rewrite(&rotated, &mut state)));
        }

        // A line comment before definition `j` pushes it and every later
        // definition to line 2: exactly those re-key, because replayed
        // reports embed line numbers.
        let j = (lcg(&mut state) as usize) % functions.len();
        let shifted = format!(
            "{} // pushed down\n{}\n",
            functions[..j].join(" "),
            functions[j..].join(" ")
        );
        let before = keys_with(&plain, &CheckerConfig::default());
        let after = keys_with(&shifted, &CheckerConfig::default());
        prop_assert_eq!(&before[..j], &after[..j]);
        for i in j..functions.len() {
            prop_assert!(before[i] != after[i], "function {} moved but kept its key", i);
        }
    }

    #[test]
    fn semantic_and_config_changes_break_the_fingerprint(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x2545_f491).wrapping_add(11);
        let functions = random_module(&mut state);
        let source = functions.join("\n") + "\n";
        let base = fp(&source);

        // Appending a new function changes the module.
        prop_assert!(
            base != fp(&format!("{source}int extra(int x) {{ return x + 1; }}\n")),
            "appending a function must re-key"
        );

        // Changing any embedded constant changes some instruction. (Every
        // template embeds its `k` as a decimal literal; bump the first one.)
        let idx = source.find(|c: char| c.is_ascii_digit()).unwrap();
        let digits_end = source[idx..]
            .find(|c: char| !c.is_ascii_digit())
            .map(|off| idx + off)
            .unwrap();
        let value: u64 = source[idx..digits_end].parse().unwrap();
        let mutated = format!(
            "{}{}{}",
            &source[..idx],
            value + 1,
            &source[digits_end..]
        );
        if source.matches(&format!("{value}")).count() >= 1 {
            prop_assert!(base != fp(&mutated), "constant {} -> {}", value, value + 1);
        }

        // Semantics-relevant config knobs re-key; performance knobs do not.
        let cfg = CheckerConfig::default();
        let budget = CheckerConfig { query_budget: cfg.query_budget / 2, ..cfg };
        prop_assert!(
            base != fp_with(&source, &budget),
            "query_budget must re-key"
        );
        let perf = CheckerConfig {
            threads: Some(3),
            query_cache: false,
            incremental: false,
            ..cfg
        };
        prop_assert_eq!(base, fp_with(&source, &perf));
    }
}
