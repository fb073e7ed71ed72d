//! Archive-population generator for the cross-run persistence workload.
//!
//! The §6.5 deployment mode scans a whole package archive, and the payoff of
//! a disk-backed query store comes from *structural overlap*: the same
//! unstable idioms re-instantiated across packages, so their queries hit the
//! store instead of the SAT core. The [`synth`](crate::synth) population
//! deliberately varies constants per instance (every injected bug is
//! distinguishable); this module generates the opposite shape — every
//! function body is drawn from a fixed pool of (template, constant-variant)
//! idioms with fixed parameter names, so instantiating the same pool slot in
//! different packages encodes to structurally identical solver queries.
//! Only function names differ, and names of functions never appear in query
//! terms.
//!
//! That makes the archive the right workload for measuring both layers of
//! reuse: a cold scan solves each pool slot once (the
//! [`ArchiveConfig::variants`] knob controls how many such first-sightings
//! it must pay for, and the pool includes deliberately expensive
//! multiplication/division circuits) and answers every repeat from the
//! in-memory table; a warm re-run against the saved store answers every
//! decided query from disk without entering the SAT core at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct ArchiveConfig {
    /// Number of packages.
    pub packages: usize,
    /// Files per package (exact).
    pub files_per_package: usize,
    /// Functions per file (exact).
    pub functions_per_file: usize,
    /// Probability that a function is an unstable idiom rather than a
    /// stable one.
    pub unstable_fraction: f64,
    /// Constant variants per unstable template. Each variant embeds a
    /// different literal, so it encodes to a *distinct* solver query: a cold
    /// scan must solve each (template, variant) pair once, while a warm
    /// re-run answers all of them from the persisted store. Raising this
    /// widens the cold/warm gap; 1 collapses every template to a single
    /// shape.
    pub variants: usize,
    /// RNG seed (the population is deterministic given the seed).
    pub seed: u64,
}

impl Default for ArchiveConfig {
    fn default() -> ArchiveConfig {
        ArchiveConfig {
            packages: 24,
            files_per_package: 2,
            functions_per_file: 5,
            unstable_fraction: 0.4,
            variants: 8,
            seed: 0xa2c41,
        }
    }
}

/// One generated source file of the archive.
#[derive(Clone, Debug)]
pub struct ArchiveFile {
    /// Owning package (`archive-0007`).
    pub package: String,
    /// File name (`archive-0007_1.mc`).
    pub name: String,
    /// Mini-C source.
    pub source: String,
    /// Number of unstable idioms instantiated (ground truth for calibration
    /// tests; the checker never sees this).
    pub injected: usize,
}

/// Number of unstable templates [`unstable_body`] instantiates.
const UNSTABLE_TEMPLATES: usize = 7;

/// One unstable idiom body (everything after the function name). Parameter
/// names are fixed per template, and the embedded constant is a pure
/// function of `variant`, so instantiating the same (template, variant)
/// pair anywhere in the archive yields structurally identical solver
/// queries — while distinct variants yield distinct ones. The mix spans
/// cheap queries (null checks) and expensive ones (the multiplication
/// overflow guard, whose division-based encoding is the costliest circuit
/// the blaster builds here), so a cold scan pays real solver time on every
/// first-seen variant.
fn unstable_body(template: usize, variant: usize) -> String {
    // Distinct, deterministic small constants per variant.
    let k = 3 + 13 * (variant as u64);
    match template % UNSTABLE_TEMPLATES {
        0 => {
            format!("(struct pkt *p) {{ long seq = p->seq; if (!p) return {k}; return (int)seq; }}")
        }
        1 => format!("(int x) {{ if (x + {k} < x) return 1; return x; }}"),
        2 => format!(
            "(char *buf, unsigned int len) {{ if (buf + len < buf) return -{k}; return 0; }}"
        ),
        3 => format!(
            "(unsigned int v, int s) {{ unsigned int r = v << s; if (s >= 32) return {k}; \
             return (int)r; }}"
        ),
        4 => {
            format!("(int a, int b) {{ int q = (a + {k}) / b; if (b == 0) return -1; return q; }}")
        }
        5 => format!("(int x) {{ if (abs(x) < -{k}) return 1; return abs(x); }}"),
        // The classic multiplication overflow guard: under the well-defined
        // assumption `a * b` never overflows, so `p / b != a` is always
        // false and the whole check is unstable.
        _ => format!(
            "(int a, int b) {{ int p = a * {k}; int q = p / {k}; if (q != a) return -1; \
             return p + b; }}"
        ),
    }
}

/// One stable idiom body (well-defined filler; must stay report-free).
fn stable_body(template: usize) -> String {
    const STABLE_BODIES: &[&str] = &[
        "(int a, int b) { if (b == 0) return -1; return a / b; }",
        "(unsigned int v, int s) { if (s < 0 || s >= 32) return 0; return (int)(v << s); }",
        "(int a, int b) { int m = a < b ? a : b; return m * 2 + 1; }",
        "(char *p, int n) { if (!p) return -1; if (n < 0) return -2; return *p + n; }",
    ];
    STABLE_BODIES[template % STABLE_BODIES.len()].to_string()
}

/// Number of stable templates [`stable_body`] instantiates.
const STABLE_TEMPLATES: usize = 4;

/// Generate the archive population.
pub fn generate_archive(config: &ArchiveConfig) -> Vec<ArchiveFile> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut files = Vec::new();
    let mut uid = 0usize;
    for p in 0..config.packages {
        let package = format!("archive-{p:04}");
        for f in 0..config.files_per_package {
            let mut source = String::new();
            let mut injected = 0usize;
            for _ in 0..config.functions_per_file.max(1) {
                uid += 1;
                let unstable = rng.gen_bool(config.unstable_fraction);
                let body = if unstable {
                    injected += 1;
                    let template = rng.gen_range(0..UNSTABLE_TEMPLATES);
                    let variant = rng.gen_range(0..config.variants.max(1));
                    unstable_body(template, variant)
                } else {
                    stable_body(rng.gen_range(0..STABLE_TEMPLATES))
                };
                source.push_str(&format!("int fn_{uid}{body}\n"));
            }
            files.push(ArchiveFile {
                package: package.clone(),
                name: format!("{package}_{f}.mc"),
                source,
                injected,
            });
        }
    }
    files
}

/// One churned archive: the edited file population plus the ground truth of
/// what was edited, so incremental-rescan measurements know exactly how
/// many modules a perfect fingerprint should skip.
#[derive(Clone, Debug)]
pub struct ChurnedArchive {
    /// The edited copy of the population, in the original file order.
    pub files: Vec<ArchiveFile>,
    /// Files whose *semantics* changed (a function was added): a correct
    /// fingerprint must re-analyze exactly these.
    pub semantic_edits: usize,
    /// Files that received only comment/whitespace edits: a correct
    /// fingerprint must still skip these.
    pub cosmetic_edits: usize,
}

impl ChurnedArchive {
    /// The fraction of modules an incremental re-scan should skip:
    /// everything except the semantic edits.
    pub fn expected_skip_rate(&self) -> f64 {
        if self.files.is_empty() {
            return 0.0;
        }
        (self.files.len() - self.semantic_edits) as f64 / self.files.len() as f64
    }
}

/// Produce an edited copy of `base`, the "archive evolved between scans"
/// workload of incremental re-scan: exactly `round(pct * len)` files change
/// semantically (a new unstable function is appended, so both the
/// fingerprint and the report set must change), and a quarter of the
/// untouched remainder receives comment/whitespace-only edits (which the
/// canonical fingerprint must see through). Deterministic given `seed`.
///
/// Cosmetic edits are deliberately line-preserving (appended trailing
/// comment lines, doubled inter-token spacing on existing lines) so the
/// replayed reports' line numbers stay exact and end-to-end byte-identity
/// between a re-scan and a fresh scan holds even for edited files.
pub fn churn_archive(base: &[ArchiveFile], seed: u64, pct: f64) -> ChurnedArchive {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_B217);
    // Exact counts, not per-file coin flips: a "5% churn" measurement over a
    // small archive must actually contain round(0.05 * n) changed files.
    // Fisher–Yates over the index set picks which files change.
    let n = base.len();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let semantic_count = ((pct.clamp(0.0, 1.0) * n as f64).round() as usize).min(n);
    let cosmetic_count = (n - semantic_count).div_ceil(4).min(n - semantic_count);
    let semantic: std::collections::HashSet<usize> =
        order[..semantic_count].iter().copied().collect();
    let cosmetic: std::collections::HashSet<usize> = order[semantic_count..]
        .iter()
        .take(cosmetic_count)
        .copied()
        .collect();
    let mut files = Vec::with_capacity(n);
    let mut semantic_edits = 0usize;
    let mut cosmetic_edits = 0usize;
    for (i, file) in base.iter().enumerate() {
        let mut edited = file.clone();
        if semantic.contains(&i) {
            // Semantic churn: a fresh unstable function with a constant no
            // generated variant uses, so the module gains a report and a
            // first-sighting solver query.
            let k = 1_000 + i as u64;
            edited.source.push_str(&format!(
                "int churn_{i}(int x) {{ if (x + {k} < x) return 1; return x; }}\n"
            ));
            edited.injected += 1;
            semantic_edits += 1;
        } else if cosmetic.contains(&i) {
            // Cosmetic churn: double some spacing on the first line and
            // append comment lines; the lowered IR — and every origin line
            // number — is unchanged.
            if let Some(nl) = edited.source.find('\n') {
                let (head, tail) = edited.source.split_at(nl);
                edited.source = format!("{}{tail}", head.replace(" { ", "  {  "));
            }
            edited
                .source
                .push_str("// churn: comment-only edit\n/* second\n   line */\n");
            cosmetic_edits += 1;
        }
        files.push(edited);
    }
    ChurnedArchive {
        files,
        semantic_edits,
        cosmetic_edits,
    }
}

/// One function-granular churned archive: the edited population plus the
/// exact ground truth a per-function incremental re-scan is measured
/// against — [`edited_functions`](FunctionChurn::edited_functions) is the
/// number of functions whose replay key must miss, and every other
/// function must replay.
#[derive(Clone, Debug)]
pub struct FunctionChurn {
    /// The edited copy of the population, in the original file order.
    pub files: Vec<ArchiveFile>,
    /// Total functions across the population (unchanged by the churn).
    pub total_functions: usize,
    /// Functions whose body was edited in place: a function-granular
    /// re-scan must re-analyze exactly these.
    pub edited_functions: usize,
    /// Files containing at least one edited function: a *module*-granular
    /// re-scan must re-analyze every function of these, which is the gap
    /// per-function replay keys close.
    pub edited_files: usize,
}

impl FunctionChurn {
    /// The fraction of functions a function-granular re-scan should
    /// replay: everything except the edited ones.
    pub fn expected_function_skip_rate(&self) -> f64 {
        if self.total_functions == 0 {
            return 0.0;
        }
        (self.total_functions - self.edited_functions) as f64 / self.total_functions as f64
    }
}

/// Whether `line` holds one generated function definition (the archive
/// emits one function per line; churned files may also carry appended
/// comment lines, which are not slots).
fn is_function_line(line: &str) -> bool {
    line.starts_with("int ") && line.contains('{')
}

/// Edit one generated function line in place: the first digit run after
/// the opening brace (every template body embeds at least one literal)
/// becomes the fresh constant `k`. The edit is line-preserving and keeps
/// the source compiling, but changes the lowered IR — so the function's
/// digest (and only its digest) changes, exercising exactly the
/// "developer touched one function" shape. The function *name* is never
/// edited (its digits precede the brace).
fn edit_function_line(line: &str, k: u64) -> String {
    let brace = line.find('{').expect("function line has a body");
    let body = &line[brace..];
    let start = body
        .find(|c: char| c.is_ascii_digit())
        .expect("every template body embeds a literal");
    let end = start
        + body[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(body.len() - start);
    format!("{}{}{k}{}", &line[..brace], &body[..start], &body[end..])
}

/// Produce a copy of `base` with exactly `count` functions (archive-wide,
/// chosen by Fisher–Yates over every function slot) edited in place, each
/// receiving a distinct fresh constant in its body. This
/// is the function-granular sibling of [`churn_archive`]: instead of
/// *appending* a function (which edits the module but no existing
/// function), it mutates existing bodies — the workload where
/// per-function replay keying pays off. Deterministic given `seed`.
pub fn churn_functions_count(base: &[ArchiveFile], seed: u64, count: usize) -> FunctionChurn {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0_57C4);
    // Every (file, line) function slot, archive-wide.
    let mut slots: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in base.iter().enumerate() {
        for (li, line) in file.source.lines().enumerate() {
            if is_function_line(line) {
                slots.push((fi, li));
            }
        }
    }
    let total_functions = slots.len();
    let count = count.min(total_functions);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    let mut chosen: Vec<(usize, usize)> = slots[..count].to_vec();
    // Assign fresh constants in (file, line) order so the edit is a pure
    // function of the chosen set, not of the shuffle order.
    chosen.sort_unstable();
    let edited: std::collections::HashMap<(usize, usize), u64> = chosen
        .iter()
        .enumerate()
        // 20_000 + i: disjoint from every generated variant constant
        // (3 + 13·v), from churn_archive's 1_000 + i, and from each other.
        .map(|(i, &slot)| (slot, 20_000 + i as u64))
        .collect();
    let mut files = Vec::with_capacity(base.len());
    let mut edited_files = 0usize;
    for (fi, file) in base.iter().enumerate() {
        let mut touched = false;
        let mut source = String::with_capacity(file.source.len());
        for (li, line) in file.source.lines().enumerate() {
            match edited.get(&(fi, li)) {
                Some(&k) => {
                    source.push_str(&edit_function_line(line, k));
                    touched = true;
                }
                None => source.push_str(line),
            }
            source.push('\n');
        }
        if touched {
            edited_files += 1;
        }
        files.push(ArchiveFile {
            source,
            ..file.clone()
        });
    }
    FunctionChurn {
        files,
        total_functions,
        edited_functions: count,
        edited_files,
    }
}

/// [`churn_functions_count`] with the count derived from a fraction:
/// exactly `round(pct * total_functions)` functions change.
pub fn churn_functions(base: &[ArchiveFile], seed: u64, pct: f64) -> FunctionChurn {
    let total: usize = base
        .iter()
        .map(|f| f.source.lines().filter(|l| is_function_line(l)).count())
        .sum();
    let count = ((pct.clamp(0.0, 1.0) * total as f64).round() as usize).min(total);
    churn_functions_count(base, seed, count)
}

/// Extend `base` with `copies` duplicates of randomly chosen files under
/// new vendored paths (`vendor{j}/<original name>`): byte-identical
/// sources whose every function the path-independent replay key should
/// serve from the original's analysis — the cross-path dedup workload.
/// Deterministic given `seed`; the duplicates keep their source file's
/// `injected` ground truth.
pub fn duplicate_files(base: &[ArchiveFile], seed: u64, copies: usize) -> Vec<ArchiveFile> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0_9B1E);
    let mut files = base.to_vec();
    for j in 0..copies {
        if base.is_empty() {
            break;
        }
        let original = &base[rng.gen_range(0..base.len())];
        files.push(ArchiveFile {
            package: format!("vendor{j}"),
            name: format!("vendor{j}/{}", original.name),
            source: original.source.clone(),
            injected: original.injected,
        });
    }
    files
}

/// Materialize the archive population as `.mc` files under `dir` (created
/// if needed), returning the written paths in generation order. This is
/// what `stack gen-archive` uses to give the `scan` subcommand a real
/// directory to walk. With `edit_functions > 0`, the written population is
/// the [`churn_functions_count`] edit of the generated one (the CLI's
/// "touch K functions, then re-scan" smoke workload); file names and
/// counts are unchanged either way.
pub fn write_archive_edited(
    config: &ArchiveConfig,
    dir: &Path,
    edit_functions: usize,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut files = generate_archive(config);
    if edit_functions > 0 {
        files = churn_functions_count(&files, config.seed, edit_functions).files;
    }
    let mut paths = Vec::new();
    for file in files {
        let path = dir.join(&file.name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, &file.source)?;
        paths.push(path);
    }
    Ok(paths)
}

/// [`write_archive_edited`] with no function edits.
pub fn write_archive(config: &ArchiveConfig, dir: &Path) -> io::Result<Vec<PathBuf>> {
    write_archive_edited(config, dir, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ArchiveConfig::default();
        let a = generate_archive(&cfg);
        let b = generate_archive(&cfg);
        assert_eq!(a.len(), cfg.packages * cfg.files_per_package);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
            assert_eq!(x.injected, y.injected);
        }
    }

    #[test]
    fn generated_files_compile() {
        let cfg = ArchiveConfig {
            packages: 6,
            ..ArchiveConfig::default()
        };
        let files = generate_archive(&cfg);
        let checked = crate::validate_sources(
            files.iter().map(|f| (f.name.as_str(), f.source.as_str())),
            |name, source| stack_minic::compile(source, name).map(|_| ()),
        )
        .unwrap();
        assert_eq!(checked, files.len());
    }

    #[test]
    fn bodies_overlap_across_modules() {
        // Strip the unique function names: the remaining bodies must come
        // from the fixed (template, variant) pool, so the whole archive uses
        // at most `UNSTABLE_TEMPLATES * variants + STABLE_TEMPLATES`
        // distinct shapes — far fewer than the function count, which is what
        // makes repeated instances hit the query store.
        let cfg = ArchiveConfig::default();
        let mut bodies: HashSet<String> = HashSet::new();
        let mut functions = 0usize;
        for file in generate_archive(&cfg) {
            for line in file.source.lines() {
                let body = line
                    .split_once('(')
                    .map(|(_, rest)| rest.to_string())
                    .expect("every line is a function definition");
                bodies.insert(body);
                functions += 1;
            }
        }
        assert!(functions > 100, "population too small to measure overlap");
        let pool = UNSTABLE_TEMPLATES * cfg.variants + STABLE_TEMPLATES;
        assert!(
            bodies.len() <= pool,
            "expected at most {pool} shapes, got {} distinct bodies",
            bodies.len()
        );
        assert!(
            functions > 2 * bodies.len(),
            "population must re-instantiate shapes ({} functions, {} shapes)",
            functions,
            bodies.len()
        );
    }

    #[test]
    fn roughly_the_configured_fraction_is_unstable() {
        let cfg = ArchiveConfig {
            packages: 50,
            ..ArchiveConfig::default()
        };
        let files = generate_archive(&cfg);
        let injected: usize = files.iter().map(|f| f.injected).sum();
        let total: usize = files.len() * cfg.functions_per_file;
        let fraction = injected as f64 / total as f64;
        assert!(
            (0.25..0.55).contains(&fraction),
            "expected ~{} unstable, got {fraction}",
            cfg.unstable_fraction
        );
    }

    #[test]
    fn churn_is_deterministic_and_honors_the_rate() {
        let base = generate_archive(&ArchiveConfig::default());
        let a = churn_archive(&base, 7, 0.2);
        let b = churn_archive(&base, 7, 0.2);
        assert_eq!(a.semantic_edits, b.semantic_edits);
        assert_eq!(a.cosmetic_edits, b.cosmetic_edits);
        for (x, y) in a.files.iter().zip(b.files.iter()) {
            assert_eq!(x.source, y.source);
        }
        // Roughly the configured fraction changes semantically.
        let rate = a.semantic_edits as f64 / base.len() as f64;
        assert!((0.05..0.45).contains(&rate), "semantic rate {rate}");
        assert!(a.cosmetic_edits > 0, "some cosmetic edits expected");
        assert!((a.expected_skip_rate() - (1.0 - rate)).abs() < 1e-9);
    }

    #[test]
    fn zero_churn_means_no_semantic_edits() {
        let base = generate_archive(&ArchiveConfig::default());
        let churned = churn_archive(&base, 3, 0.0);
        assert_eq!(churned.semantic_edits, 0);
        assert!((churned.expected_skip_rate() - 1.0).abs() < 1e-9);
        // Cosmetic edits still happen — that is the point of a 0%-churn
        // measurement: the fingerprint must see through them.
        assert!(churned.cosmetic_edits > 0);
    }

    #[test]
    fn churned_files_compile_and_cosmetic_edits_preserve_lines() {
        let base = generate_archive(&ArchiveConfig {
            packages: 6,
            ..ArchiveConfig::default()
        });
        let churned = churn_archive(&base, 11, 0.3);
        crate::validate_sources(
            churned
                .files
                .iter()
                .map(|f| (f.name.as_str(), f.source.as_str())),
            |name, source| stack_minic::compile(source, name).map(|_| ()),
        )
        .unwrap();
        for (before, after) in base.iter().zip(churned.files.iter()) {
            if after.injected == before.injected && after.source != before.source {
                // Cosmetic edit: every original code line keeps its line
                // number (edits only append or stay within a line).
                for (i, line) in before.source.lines().enumerate() {
                    let edited = after.source.lines().nth(i).unwrap();
                    assert_eq!(
                        edited.split_whitespace().collect::<Vec<_>>(),
                        line.split_whitespace().collect::<Vec<_>>(),
                        "{}: line {i} changed beyond whitespace",
                        after.name
                    );
                }
            }
        }
    }

    #[test]
    fn function_churn_edits_exactly_the_requested_count_in_place() {
        let base = generate_archive(&ArchiveConfig {
            packages: 6,
            ..ArchiveConfig::default()
        });
        let total: usize = base.iter().map(|f| f.source.lines().count()).sum();
        let churned = churn_functions(&base, 9, 0.05);
        assert_eq!(churned.total_functions, total);
        assert_eq!(
            churned.edited_functions,
            ((0.05 * total as f64).round() as usize),
            "count must be exact, not a per-function coin flip"
        );
        assert!(churned.edited_files >= 1);
        assert!(
            (churned.expected_function_skip_rate() - 0.95).abs() < 0.01,
            "{}",
            churned.expected_function_skip_rate()
        );
        // Determinism.
        let again = churn_functions(&base, 9, 0.05);
        for (x, y) in churned.files.iter().zip(again.files.iter()) {
            assert_eq!(x.source, y.source);
        }
        // Every edit is line-preserving and touches only the chosen lines.
        let mut changed_lines = 0usize;
        for (before, after) in base.iter().zip(churned.files.iter()) {
            assert_eq!(before.source.lines().count(), after.source.lines().count());
            for (a, b) in before.source.lines().zip(after.source.lines()) {
                if a != b {
                    changed_lines += 1;
                    // The function name (everything before '(') is intact.
                    assert_eq!(a.split_once('(').unwrap().0, b.split_once('(').unwrap().0);
                }
            }
        }
        assert_eq!(changed_lines, churned.edited_functions);
        // And the edited population still compiles.
        crate::validate_sources(
            churned
                .files
                .iter()
                .map(|f| (f.name.as_str(), f.source.as_str())),
            |name, source| stack_minic::compile(source, name).map(|_| ()),
        )
        .unwrap();
    }

    #[test]
    fn function_churn_count_zero_is_the_identity() {
        let base = generate_archive(&ArchiveConfig::default());
        let churned = churn_functions_count(&base, 5, 0);
        assert_eq!(churned.edited_functions, 0);
        assert_eq!(churned.edited_files, 0);
        for (x, y) in base.iter().zip(churned.files.iter()) {
            assert_eq!(x.source, y.source);
        }
    }

    #[test]
    fn duplicate_files_append_byte_identical_copies_under_new_paths() {
        let base = generate_archive(&ArchiveConfig {
            packages: 4,
            ..ArchiveConfig::default()
        });
        let extended = duplicate_files(&base, 3, 5);
        assert_eq!(extended.len(), base.len() + 5);
        let names: HashSet<&str> = extended.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names.len(), extended.len(), "paths must be unique");
        for copy in &extended[base.len()..] {
            assert!(copy.name.starts_with("vendor"), "{}", copy.name);
            let original = base
                .iter()
                .find(|f| copy.name.ends_with(&f.name))
                .expect("every duplicate names its source file");
            assert_eq!(copy.source, original.source, "copies are byte-identical");
        }
        // Determinism.
        let again = duplicate_files(&base, 3, 5);
        for (x, y) in extended.iter().zip(again.iter()) {
            assert_eq!(
                (x.name.as_str(), x.source.as_str()),
                (y.name.as_str(), y.source.as_str())
            );
        }
    }

    #[test]
    fn write_archive_materializes_the_population() {
        let dir = std::env::temp_dir().join(format!("stack-archive-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ArchiveConfig {
            packages: 2,
            ..ArchiveConfig::default()
        };
        let paths = write_archive(&cfg, &dir).unwrap();
        assert_eq!(paths.len(), cfg.packages * cfg.files_per_package);
        for path in &paths {
            assert!(path.exists(), "{path:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
