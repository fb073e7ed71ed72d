//! `scanbench gen`: write a seeded archive (or its churned edit) to a
//! directory and print the generator's ground truth as JSON.
//!
//! `scanbench trace`: scan an on-disk archive with the traced driver,
//! alternating untraced and traced passes for a time budget, and print the
//! per-layer metrics plus the per-file reported functions as JSON.
//!
//! `scanbench spawn`: run one command with its output in files and print
//! its wall time, peak resident memory and exit code as JSON.
//!
//! ```text
//! scanbench gen --out DIR --seed S --packages N --functions-per-file K
//!               --variants V [--churn-pct P]
//! scanbench trace --dir DIR --work DIR --seconds S
//!                 [--primed-query FILE --primed-scan FILE]
//! scanbench spawn --stdout FILE --stderr FILE -- PROGRAM [ARGS...]
//! ```

use scanbench::child::run_child;
use scanbench::driver::{run_pass, Pass};
use scanbench::{summarize, MIN_COVERAGE};
use stack_corpus::{churn_archive, generate_archive, ArchiveConfig, ArchiveFile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("spawn") => spawn(&args[1..]),
        _ => Err("usage: scanbench gen ... | trace ... | spawn ...".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scanbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let text = flag(args, name).ok_or(format!("missing {name}"))?;
    text.parse()
        .map_err(|_| format!("{name}: bad value `{text}`"))
}

fn gen(args: &[String]) -> Result<String, String> {
    let out = PathBuf::from(parsed::<String>(args, "--out")?);
    let config = ArchiveConfig {
        packages: parsed(args, "--packages")?,
        functions_per_file: parsed(args, "--functions-per-file")?,
        variants: parsed(args, "--variants")?,
        seed: parsed(args, "--seed")?,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&config);
    let (files, semantic, cosmetic) = match flag(args, "--churn-pct") {
        None => (base.clone(), 0, 0),
        Some(_) => {
            let churned = churn_archive(&base, config.seed, parsed(args, "--churn-pct")?);
            (
                churned.files,
                churned.semantic_edits,
                churned.cosmetic_edits,
            )
        }
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    for (file, before) in files.iter().zip(&base) {
        // An edit rewrites only the files it changed, as an editor would.
        if semantic + cosmetic == 0 || file.source != before.source {
            let path = out.join(&file.name);
            std::fs::write(&path, &file.source)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(truth_json(&files, &config, semantic, cosmetic))
}

fn truth_json(
    files: &[ArchiveFile],
    config: &ArchiveConfig,
    semantic: usize,
    cosmetic: usize,
) -> String {
    let functions = files.len() * config.functions_per_file + semantic;
    let mut out = format!(
        "{{\"files\": {}, \"functions\": {functions}, \"semantic_edits\": {semantic}, \
         \"cosmetic_edits\": {cosmetic}, \"injected\": {{",
        files.len()
    );
    for (i, file) in files.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {}", json_string(&file.name), file.injected);
    }
    out.push_str("}}");
    out
}

fn trace(args: &[String]) -> Result<String, String> {
    let dir = PathBuf::from(parsed::<String>(args, "--dir")?);
    let work = PathBuf::from(parsed::<String>(args, "--work")?);
    let budget = Duration::from_secs_f64(parsed(args, "--seconds")?);
    let primed = match (flag(args, "--primed-query"), flag(args, "--primed-scan")) {
        (Some(q), Some(s)) => Some((PathBuf::from(q), PathBuf::from(s))),
        (None, None) => None,
        _ => return Err("--primed-query and --primed-scan go together".to_string()),
    };
    // The order `stack scan <dir>` walks a directory in: sorted paths.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "mc"))
        .collect();
    files.sort();
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let query = work.join("trace.qs");
    let scan = work.join("trace.ss");

    let pass = |traced: bool| -> Result<Pass, String> {
        reset_store(&query, primed.as_ref().map(|p| p.0.as_path()))?;
        reset_store(&scan, primed.as_ref().map(|p| p.1.as_path()))?;
        run_pass(&files, &query, &scan, traced)
    };
    let deadline = Instant::now() + budget;
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    // At least one pass of each kind, however short the budget.
    loop {
        untraced.push(pass(false)?);
        traced.push(pass(true)?);
        if Instant::now() >= deadline {
            break;
        }
    }
    let summary = summarize(&traced, &untraced);
    let coverage = summary.metrics["trace.coverage_frac"];

    let mut out = format!(
        "{{\"repeatable\": {}, \"coverage_ok\": {}, \"passes\": {}, \"metrics\": {{",
        summary.repeatable,
        coverage >= MIN_COVERAGE,
        traced.len() + untraced.len()
    );
    for (i, (name, value)) in summary.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {value}", json_string(name));
    }
    out.push_str("}, \"reported\": {");
    write_reported(&mut out, &traced[0].reported);
    out.push_str("}}");
    Ok(out)
}

fn spawn(args: &[String]) -> Result<String, String> {
    let split = args.iter().position(|a| a == "--").ok_or("missing `--`")?;
    let (flags, argv) = (&args[..split], &args[split + 1..]);
    let stdout = PathBuf::from(parsed::<String>(flags, "--stdout")?);
    let stderr = PathBuf::from(parsed::<String>(flags, "--stderr")?);
    let run = run_child(argv, &stdout, &stderr)?;
    Ok(format!(
        "{{\"seconds\": {}, \"max_rss_kib\": {}, \"exit\": {}}}",
        run.wall.as_secs_f64(),
        run.max_rss_kib,
        run.exit
    ))
}

/// Put a store file back to its starting state: the primed copy, or absent.
fn reset_store(path: &Path, primed: Option<&Path>) -> Result<(), String> {
    let result = match primed {
        Some(from) => std::fs::copy(from, path).map(|_| ()),
        None => match std::fs::remove_file(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            other => other,
        },
    };
    result.map_err(|e| format!("reset {}: {e}", path.display()))
}

fn write_reported(
    out: &mut String,
    reported: &BTreeMap<String, std::collections::BTreeSet<String>>,
) {
    for (i, (file, functions)) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let names: Vec<String> = functions.iter().map(|f| json_string(f)).collect();
        let _ = write!(out, "{sep}{}: [{}]", json_string(file), names.join(", "));
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
