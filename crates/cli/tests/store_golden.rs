//! Golden-file tests for both persisted store formats.
//!
//! `tests/golden/` holds one small query store and one small scan store,
//! each with a torn copy, plus the expected result of every operation the
//! file layer offers: `save` after `open` (`*.saved.*`), the
//! `store fsck --repair` rewrite of the torn copy (`*.repaired.*`), and the
//! `store inspect` render of both copies (`*.inspect.txt`). Merging a store
//! with itself must reproduce it byte for byte. Any change to the on-disk
//! format, the salvage rules, or the inspect render shows up here as a byte
//! difference.

use stack_core::ScanStore;
use stack_solver::DiskQueryStore;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A fresh scratch copy of golden file `name`.
fn scratch_copy(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("stack-golden-{}-{name}", std::process::id()));
    std::fs::copy(golden(name), &path).unwrap();
    path
}

fn stack(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stack"))
        .args(args)
        .output()
        .expect("run stack");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).unwrap(),
    )
}

/// Opens the store file at a path and saves it straight back.
type OpenAndSave = fn(&Path);

/// The store kinds under test: golden-file stem, extension, and how to
/// `open` + `save` a file of that kind.
const KINDS: [(&str, &str, OpenAndSave); 2] = [
    ("query", "qs", |p| {
        DiskQueryStore::open(p).unwrap().save().unwrap();
    }),
    ("scan", "ss", |p| {
        ScanStore::open(p).unwrap().save().unwrap();
    }),
];

#[test]
fn save_after_open_matches_golden() {
    for (stem, ext, open_and_save) in KINDS {
        let copy = scratch_copy(&format!("{stem}.{ext}"));
        open_and_save(&copy);
        assert_eq!(
            read(&copy),
            read(&golden(&format!("{stem}.saved.{ext}"))),
            "{stem}"
        );
        std::fs::remove_file(copy).unwrap();
    }
}

#[test]
fn merge_with_itself_reproduces_the_golden_file() {
    for (stem, ext, _) in KINDS {
        let input = golden(&format!("{stem}.{ext}"));
        let out = std::env::temp_dir().join(format!(
            "stack-golden-{}-{stem}-merged.{ext}",
            std::process::id()
        ));
        let input_arg = input.to_str().unwrap();
        let (code, _) = stack(&[
            "store",
            "merge",
            out.to_str().unwrap(),
            input_arg,
            input_arg,
        ]);
        assert_eq!(code, 0, "{stem}");
        assert_eq!(read(&out), read(&input), "{stem}");
        std::fs::remove_file(out).unwrap();
    }
}

#[test]
fn fsck_repair_of_the_torn_copy_matches_golden() {
    for (stem, ext, _) in KINDS {
        let copy = scratch_copy(&format!("{stem}.torn.{ext}"));
        let path = copy.to_str().unwrap();
        let (code, _) = stack(&["store", "fsck", path]);
        assert_eq!(code, 2, "{stem}: a torn store is damaged");
        let (code, stdout) = stack(&["store", "fsck", path, "--repair"]);
        assert_eq!(code, 0, "{stem}");
        assert!(stdout.contains("repaired"), "{stem}: {stdout}");
        assert_eq!(
            read(&copy),
            read(&golden(&format!("{stem}.repaired.{ext}"))),
            "{stem}"
        );
        let (code, stdout) = stack(&["store", "fsck", path]);
        assert_eq!(code, 0, "{stem}");
        assert!(stdout.contains("clean"), "{stem}: {stdout}");
        std::fs::remove_file(copy).unwrap();
    }
}

#[test]
fn inspect_render_matches_golden() {
    for (stem, ext, _) in KINDS {
        for (file, expected) in [
            (format!("{stem}.{ext}"), format!("{stem}.inspect.txt")),
            (
                format!("{stem}.torn.{ext}"),
                format!("{stem}.torn.inspect.txt"),
            ),
        ] {
            let (code, stdout) = stack(&["store", "inspect", golden(&file).to_str().unwrap()]);
            assert_eq!(code, 0, "{file}");
            assert_eq!(stdout, read(&golden(&expected)), "{file}");
        }
    }
}
