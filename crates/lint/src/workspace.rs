//! Workspace walking and file classification.
//!
//! Classification decides which rules apply where:
//!
//! * `vendor/` (offline dependency stand-ins), `target/`, and the lint
//!   crate's own rule fixtures are never scanned;
//! * `tests/`, `benches/`, `examples/` trees are test code (AA01–AA03 exempt
//!   — in-file `#[cfg(test)]` modules are handled separately, by span);
//! * the `bench` and `cli` crates may panic (operator tooling, AA01 exempt);
//! * `aa-core` and `aa-runtime` form the deterministic core (AA04);
//! * the recombination hot path (engine/proc-state/distance-vector/dynamic
//!   kernels plus the simulated cluster) gets the cast rule (AA05);
//! * every `crates/*/src/lib.rs` is a library root (AA06).

use crate::rules::FileClass;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "data", "fixtures"];

/// Crates whose binaries/utilities may panic on broken input (AA01 exempt).
const PANICKY_CRATES: &[&str] = &["bench", "cli"];

/// Crates forming the deterministic replay core (AA04 applies). `durable`
/// belongs here: recovery replay must be a pure function of the bytes on
/// disk, so wall clocks and ambient randomness are banned from it too.
const DETERMINISTIC_CORE: &[&str] = &["core", "runtime", "durable", "query"];

/// Engine hot-path files (AA05 applies), workspace-relative.
const HOT_PATHS: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/proc_state.rs",
    "crates/core/src/dv.rs",
    "crates/core/src/dynamic.rs",
    "crates/runtime/src/cluster.rs",
];

/// Collects every `.rs` file under `root` that the analyzer owns, classified.
/// Paths come back sorted so reports and baselines are deterministic.
pub fn collect(root: &Path) -> std::io::Result<Vec<(PathBuf, FileClass)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.1.rel_path.cmp(&b.1.rel_path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, FileClass)>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            out.push((path, classify(&rel)));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(str::to_string);
    let in_dir = |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    let is_test_code = in_dir("tests") || in_dir("benches") || in_dir("examples");
    let allow_panics = crate_name
        .as_deref()
        .is_some_and(|c| PANICKY_CRATES.contains(&c));
    FileClass {
        rel_path: rel.to_string(),
        is_test_code,
        allow_panics,
        is_hot_path: HOT_PATHS.contains(&rel),
        is_lib_root: crate_name.is_some() && rel.ends_with("/src/lib.rs"),
        deterministic_core: crate_name
            .as_deref()
            .is_some_and(|c| DETERMINISTIC_CORE.contains(&c)),
        crate_name,
    }
}
