//! `tg-check`: in-tree static analysis for the TransferGraph reproduction.
//!
//! The workspace's headline guarantee — bit-identical predictions across
//! sequential/parallel runs, warm/cold caches and registry eviction — rests
//! on invariants no upstream lint knows: justified atomic orderings, no
//! lock taken while another is held, no blocking inside a critical
//! section, and a documented env-knob registry. (Panics, clock reads,
//! discarded `Result`s and condition variables are clippy's job: see the
//! workspace `[workspace.lints.clippy]` table and `clippy.toml`.) This
//! crate enforces them mechanically with a hand-rolled token scanner (no
//! `syn`; the build container has no crates.io access), configured by the
//! checked-in `tg-check.toml` at the repo root.
//!
//! The no-nested-lock rule TG04 checks statically is enforced dynamically
//! by the debug-build tracker in `tg-sync`, and a lightweight
//! intra-workspace call graph extends the static check across function
//! (and file) boundaries.
//!
//! See DESIGN.md "Static analysis & invariants" for the lint table
//! (TG00, TG03, TG04, TG07, TG08), the allow-directive grammar, the lock
//! classes, the env-knob registry, and the call-graph approximations.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod lints;

pub use config::Config;
pub use lints::{check_source, check_sources, Finding, Lint, SourceFile};

use std::path::{Path, PathBuf};

/// Name of the config file marking the workspace root.
pub const CONFIG_FILE: &str = "tg-check.toml";

/// Locates the workspace root by walking up from `start` until a
/// `tg-check.toml` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join(CONFIG_FILE).is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Loads the config from `<root>/tg-check.toml`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join(CONFIG_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Config::parse(&text)
}

/// The documentation files the TG08 anchor check greps, relative to the
/// workspace root.
pub const DOC_FILES: [&str; 2] = ["README.md", "DESIGN.md"];

/// Scans every `.rs` file under the config's roots, returning all findings
/// plus the number of files linted. Unreadable files are skipped (a vanished
/// file is not a lint violation); excluded paths are never opened. The whole
/// set is linted as one workspace — cross-function lock analysis sees every
/// file, and the TG08 drift checks run against README.md and DESIGN.md
/// (a missing doc reads as empty, so its anchors fail rather than pass).
pub fn scan_workspace(root: &Path, cfg: &Config) -> (Vec<Finding>, usize) {
    let mut files = Vec::new();
    for scan_root in &cfg.roots {
        collect_rs_files(&root.join(scan_root), &mut files);
    }
    files.sort();
    let mut sources = Vec::new();
    for file in files {
        let rel = match file.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => file.to_string_lossy().replace('\\', "/"),
        };
        // Integration tests are not scanned.
        let is_test = rel.starts_with("tests/") || rel.contains("/tests/");
        if is_test || cfg.exclude.iter().any(|e| rel.contains(e.as_str())) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        sources.push(SourceFile {
            rel_path: rel,
            source,
        });
    }
    let docs: Vec<(String, String)> = DOC_FILES
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join(name)).unwrap_or_default();
            (name.to_string(), text)
        })
        .collect();
    let scanned = sources.len();
    (check_sources(&sources, cfg, &docs), scanned)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // `target/` never holds first-party sources; skip the build tree.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
