//! `tg-check` CLI: run the TG lints over the workspace or explicit files.
//!
//! ```text
//! tg-check --workspace [--root DIR]   # scan per tg-check.toml, exit 1 on findings
//! tg-check FILE...                    # lint specific files
//! tg-check --workspace --json         # one JSON object per finding per line
//! tg-check --workspace --lint TG04    # only the named lint(s)
//! ```
//!
//! CI runs `cargo run -p tg-check -- --workspace --json` in the `analysis`
//! job; the exit code is the contract (0 clean, 1 findings, 2 usage/config
//! error), and the JSON stream is one finding per line for machine diffing.

use std::path::PathBuf;
use std::process::ExitCode;

use tg_check::{check_source, find_root, load_config, scan_workspace, Lint};

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut lint_filter: Vec<Lint> = Vec::new();
    let mut root_arg: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--lint" => match args.next().as_deref().map(Lint::from_code) {
                Some(Some(lint)) => lint_filter.push(lint),
                Some(None) => return usage("--lint expects a code like TG04"),
                None => return usage("--lint requires a lint code"),
            },
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage("--root requires a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag `{other}`"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if !workspace && files.is_empty() {
        return usage("nothing to do: pass --workspace or file paths");
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = root_arg.or_else(|| find_root(&cwd)) else {
        eprintln!("tg-check: no tg-check.toml found above {}", cwd.display());
        return ExitCode::from(2);
    };
    let cfg = match load_config(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("tg-check: {e}");
            return ExitCode::from(2);
        }
    };

    let (mut findings, scanned) = if workspace {
        scan_workspace(&root, &cfg)
    } else {
        let mut findings = Vec::new();
        let mut scanned = 0;
        for file in &files {
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            match std::fs::read_to_string(file) {
                Ok(source) => {
                    scanned += 1;
                    // An explicitly named file is always linted, even under
                    // tests/, so fixtures and scratch files can be checked
                    // directly instead of silently passing.
                    findings.extend(check_source(&rel, &source, &cfg));
                }
                Err(e) => {
                    eprintln!("tg-check: cannot read {}: {e}", file.display());
                    return ExitCode::from(2);
                }
            }
        }
        (findings, scanned)
    };

    if !lint_filter.is_empty() {
        findings.retain(|f| lint_filter.contains(&f.lint));
    }
    for finding in &findings {
        if json {
            println!("{}", finding.render_json());
        } else {
            println!("{}", finding.render());
        }
    }
    eprintln!(
        "tg-check: {} finding(s) in {scanned} file(s) scanned",
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str =
    "usage: tg-check --workspace [--root DIR] [--json] [--lint TGnn]... | tg-check FILE...";

fn usage(why: &str) -> ExitCode {
    eprintln!("tg-check: {why}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
