//! Self-test of the TG lints: every lint must fire on its seeded-violation
//! fixture (zero false negatives), stay silent on the clean fixture and the
//! suppressed sites (zero false positives), and the whole workspace must
//! scan clean with the checked-in `tg-check.toml`.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::path::Path;

use tg_check::{check_source, check_sources, scan_workspace, Config, Finding, Lint, SourceFile};

/// The real repo config — fixtures are validated against the same lock
/// table and registries CI enforces.
fn repo_config() -> Config {
    Config::parse(include_str!("../../../tg-check.toml")).expect("tg-check.toml parses")
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = format!("crates/check/tests/fixtures/{name}");
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}")),
    )
    .expect("fixture readable");
    // The workspace scan skips tests/; here we drive the linter directly.
    check_source(&path, &source, &repo_config())
}

fn lines_of(findings: &[Finding], lint: Lint) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn tg03_fires_only_on_the_unjustified_strong_ordering() {
    let findings = lint_fixture("tg03_ordering.rs");
    let tg03 = lines_of(&findings, Lint::Tg03AtomicOrdering);
    assert_eq!(tg03.len(), 1, "{findings:?}");
    // The justified Acquire and the Relaxed counter stay silent; the one
    // finding names SeqCst.
    let f = findings
        .iter()
        .find(|f| f.lint == Lint::Tg03AtomicOrdering)
        .expect("one TG03 finding");
    assert!(f.message.contains("SeqCst"), "{}", f.message);
}

#[test]
fn tg04_fires_on_every_nesting_and_honors_releases() {
    let findings = lint_fixture("tg04_lock_order.rs");
    let tg04: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == Lint::Tg04NestedLock)
        .collect();
    assert_eq!(
        tg04.len(),
        2,
        "both nestings, in either order (drop_then_reacquire and \
         scoped_release are clean): {findings:?}"
    );
    for f in tg04 {
        assert!(
            f.message.contains("registry") && f.message.contains("cache_shard"),
            "{}",
            f.message
        );
    }
}

#[test]
fn tg00_flags_every_malformed_allow_and_suppresses_nothing() {
    let findings = lint_fixture("tg00_bad_allow.rs");
    let tg00 = lines_of(&findings, Lint::Tg00BadAllow);
    assert_eq!(
        tg00.len(),
        3,
        "missing reason, empty reason, unknown lint: {findings:?}"
    );
    let tg07 = lines_of(&findings, Lint::Tg07BlockingWhileLocked);
    assert_eq!(
        tg07.len(),
        3,
        "malformed directives must not suppress; the well-formed one must: {findings:?}"
    );
}

#[test]
fn tg07_fires_on_sleep_and_join_inside_the_critical_section() {
    let findings = lint_fixture("tg07_blocking.rs");
    let tg07 = lines_of(&findings, Lint::Tg07BlockingWhileLocked);
    assert_eq!(
        tg07.len(),
        5,
        "sleep, thread-join, get_or_init, recv and accept while locked \
         (post-release sleep, path.join and the file-lock exemption stay \
         clean): {findings:?}"
    );
    assert!(
        findings
            .iter()
            .filter(|f| f.lint == Lint::Tg07BlockingWhileLocked)
            .all(|f| f.message.contains("registry")),
        "{findings:?}"
    );
}

#[test]
fn tg08_flags_both_unregistered_knob_literals_only() {
    let findings = lint_fixture("tg08_knobs.rs");
    let tg08 = lines_of(&findings, Lint::Tg08KnobRegistry);
    assert_eq!(
        tg08.len(),
        2,
        "the env::var read and the const, not the registered knob or the \
         prose mention: {findings:?}"
    );
    let messages: Vec<&str> = findings
        .iter()
        .filter(|f| f.lint == Lint::Tg08KnobRegistry)
        .map(|f| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("TG_FIXTURE_ADDR")));
    assert!(messages.iter().any(|m| m.contains("TG_ROGUE_KNOB")));
}

#[test]
fn tg08_registry_drift_fails_in_all_four_directions() {
    let cfg = Config::parse("[knobs]\nTG_DEMO = [\"crates/demo\", \"`TG_DEMO`\"]\n")
        .expect("minimal knob config parses");
    let reading = |rel_path: &str| SourceFile {
        rel_path: rel_path.to_string(),
        source: "pub fn demo() -> Option<String> { std::env::var(\"TG_DEMO\").ok() }\n".to_string(),
    };
    let documented = [(
        "README.md".to_string(),
        "| `TG_DEMO` | demo knob |".to_string(),
    )];

    // Registered + referenced under the owner + documented: clean.
    let clean = check_sources(&[reading("crates/demo/src/lib.rs")], &cfg, &documented);
    assert!(clean.is_empty(), "{clean:?}");

    // Removing the doc anchor fails, attributed to tg-check.toml.
    let undocumented = [("README.md".to_string(), "knob section deleted".to_string())];
    let findings = check_sources(&[reading("crates/demo/src/lib.rs")], &cfg, &undocumented);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].path, "tg-check.toml");
    assert!(findings[0].message.contains("doc anchor"), "{findings:?}");

    // A registered knob nobody reads is stale.
    let no_refs = [SourceFile {
        rel_path: "crates/demo/src/lib.rs".to_string(),
        source: "pub fn demo() {}\n".to_string(),
    }];
    let findings = check_sources(&no_refs, &cfg, &documented);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("referenced nowhere"),
        "{findings:?}"
    );

    // Referenced, but never under the declared owner path.
    let findings = check_sources(&[reading("crates/other/src/lib.rs")], &cfg, &documented);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("declares owner"),
        "{findings:?}"
    );

    // A doc table row for a knob the registry lacks is stale too,
    // attributed to the doc line; prose may still name a retired knob.
    let stale_row = [(
        "README.md".to_string(),
        "| `TG_DEMO` | demo knob |\n| `TG_GONE` | retired knob |\n`TG_GONE` was retired.\n"
            .to_string(),
    )];
    let findings = check_sources(&[reading("crates/demo/src/lib.rs")], &cfg, &stale_row);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].path, "README.md");
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.contains("`TG_GONE`"), "{findings:?}");
}

#[test]
fn cross_function_nesting_is_caught_through_the_call_chain() {
    let findings = lint_fixture("tg04_cross_function.rs");
    let tg04: Vec<&str> = findings
        .iter()
        .filter(|f| f.lint == Lint::Tg04NestedLock)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(
        tg04.len(),
        2,
        "`refresh` (shard held, reaches the registry lock) and `downward` \
         (registry held, reaches a shard): {findings:?}"
    );
    assert!(
        tg04[0].contains("via reload -> route")
            && tg04[0].contains("acquire `registry`")
            && tg04[0].contains("holding `cache_shard`"),
        "the finding must carry the witness chain: {}",
        tg04[0]
    );
    assert!(
        tg04[1].contains("via touch_shard")
            && tg04[1].contains("acquire `cache_shard`")
            && tg04[1].contains("holding `registry`"),
        "the finding must carry the witness chain: {}",
        tg04[1]
    );
}

#[test]
fn cross_function_analysis_spans_files() {
    let cfg = repo_config();
    let caller = SourceFile {
        rel_path: "crates/a/src/lib.rs".to_string(),
        source: "use std::sync::RwLock;\n\
                 pub struct Shards { pub shards: Vec<RwLock<u64>> }\n\
                 pub fn refresh(s: &Shards, reg: &crate::Registry) -> usize {\n\
                     let _shard = s.shards[0].write();\n\
                     reload(reg)\n\
                 }\n"
        .to_string(),
    };
    let callee = SourceFile {
        rel_path: "crates/b/src/lib.rs".to_string(),
        source: "use std::collections::HashMap;\n\
                 use std::sync::Mutex;\n\
                 pub struct Registry { inner: Mutex<HashMap<u64, u64>> }\n\
                 pub fn reload(reg: &Registry) -> usize {\n\
                     let _inner = reg.inner.lock();\n\
                     0\n\
                 }\n"
        .to_string(),
    };
    let findings = check_sources(&[caller, callee], &cfg, &[]);
    let tg04: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == Lint::Tg04NestedLock)
        .collect();
    assert_eq!(tg04.len(), 1, "{findings:?}");
    assert_eq!(
        tg04[0].path, "crates/a/src/lib.rs",
        "the finding lands at the cross-file call site"
    );
    assert!(
        tg04[0].message.contains("reload") && tg04[0].message.contains("registry"),
        "{}",
        tg04[0].message
    );
}

#[test]
fn findings_render_as_single_line_json_and_codes_round_trip() {
    let findings = lint_fixture("tg04_lock_order.rs");
    let line = findings[0].render_json();
    assert!(line.starts_with("{\"lint\":\"TG04\""), "{line}");
    assert!(!line.contains('\n'), "{line}");
    assert!(
        line.contains("\"path\":") && line.contains("\"line\":"),
        "{line}"
    );

    // Codes retired to clippy are unknown, so a leftover directive is TG00.
    for retired in ["TG01", "TG02", "TG05", "TG06", "TG09", "TG99"] {
        assert_eq!(Lint::from_code(retired), None);
    }
}

#[test]
fn clean_fixture_yields_zero_findings() {
    let findings = lint_fixture("clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn the_real_tree_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let cfg = repo_config();
    let (findings, scanned) = scan_workspace(root, &cfg);
    assert!(
        scanned > 50,
        "the workspace scan must actually cover the tree ({scanned} files)"
    );
    let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
    assert!(
        findings.is_empty(),
        "tg-check must exit clean on the real tree:\n{}",
        rendered.join("\n")
    );
}
