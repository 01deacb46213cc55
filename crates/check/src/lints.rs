//! The TG lints: repo-specific invariants enforced over the lexed token
//! stream. See DESIGN.md "Static analysis & invariants" for the rationale
//! behind each lint and the lock classes TG04 and TG07 track.
//!
//! Any finding except `TG00` can be suppressed with an inline directive on
//! the same line or the line directly above:
//!
//! ```text
//! // tg-check: allow(tg07, reason = "startup path: no other thread can contend yet")
//! ```
//!
//! The `reason` is mandatory and must be non-empty; a malformed directive
//! is itself a finding (`TG00`) and suppresses nothing.

use std::collections::HashMap;

use crate::config::Config;
use crate::lexer::{lex, Lexed, Tok};

/// Lint identifiers, in severity-neutral declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Malformed or reason-less `tg-check: allow` directive.
    Tg00BadAllow,
    /// Non-`Relaxed` atomic ordering without a justification comment.
    Tg03AtomicOrdering,
    /// Lock acquisition while another lock guard is live.
    Tg04NestedLock,
    /// Blocking call (`sleep`, I/O, `evaluate`, …) while a lint-tracked
    /// lock guard is live.
    Tg07BlockingWhileLocked,
    /// `TG_*` env knob not registered in `[knobs]`, or registry/doc drift.
    Tg08KnobRegistry,
}

impl Lint {
    /// The short code used in output and in allow directives.
    pub fn code(self) -> &'static str {
        match self {
            Lint::Tg00BadAllow => "TG00",
            Lint::Tg03AtomicOrdering => "TG03",
            Lint::Tg04NestedLock => "TG04",
            Lint::Tg07BlockingWhileLocked => "TG07",
            Lint::Tg08KnobRegistry => "TG08",
        }
    }

    /// Parses a user-supplied code (`TG04`, `tg04`) — used both by allow
    /// directives and the CLI `--lint` filter. `TG00` is addressable by
    /// the filter but never suppressible.
    pub fn from_code(code: &str) -> Option<Lint> {
        match code.to_ascii_lowercase().as_str() {
            "tg00" => Some(Lint::Tg00BadAllow),
            "tg03" => Some(Lint::Tg03AtomicOrdering),
            "tg04" => Some(Lint::Tg04NestedLock),
            "tg07" => Some(Lint::Tg07BlockingWhileLocked),
            "tg08" => Some(Lint::Tg08KnobRegistry),
            _ => None,
        }
    }

    fn from_directive_code(code: &str) -> Option<Lint> {
        match Lint::from_code(code) {
            Some(Lint::Tg00BadAllow) | None => None, // TG00 is not suppressible
            some => some,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// `path:line: CODE message` — the output format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.path,
            self.line,
            self.lint.code(),
            self.message
        )
    }

    /// One finding as a single-line JSON object (the `--json` format):
    /// `{"lint":"TG04","path":"…","line":12,"message":"…"}`.
    pub fn render_json(&self) -> String {
        tg_json::JsonObject::new()
            .str("lint", self.lint.code())
            .str("path", &self.path)
            .u64("line", u64::from(self.line))
            .str("message", &self.message)
            .render_compact()
    }
}

/// One input file for [`check_sources`].
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub rel_path: String,
    /// File contents.
    pub source: String,
}

/// Lints one file in isolation, returning findings sorted by line.
///
/// Workspace-wide passes degrade gracefully: the cross-function lock
/// analysis sees only this file's functions, and the TG08 registry/doc
/// drift checks (which need the whole tree plus README/DESIGN) are
/// skipped.
pub fn check_source(rel_path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    check_sources(
        &[SourceFile {
            rel_path: rel_path.to_string(),
            source: source.to_string(),
        }],
        cfg,
        &[],
    )
}

/// Lints a set of files as one workspace, returning findings sorted by
/// path and line. This is the full pipeline: per-file token lints, the
/// cross-function nested-lock analysis over the intra-workspace call
/// graph, and — when `docs` is non-empty (workspace mode) — the TG08
/// knob-registry and doc-anchor drift checks. `docs` carries
/// `(name, contents)` pairs for README.md / DESIGN.md.
pub fn check_sources(
    files: &[SourceFile],
    cfg: &Config,
    docs: &[(String, String)],
) -> Vec<Finding> {
    struct Unit<'a> {
        file: &'a SourceFile,
        lexed: Lexed,
        allows: AllowMap,
    }

    let mut findings = Vec::new();
    let mut units = Vec::new();
    for file in files {
        let lexed = lex(&file.source);
        let (allows, bad) = parse_allow_directives(&file.rel_path, &lexed);
        findings.extend(bad);
        units.push(Unit {
            file,
            lexed,
            allows,
        });
    }

    let index = crate::callgraph::FnIndex::build(
        units.iter().map(|u| (u.file.rel_path.as_str(), &u.lexed)),
        cfg,
    );
    let mut cross = index.cross_function_findings();
    let mut knob_refs: Vec<(String, String)> = Vec::new();

    for u in &units {
        let path = &u.file.rel_path;
        let mut raw = Vec::new();
        tg03_atomic_ordering(path, &u.lexed, &mut raw);
        lock_discipline(path, &u.lexed, cfg, &mut raw);
        tg08_knob_refs(path, &u.lexed, cfg, &mut knob_refs, &mut raw);
        let mut rest = Vec::new();
        for f in cross.drain(..) {
            if &f.path == path {
                raw.push(f);
            } else {
                rest.push(f);
            }
        }
        cross = rest;
        findings.extend(raw.into_iter().filter(|f| !is_suppressed(f, &u.allows)));
    }
    // Cross-function findings for paths outside the unit set cannot occur
    // (the index is built from the same units), but keep any stragglers
    // rather than dropping them silently.
    findings.append(&mut cross);

    if !docs.is_empty() {
        tg08_registry_drift(cfg, &knob_refs, docs, &mut findings);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    findings
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

/// Lints suppressed per line (directive on a line covers that line and the
/// line below it, so a comment-only directive line guards the next line).
type AllowMap = HashMap<u32, Vec<Lint>>;

fn is_suppressed(f: &Finding, allows: &AllowMap) -> bool {
    let covered = |line: u32| allows.get(&line).is_some_and(|l| l.contains(&f.lint));
    covered(f.line) || (f.line > 1 && covered(f.line - 1))
}

/// Parses every `tg-check: allow(...)` directive in the comment table,
/// returning the suppression map and a `TG00` finding per malformed
/// directive (unknown lint code, missing or empty reason).
fn parse_allow_directives(path: &str, lexed: &Lexed) -> (AllowMap, Vec<Finding>) {
    let mut allows: AllowMap = HashMap::new();
    let mut bad = Vec::new();
    for (&line, text) in &lexed.comments {
        // A directive is the *whole* comment: `// tg-check: allow(...)`.
        // Prose that merely mentions tg-check (docs, this very function)
        // must not parse as one.
        let Some(rest) = text.trim_start().strip_prefix("tg-check:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut fail = |why: &str| {
            bad.push(Finding {
                lint: Lint::Tg00BadAllow,
                path: path.to_string(),
                line,
                message: format!("malformed allow directive: {why}"),
            });
        };
        let Some(body) = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('('))
        else {
            fail("expected `allow(<lint>, reason = \"...\")`");
            continue;
        };
        let Some(body) = body.split(')').next() else {
            fail("unclosed `(`");
            continue;
        };
        // Split the lint-code list from the reason clause.
        let Some(reason_at) = body.find("reason") else {
            fail("missing `reason = \"...\"` (a reason is mandatory)");
            continue;
        };
        let reason_clause = &body[reason_at + "reason".len()..];
        let reason = reason_clause
            .trim_start()
            .strip_prefix('=')
            .map(|r| r.trim())
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.split('"').next());
        match reason {
            Some(r) if !r.trim().is_empty() => {}
            _ => {
                fail("empty or unquoted reason (a non-empty reason is mandatory)");
                continue;
            }
        }
        let mut lints = Vec::new();
        let mut ok = true;
        for code in body[..reason_at].split(',') {
            let code = code.trim();
            if code.is_empty() {
                continue;
            }
            match Lint::from_directive_code(code) {
                Some(l) => lints.push(l),
                None => {
                    fail(&format!("unknown lint `{code}`"));
                    ok = false;
                }
            }
        }
        if ok && lints.is_empty() {
            fail("no lint codes listed");
            ok = false;
        }
        if ok {
            allows.entry(line).or_default().extend(lints);
        }
    }
    (allows, bad)
}

// ---------------------------------------------------------------------------
// TG03 — explicit atomic orderings need a justification comment
// ---------------------------------------------------------------------------

const STRONG_ORDERINGS: [&str; 4] = ["Acquire", "Release", "AcqRel", "SeqCst"];

fn tg03_atomic_ordering(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if lexed.in_test[i] || tok.ident() != Some("Ordering") {
            continue;
        }
        let variant =
            if next_is(lexed, i, ':') && lexed.tokens.get(i + 2).is_some_and(|t| t.is_punct(':')) {
                lexed.tokens.get(i + 3).and_then(Tok::ident)
            } else {
                None
            };
        let Some(variant) = variant else { continue };
        if STRONG_ORDERINGS.contains(&variant) && !lexed.has_nearby_comment(lexed.lines[i]) {
            out.push(Finding {
                lint: Lint::Tg03AtomicOrdering,
                path: path.to_string(),
                line: lexed.lines[i],
                message: format!(
                    "`Ordering::{variant}` without a justification comment; counters \
                     must be `Relaxed`, stronger orderings must say why"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// TG04 / TG07 — lock discipline (one shared walk)
// ---------------------------------------------------------------------------

pub(crate) const ACQUIRE_METHODS: [&str; 6] =
    ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// A `let`-bound guard still alive at the current brace depth.
struct HeldGuard {
    name: Option<String>,
    class: String,
    binding_depth: i32,
}

impl HeldGuard {
    /// `` `class` `` or `` `class` `name` `` for finding messages.
    fn describe(&self) -> String {
        match &self.name {
            Some(name) => format!("`{}` `{name}`", self.class),
            None => format!("`{}`", self.class),
        }
    }
}

/// One walk over the token stream enforcing the two lock lints:
///
/// * **TG04** — flags any lock acquisition while the enclosing scope
///   still holds a guard: no lock is taken while another is held.
/// * **TG07** — calls from the configured blocking list (`sleep`,
///   `persist`, socket connects, `evaluate`, `get_or_init`, …) must not
///   run while a lint-tracked guard is live, unless the guard's class is
///   exempt (a store shard's critical section *is* the disk write).
///   `join` only counts with an empty argument list — `path.join(seg)` is
///   not a thread join.
///
/// Heuristics (documented in DESIGN.md): only `let`-bound guards are
/// considered held (a guard inside a larger expression dies at the end of
/// its statement); a guard is released at the end of its enclosing block or
/// by an explicit `drop(name)`. This is a per-scope approximation — the
/// cross-function pass in `callgraph` extends TG04 across call edges, and
/// the debug-build runtime tracker in `tg-sync` enforces the same rule
/// dynamically.
fn lock_discipline(path: &str, lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.lock_classes.is_empty() {
        return;
    }
    let toks = &lexed.tokens;
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth: i32 = 0;
    let mut stmt_start: usize = 0; // index just past the last `;` `{` `}`

    for i in 0..toks.len() {
        match &toks[i] {
            Tok::Punct('{') => {
                depth += 1;
                stmt_start = i + 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                stmt_start = i + 1;
                held.retain(|g| g.binding_depth <= depth);
            }
            Tok::Punct(';') => {
                stmt_start = i + 1;
            }
            Tok::Ident(name) if name == "drop" && next_is(lexed, i, '(') => {
                if let Some(Tok::Ident(arg)) = toks.get(i + 2) {
                    if toks.get(i + 3).is_some_and(|t| t.is_punct(')')) {
                        if let Some(pos) = held
                            .iter()
                            .rposition(|g| g.name.as_deref() == Some(arg.as_str()))
                        {
                            held.remove(pos);
                        }
                    }
                }
            }
            Tok::Ident(m)
                if ACQUIRE_METHODS.contains(&m.as_str())
                    && !lexed.in_test[i]
                    && prev_is(lexed, i, '.')
                    && call_paren_after(toks, i).is_some() =>
            {
                let Some(receiver) = receiver_of(toks, i) else {
                    continue;
                };
                let Some(class) = cfg.lock_class_of(&receiver) else {
                    continue;
                };
                if let Some(g) = held.last() {
                    out.push(Finding {
                        lint: Lint::Tg04NestedLock,
                        path: path.to_string(),
                        line: lexed.lines[i],
                        message: format!(
                            "acquires `{class}` while holding {}; no lock is taken \
                             while another is held",
                            g.describe(),
                        ),
                    });
                }
                if let Some(bound) = let_binding_name(toks, stmt_start, i) {
                    held.push(HeldGuard {
                        name: bound,
                        class: class.to_string(),
                        binding_depth: depth,
                    });
                }
            }
            Tok::Ident(m)
                if cfg.tg07_blocking.iter().any(|b| b == m.as_str())
                    && !lexed.in_test[i]
                    && is_blocking_call_shape(toks, i, m) =>
            {
                if let Some(g) = held
                    .iter()
                    .rfind(|g| !cfg.tg07_exempt_classes.iter().any(|c| c == &g.class))
                {
                    out.push(Finding {
                        lint: Lint::Tg07BlockingWhileLocked,
                        path: path.to_string(),
                        line: lexed.lines[i],
                        message: format!(
                            "blocking call `{m}(..)` while holding lock guard {}; do \
                             the blocking work outside the critical section",
                            g.describe(),
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Index of the call `(` following token `i`, skipping one turbofish
/// (`.lock::<T>()`); `None` when `i` is not followed by a call.
pub(crate) fn call_paren_after(toks: &[Tok], i: usize) -> Option<usize> {
    let j = crate::lexer::skip_turbofish(toks, i + 1);
    toks.get(j).is_some_and(|t| t.is_punct('(')).then_some(j)
}

/// The TG07 call shape for blocking name `m` at token `i`: a call, and for
/// `join` specifically an *empty* call — `handle.join()` blocks on a
/// thread, `path.join(seg)` concatenates a path.
fn is_blocking_call_shape(toks: &[Tok], i: usize, m: &str) -> bool {
    let Some(p) = call_paren_after(toks, i) else {
        return false;
    };
    if m == "join" {
        return toks.get(p + 1).is_some_and(|t| t.is_punct(')'));
    }
    true
}

/// The receiver identifier of a `.lock()`-style call at token `i`:
/// the last path segment before the method (`self.inner.lock()` → `inner`),
/// skipping one balanced `(..)` or `[..]` group (`self.shard(k).read()` →
/// `shard`, `self.shards[0].write()` → `shards`).
pub(crate) fn receiver_of(toks: &[Tok], method_idx: usize) -> Option<String> {
    let mut j = method_idx.checked_sub(2)?;
    match &toks[j] {
        Tok::Punct(close @ (')' | ']')) => {
            let open = if *close == ')' { '(' } else { '[' };
            let mut depth = 1;
            while depth > 0 {
                j = j.checked_sub(1)?;
                if toks[j].is_punct(*close) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                }
            }
            toks.get(j.checked_sub(1)?)
                .and_then(Tok::ident)
                .map(str::to_string)
        }
        Tok::Ident(name) => Some(name.clone()),
        _ => None,
    }
}

/// If the statement holding the acquisition starts with `let`, the name it
/// binds (`None` for tuple/struct patterns — still treated as held).
#[allow(
    clippy::option_option,
    reason = "outer None: not a `let`; inner None: a `let` with a pattern instead of a name"
)]
pub(crate) fn let_binding_name(
    toks: &[Tok],
    stmt_start: usize,
    acq_idx: usize,
) -> Option<Option<String>> {
    if toks.get(stmt_start).and_then(Tok::ident) != Some("let") {
        return None;
    }
    let mut j = stmt_start + 1;
    while j < acq_idx {
        match &toks[j] {
            Tok::Ident(k) if k == "mut" => j += 1,
            Tok::Ident(name) => return Some(Some(name.clone())),
            _ => return Some(None),
        }
    }
    Some(None)
}

// ---------------------------------------------------------------------------
// TG08 — env-knob registry
// ---------------------------------------------------------------------------

/// Whether a string literal is an env-knob name: `TG_` followed by at
/// least one character from `[A-Z0-9_]`, nothing else. Exact match only —
/// prose mentioning a knob ("TG_SEED must be an integer") has spaces and
/// never qualifies.
fn is_knob_name(s: &str) -> bool {
    s.strip_prefix("TG_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
    })
}

/// Per-file half of TG08: every `TG_*` string literal (an `env::var` name
/// or a `const NAME_ENV: &str` the reads go through) must be registered in
/// `[knobs]`. Also records every reference for the workspace drift check.
fn tg08_knob_refs(
    path: &str,
    lexed: &Lexed,
    cfg: &Config,
    refs: &mut Vec<(String, String)>,
    out: &mut Vec<Finding>,
) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if lexed.in_test[i] {
            continue;
        }
        let Some(s) = tok.str_content() else { continue };
        if !is_knob_name(s) {
            continue;
        }
        refs.push((s.to_string(), path.to_string()));
        if !cfg.knobs.iter().any(|k| k.name == s) {
            out.push(Finding {
                lint: Lint::Tg08KnobRegistry,
                path: path.to_string(),
                line: lexed.lines[i],
                message: format!(
                    "env knob `{s}` is not registered in [knobs] (tg-check.toml); \
                     declare its owning crate and doc anchor"
                ),
            });
        }
    }
}

/// Workspace half of TG08, run only with `docs` available: the registry
/// must not drift from the tree (an entry nobody references, or whose
/// owner path holds no referencing file) nor from the documentation (a
/// doc anchor that resolves in neither README.md nor DESIGN.md, or a doc
/// knob-table row — a line starting with `` | `TG_ `` — naming a knob the
/// registry lacks). Registry findings are attributed to the entry's line
/// in tg-check.toml, table-row findings to the doc line; none is
/// suppressible — fix the registry, the code or the docs.
fn tg08_registry_drift(
    cfg: &Config,
    refs: &[(String, String)],
    docs: &[(String, String)],
    out: &mut Vec<Finding>,
) {
    let mut fail = |line: u32, message: String| {
        out.push(Finding {
            lint: Lint::Tg08KnobRegistry,
            path: crate::CONFIG_FILE.to_string(),
            line,
            message,
        });
    };
    for k in &cfg.knobs {
        let referenced: Vec<&str> = refs
            .iter()
            .filter(|(name, _)| name == &k.name)
            .map(|(_, path)| path.as_str())
            .collect();
        if referenced.is_empty() {
            fail(
                k.line,
                format!(
                    "registered knob `{}` is referenced nowhere in the scanned tree; \
                     delete the stale entry or restore the reading code",
                    k.name
                ),
            );
        } else if !referenced.iter().any(|p| p.starts_with(&k.owner)) {
            fail(
                k.line,
                format!(
                    "knob `{}` declares owner `{}` but is only referenced from {}; \
                     update the owner",
                    k.name,
                    k.owner,
                    referenced.join(", ")
                ),
            );
        }
        if !docs.iter().any(|(_, text)| text.contains(&k.anchor)) {
            fail(
                k.line,
                format!(
                    "doc anchor `{}` for knob `{}` resolves in none of: {}; document \
                     the knob or fix the anchor",
                    k.anchor,
                    k.name,
                    docs.iter()
                        .map(|(name, _)| name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
    }
    for (doc, text) in docs {
        for (ln, line) in text.lines().enumerate() {
            let Some(row) = line.strip_prefix("| `TG_") else {
                continue;
            };
            let name = format!("TG_{}", row.split('`').next().unwrap_or_default());
            if !cfg.knobs.iter().any(|k| k.name == name) {
                out.push(Finding {
                    lint: Lint::Tg08KnobRegistry,
                    path: doc.clone(),
                    line: (ln + 1) as u32,
                    message: format!(
                        "knob table row names `{name}`, which [knobs] (tg-check.toml) \
                         does not register; delete the row or register the knob"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

pub(crate) fn prev_is(lexed: &Lexed, i: usize, c: char) -> bool {
    i > 0 && lexed.tokens[i - 1].is_punct(c)
}

fn next_is(lexed: &Lexed, i: usize, c: char) -> bool {
    lexed.tokens.get(i + 1).is_some_and(|t| t.is_punct(c))
}
