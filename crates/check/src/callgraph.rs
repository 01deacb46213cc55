//! A lightweight intra-workspace call graph for the cross-function half
//! of TG04, built straight from the token streams — function items are
//! indexed by name, call sites resolve to every same-named function, and
//! a fixpoint finds which functions reach a lock acquisition, directly or
//! through calls. A call made while holding a guard that can reach an
//! acquisition is a nested lock the per-scope lexical pass cannot see.
//!
//! Approximations (documented in DESIGN.md): resolution is by bare
//! function name, so same-named functions are merged conservatively (a
//! call reaches an acquisition if any of them does); closures attribute
//! their effects to the enclosing `fn`; trait dispatch, function pointers
//! and macro bodies are invisible. Method calls only create edges in the
//! `self.helper(..)` shape — a bare name like `.len()` or `.push(x)` on
//! a local or field is overwhelmingly a std container method, and
//! resolving it to a same-named workspace function drowns the lint in
//! collisions. The debug-build runtime tracker in `tg-sync` backstops
//! all of these blind spots.

use std::collections::HashMap;

use crate::config::Config;
use crate::lexer::{Lexed, Tok};
use crate::lints::{
    call_paren_after, let_binding_name, prev_is, receiver_of, Finding, Lint, ACQUIRE_METHODS,
};

/// Identifiers that look like calls (`while (x)`) but never are.
const KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "move", "else", "break",
    "continue", "unsafe", "in", "as", "where",
];

/// One call site inside a function body.
struct Call {
    callee: String,
    line: u32,
    /// The class of the innermost guard lexically held at the call, if any.
    held: Option<String>,
}

/// One indexed `fn` item.
struct FnInfo {
    name: String,
    path: String,
    calls: Vec<Call>,
    /// A lock acquisition this function reaches (its first direct one, or
    /// one through calls): the acquired class and the witness chain of
    /// function names leading to it.
    reaches: Option<(String, Vec<String>)>,
}

/// The workspace function index.
pub struct FnIndex {
    fns: Vec<FnInfo>,
    by_name: HashMap<String, Vec<usize>>,
}

impl FnIndex {
    /// Indexes every `fn` item in the given lexed files (test regions are
    /// skipped) and runs the reachability fixpoint.
    pub fn build<'a, I>(files: I, cfg: &Config) -> FnIndex
    where
        I: Iterator<Item = (&'a str, &'a Lexed)>,
    {
        let mut index = FnIndex {
            fns: Vec::new(),
            by_name: HashMap::new(),
        };
        for (path, lexed) in files {
            index_file(path, lexed, cfg, &mut index.fns);
        }
        for (id, f) in index.fns.iter().enumerate() {
            index.by_name.entry(f.name.clone()).or_default().push(id);
        }
        index.fixpoint();
        index
    }

    /// The acquisition a call to `callee` reaches: the first same-named
    /// candidate that reaches one.
    fn reached_by(&self, callee: &str) -> Option<&(String, Vec<String>)> {
        self.by_name
            .get(callee)?
            .iter()
            .find_map(|&gid| self.fns[gid].reaches.as_ref())
    }

    /// Marks, until stable, every function that calls a function already
    /// marked (indexing marked each direct acquisition). Cycles converge
    /// because a mark is set once and never changes.
    fn fixpoint(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..self.fns.len() {
                if self.fns[id].reaches.is_some() {
                    continue;
                }
                let f = &self.fns[id];
                let reaches = f.calls.iter().find_map(|call| {
                    let (class, chain) = self.reached_by(&call.callee)?;
                    let mut via = vec![f.name.clone()];
                    via.extend(chain.iter().take(5).cloned());
                    Some((class.clone(), via))
                });
                if reaches.is_some() {
                    self.fns[id].reaches = reaches;
                    changed = true;
                }
            }
        }
    }

    /// The cross-function TG04 findings: call sites that hold a guard and
    /// can transitively reach a lock acquisition.
    pub fn cross_function_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for f in &self.fns {
            for call in &f.calls {
                let Some(held_class) = &call.held else {
                    continue;
                };
                let Some((class, chain)) = self.reached_by(&call.callee) else {
                    continue;
                };
                out.push(Finding {
                    lint: Lint::Tg04NestedLock,
                    path: f.path.clone(),
                    line: call.line,
                    message: format!(
                        "calls `{callee}()`, which can acquire `{class}` via {chain}, \
                         while holding `{held_class}`; no lock is taken while \
                         another is held",
                        callee = call.callee,
                        chain = chain.join(" -> "),
                    ),
                });
            }
        }
        out
    }
}

/// Whether the call at token `i` creates a call-graph edge: any plain or
/// path call (`helper(x)`, `module::helper(x)`), but a method call only
/// in the `self.helper(x)` shape — see the module docs for why.
fn is_edge_call_shape(toks: &[Tok], i: usize) -> bool {
    if !toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.')) {
        return true;
    }
    toks.get(i.wrapping_sub(2)).and_then(Tok::ident) == Some("self")
}

/// Indexes one file's `fn` items: name, direct lock acquisitions, and
/// call sites with the lexically held guard's class.
/// Tokens are attributed to the innermost enclosing `fn` (closures fold
/// into their parent).
fn index_file(path: &str, lexed: &Lexed, cfg: &Config, out: &mut Vec<FnInfo>) {
    let toks = &lexed.tokens;

    // First pass: find fn items and map their body-opening brace.
    let mut body_open: HashMap<usize, usize> = HashMap::new(); // tok idx -> fn id
    let base = out.len();
    for i in 0..toks.len() {
        if toks[i].ident() != Some("fn") || lexed.in_test[i] {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Tok::ident) else {
            continue; // `fn(` pointer type
        };
        // Scan the signature to the body `{` or a bodyless `;`.
        let open = toks[i + 2..]
            .iter()
            .position(|t| t.is_punct('{') || t.is_punct(';'))
            .map(|k| i + 2 + k)
            .filter(|&j| toks[j].is_punct('{'));
        let id = out.len();
        out.push(FnInfo {
            name: name.to_string(),
            path: path.to_string(),
            calls: Vec::new(),
            reaches: None,
        });
        if let Some(open_idx) = open {
            body_open.insert(open_idx, id);
        }
    }
    if out.len() == base {
        return;
    }

    // Second pass: walk the whole file once, attributing acquisitions and
    // calls to the innermost open fn, with the same held-guard heuristics
    // as the lexical TG04 pass.
    struct Guard {
        name: Option<String>,
        class: String,
        binding_depth: i32,
    }
    let mut fn_stack: Vec<(usize, i32)> = Vec::new(); // (fn id, depth at open)
    let mut held: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    let mut stmt_start: usize = 0;

    for i in 0..toks.len() {
        match &toks[i] {
            Tok::Punct('{') => {
                if let Some(&id) = body_open.get(&i) {
                    fn_stack.push((id, depth));
                }
                depth += 1;
                stmt_start = i + 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                stmt_start = i + 1;
                held.retain(|g| g.binding_depth <= depth);
                if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                    fn_stack.pop();
                }
            }
            Tok::Punct(';') => stmt_start = i + 1,
            Tok::Ident(name) if name == "drop" && call_paren_after(toks, i).is_some() => {
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
            Tok::Ident(m) if !lexed.in_test[i] && call_paren_after(toks, i).is_some() => {
                let Some(&(fid, _)) = fn_stack.last() else {
                    continue;
                };
                let is_acquire = ACQUIRE_METHODS.contains(&m.as_str()) && prev_is(lexed, i, '.');
                if is_acquire {
                    let Some(receiver) = receiver_of(toks, i) else {
                        continue;
                    };
                    let Some(class) = cfg.lock_class_of(&receiver) else {
                        continue;
                    };
                    let f = &mut out[fid];
                    if f.reaches.is_none() {
                        f.reaches = Some((class.to_string(), vec![f.name.clone()]));
                    }
                    if let Some(bound) = let_binding_name(toks, stmt_start, i) {
                        held.push(Guard {
                            name: bound,
                            class: class.to_string(),
                            binding_depth: depth,
                        });
                    }
                } else if !KEYWORDS.contains(&m.as_str())
                    && !ACQUIRE_METHODS.contains(&m.as_str())
                    && toks.get(i.wrapping_sub(1)).and_then(Tok::ident) != Some("fn")
                    && is_edge_call_shape(toks, i)
                {
                    out[fid].calls.push(Call {
                        callee: m.clone(),
                        line: lexed.lines[i],
                        held: held.last().map(|g| g.class.clone()),
                    });
                }
            }
            _ => {}
        }
    }
}
