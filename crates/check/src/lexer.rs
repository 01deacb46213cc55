//! A hand-rolled token scanner for Rust source — just enough lexing for the
//! TG lints, with no `syn` (the build container has no crates.io access).
//!
//! The scanner produces a flat token stream (identifiers, punctuation,
//! literals) with line numbers, a per-line comment table (the carrier for
//! `tg-check: allow(...)` directives and TG03 justification comments), and a
//! per-token "test region" mask covering `#[cfg(test)]` items, `#[test]`
//! functions and `mod tests { .. }` blocks. Comments, strings and char
//! literals are consumed without emitting lintable tokens, so a pattern
//! inside a doc comment or a string can never fire a lint.

use std::collections::HashMap;

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`unwrap`, `fn`, `Ordering`, …).
    Ident(String),
    /// A single punctuation character (`.`, `(`, `{`, `!`, …).
    Punct(char),
    /// A string literal (plain, raw or byte) carrying its body text with
    /// escapes left verbatim — enough for exact-match checks like the
    /// TG08 `TG_*` knob registry, which never contain escapes.
    Str(String),
    /// A non-string literal (char / number), content discarded.
    Literal,
}

impl Tok {
    /// The identifier text, if this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The string-literal body, if this is a string token.
    pub fn str_content(&self) -> Option<&str> {
        match self {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

/// If `i` points at the `::<` of a turbofish (`collect::<Vec<_>>()`),
/// returns the index just past its matching `>`; otherwise returns `i`.
/// Nested angle groups are tracked; `>` arrives as individual `Punct`
/// tokens, so `>>` closers need no special casing.
pub fn skip_turbofish(tokens: &[Tok], i: usize) -> usize {
    if !(tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('<')))
    {
        return i;
    }
    let mut depth = 0usize;
    let mut j = i + 2;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    i
}

/// The lexed form of one source file.
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Tok>,
    /// 1-based line of each token (parallel to `tokens`).
    pub lines: Vec<u32>,
    /// Concatenated comment text per 1-based line (line + block comments).
    pub comments: HashMap<u32, String>,
    /// `true` for tokens inside `#[cfg(test)]` / `#[test]` / `mod tests`
    /// regions (parallel to `tokens`).
    pub in_test: Vec<bool>,
}

impl Lexed {
    /// Whether `line` (or the line above it) carries any comment — the TG03
    /// notion of "has a justification comment".
    pub fn has_nearby_comment(&self, line: u32) -> bool {
        self.comments.contains_key(&line) || (line > 1 && self.comments.contains_key(&(line - 1)))
    }
}

/// Lexes one file. Never fails: unterminated constructs consume to EOF.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut lines = Vec::new();
    let mut comments: HashMap<u32, String> = HashMap::new();
    let mut i = 0;
    let mut line: u32 = 1;

    let mut push_comment = |line: u32, text: &str| {
        let entry = comments.entry(line).or_default();
        if !entry.is_empty() {
            entry.push(' ');
        }
        entry.push_str(text);
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                push_comment(line, source[start..i].trim_start_matches('/').trim());
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment; text credited to its starting line.
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = source[start..i]
                    .trim_start_matches('/')
                    .trim_matches(|c| c == '*' || c == '/' || char::is_whitespace(c));
                push_comment(start_line, text);
            }
            '"' => {
                let start = i + 1;
                i = consume_string(bytes, start, &mut line).min(bytes.len());
                let end = if bytes.get(i.wrapping_sub(1)) == Some(&b'"') {
                    i - 1
                } else {
                    i // unterminated: body runs to EOF
                };
                tokens.push(Tok::Str(source[start..end].to_string()));
                lines.push(line);
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                let (next, body) = consume_raw_or_byte_string(bytes, i, &mut line);
                i = next;
                tokens.push(Tok::Str(source[body].to_string()));
                lines.push(line);
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime is `'ident` with no
                // closing quote right after its first (maybe multi-byte) char.
                let mut j = i + 1;
                let width = source[j..].chars().next().map_or(0, char::len_utf8);
                if bytes.get(j) == Some(&b'\\') {
                    // Escaped char literal: consume to closing quote.
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    i = j + 1;
                    tokens.push(Tok::Literal);
                    lines.push(line);
                } else if bytes.get(j).is_some_and(|b| is_ident_char(*b))
                    && bytes.get(j + width) != Some(&b'\'')
                {
                    // Lifetime: skip the identifier, emit nothing.
                    while j < bytes.len() && is_ident_char(bytes[j]) {
                        j += 1;
                    }
                    i = j;
                } else {
                    // Plain char literal like 'x' or 'λ' (or the degenerate
                    // `'''`): skip the char by its UTF-8 width.
                    i = (j + width + 1).min(bytes.len());
                    tokens.push(Tok::Literal);
                    lines.push(line);
                }
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (is_ident_char(bytes[i]) || bytes[i] == b'.') {
                    // Stop a number at `..` (range) or `.method`.
                    if bytes[i] == b'.' && !bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Tok::Literal);
                lines.push(line);
            }
            c if c.is_ascii_alphabetic() || c == '_' || !c.is_ascii() => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                tokens.push(Tok::Ident(source[start..i].to_string()));
                lines.push(line);
            }
            c => {
                tokens.push(Tok::Punct(c));
                lines.push(line);
                i += 1;
            }
        }
    }

    let in_test = mark_test_regions(&tokens);
    Lexed {
        tokens,
        lines,
        comments,
        in_test,
    }
}

/// Identifier bytes: ASCII alphanumerics, `_`, and every byte of a
/// non-ASCII char (Rust identifiers may be Unicode; outside strings,
/// comments and char literals nothing else is non-ASCII).
fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || !b.is_ascii()
}

/// Consumes a `"…"` string body starting after the opening quote, handling
/// escapes and embedded newlines; returns the index after the closing quote.
fn consume_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Whether position `i` (at `r` or `b`) starts a raw/byte string rather
/// than a plain identifier (`r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`).
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) == Some(&b'"') {
            return true;
        }
        if bytes.get(j) != Some(&b'r') {
            return false;
        }
    }
    // At `r`: raw string if followed by quotes or hashes-then-quote.
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Consumes a raw or byte string starting at its `r`/`b` prefix; returns
/// the index after the closing delimiter and the body byte range
/// (between the delimiters, escapes verbatim).
fn consume_raw_or_byte_string(
    bytes: &[u8],
    mut i: usize,
    line: &mut u32,
) -> (usize, std::ops::Range<usize>) {
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1; // opening quote
    let body_start = i;
    if !raw {
        let end = consume_string(bytes, i, line).min(bytes.len());
        let body_end = if bytes.get(end.wrapping_sub(1)) == Some(&b'"') {
            end - 1
        } else {
            end
        };
        return (end, body_start..body_end);
    }
    // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (j, body_start..i);
            }
        }
        i += 1;
    }
    (i, body_start..i)
}

/// Computes the per-token test-region mask: `#[cfg(test)]` items, `#[test]`
/// functions and `mod tests { .. }` blocks are masked in full, so lints stay
/// silent inside them.
fn mark_test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    // Depth at which the innermost active test region opened; None outside.
    let mut region_depth: Option<i32> = None;
    // A test attribute / `mod tests` was seen; the next `{` opens a region
    // (cleared by a `;` first — e.g. `#[cfg(test)] use foo;`).
    let mut pending = false;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if region_depth.is_none()
            && t.is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && is_test_attribute(tokens, i + 2)
        {
            pending = true;
        }
        if region_depth.is_none()
            && t.ident() == Some("mod")
            && tokens.get(i + 1).and_then(Tok::ident) == Some("tests")
        {
            pending = true;
        }
        match t {
            Tok::Punct('{') => {
                if pending && region_depth.is_none() {
                    region_depth = Some(depth);
                    pending = false;
                }
                depth += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                if region_depth == Some(depth) {
                    mask[i] = true; // include the closing brace
                    region_depth = None;
                    i += 1;
                    continue;
                }
            }
            Tok::Punct(';') if region_depth.is_none() => pending = false,
            _ => {}
        }
        if region_depth.is_some() {
            mask[i] = true;
        }
        i += 1;
    }
    mask
}

/// Whether the attribute body starting at `i` (just past `#[`) is
/// `test`, `cfg(test)`, or a `cfg(...)` list containing `test`.
fn is_test_attribute(tokens: &[Tok], i: usize) -> bool {
    match tokens.get(i).and_then(Tok::ident) {
        Some("test") => true,
        Some("cfg") => {
            // Scan the balanced `( … )` for a bare `test` identifier.
            let mut j = i + 1;
            let mut depth = 0;
            while let Some(t) = tokens.get(j) {
                match t {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            return false;
                        }
                    }
                    Tok::Ident(s) if s == "test" => return true,
                    _ => {}
                }
                j += 1;
            }
            false
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_emit_no_lintable_tokens() {
        let src = "
// unwrap() in a comment
/* panic! in /* a nested */ block */
let s = \"unwrap() inside a string\";
let r = r\"raw panic!\";
let raw_hash = r#\"hash-delimited unwrap()\"#;
";
        let lexed = lex(src);
        let idents: Vec<&str> = lexed.tokens.iter().filter_map(Tok::ident).collect();
        assert!(!idents.contains(&"unwrap"));
        assert!(!idents.contains(&"panic"));
        assert!(lexed.comments.values().any(|c| c.contains("unwrap()")));
    }

    #[test]
    fn lifetimes_do_not_swallow_source_as_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }");
        let idents: Vec<&str> = lexed.tokens.iter().filter_map(Tok::ident).collect();
        assert!(idents.contains(&"unwrap"));
    }

    #[test]
    fn cfg_test_and_mod_tests_regions_are_masked() {
        let src = "
fn lib_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
";
        let lexed = lex(src);
        let flagged: Vec<(bool, u32)> = lexed
            .tokens
            .iter()
            .zip(&lexed.lines)
            .zip(&lexed.in_test)
            .filter(|((t, _), _)| t.ident() == Some("unwrap"))
            .map(|((_, &line), &in_test)| (in_test, line))
            .collect();
        assert_eq!(flagged.len(), 2);
        assert!(!flagged[0].0, "library unwrap is lintable");
        assert!(flagged[1].0, "test unwrap is masked");
    }

    #[test]
    fn cfg_test_on_a_statement_does_not_open_a_region() {
        let lexed = lex("#[cfg(test)]\nuse foo;\nfn f() { x.unwrap(); }");
        let any_masked = lexed.in_test.iter().any(|&b| b);
        assert!(!any_masked, "a `;` clears the pending attribute");
    }

    #[test]
    fn string_tokens_carry_their_body_text() {
        let lexed = lex(r#"const K: &str = "TG_SEED"; let e = env::var("TG_SCALE");"#);
        let strs: Vec<&str> = lexed.tokens.iter().filter_map(Tok::str_content).collect();
        assert_eq!(strs, ["TG_SEED", "TG_SCALE"]);
    }

    #[test]
    fn raw_and_byte_strings_carry_bodies_and_escapes_stay_verbatim() {
        let src = "let a = r\"no\\escape\"; let b = r##\"has \"quote\"\"##; let c = b\"bytes\"; let d = \"tab\\tend\";";
        let lexed = lex(src);
        let strs: Vec<&str> = lexed.tokens.iter().filter_map(Tok::str_content).collect();
        assert_eq!(strs, ["no\\escape", "has \"quote\"", "bytes", "tab\\tend"]);
    }

    #[test]
    fn unterminated_string_consumes_to_eof_without_panicking() {
        let lexed = lex("let s = \"never closed");
        let strs: Vec<&str> = lexed.tokens.iter().filter_map(Tok::str_content).collect();
        assert_eq!(strs, ["never closed"]);
    }

    #[test]
    fn skip_turbofish_handles_nested_angles() {
        let lexed = lex("x.collect::<Vec<Option<u8>>>()");
        // Find the first `:` after `collect` and skip the turbofish.
        let at = lexed
            .tokens
            .iter()
            .position(|t| t.is_punct(':'))
            .expect("turbofish colons");
        let after = skip_turbofish(&lexed.tokens, at);
        assert!(lexed.tokens[after].is_punct('('), "lands on the call paren");
        // Not a turbofish: the index comes back unchanged.
        assert_eq!(skip_turbofish(&lexed.tokens, 0), 0);
    }

    #[test]
    fn non_ascii_identifiers_terminate_as_one_token() {
        let lexed = lex("let λ = 1; let naïve_x = λ;");
        let idents: Vec<&str> = lexed.tokens.iter().filter_map(Tok::ident).collect();
        assert_eq!(idents, ["let", "λ", "let", "naïve_x", "λ"]);
    }

    #[test]
    fn multi_byte_char_literals_keep_the_rest_of_the_line() {
        let lexed = lex("let c = 'λ';\nlet d = '×';\nlet e: &'static str = \"\";\n");
        let toks: Vec<(&Tok, u32)> = lexed
            .tokens
            .iter()
            .zip(lexed.lines.iter().copied())
            .collect();
        let semis: Vec<u32> = toks
            .iter()
            .filter(|(t, _)| t.is_punct(';'))
            .map(|&(_, line)| line)
            .collect();
        assert_eq!(
            semis,
            [1, 2, 3],
            "each statement keeps its `;` on its own line"
        );
        let lets: Vec<u32> = toks
            .iter()
            .filter(|(t, _)| t.ident() == Some("let"))
            .map(|&(_, line)| line)
            .collect();
        assert_eq!(lets, [1, 2, 3]);
        assert!(
            !lexed.tokens.iter().any(|t| t.ident() == Some("static")),
            "lifetime skipped"
        );
    }

    #[test]
    fn lint_patterns_inside_strings_stay_unlintable() {
        let lexed = lex(r#"let s = "x.unwrap() and panic!";"#);
        let idents: Vec<&str> = lexed.tokens.iter().filter_map(Tok::ident).collect();
        assert!(!idents.contains(&"unwrap"));
        assert!(!idents.contains(&"panic"));
    }
}
