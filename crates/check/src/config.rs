//! `tg-check.toml` parsing — a minimal TOML subset (sections, string and
//! string-array values, `#` comments), hand-rolled because the build
//! container has no crates.io access.
//!
//! The file declares everything repo-specific so the lint logic stays
//! generic: scan roots and exclusions, the `[locks]` table (one
//! receiver-name list per lock class) TG04 and TG07 track, the TG07
//! blocking-call list, and the TG08 env-knob registry. The tool and its
//! config ship together, so an unknown section or key is an error: a typo
//! must not silently turn a lint off.

/// One `[knobs]` registry entry: an environment knob with its owning
/// crate path and the doc anchor that must resolve in README/DESIGN.
#[derive(Debug, Clone)]
pub struct KnobEntry {
    /// The knob name (`TG_SEED`, `TG_SERVE_ADDR`, …).
    pub name: String,
    /// Repo-relative path prefix of the owning crate; at least one
    /// scanned file under it must reference the knob.
    pub owner: String,
    /// Literal substring that must appear in README.md or DESIGN.md.
    pub anchor: String,
    /// 1-based line of the entry in tg-check.toml (finding attribution).
    pub line: u32,
}

/// Parsed `tg-check.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories scanned by `--workspace`, relative to the config file.
    pub roots: Vec<String>,
    /// Path substrings never scanned (vendored stand-ins, lint fixtures).
    pub exclude: Vec<String>,
    /// The `[locks]` table: each lock class with the receiver identifiers
    /// classified into it, in declaration order.
    pub lock_classes: Vec<(String, Vec<String>)>,
    /// Call names considered blocking under a held guard (TG07).
    pub tg07_blocking: Vec<String>,
    /// Lock classes whose guards legitimately cover blocking work (TG07)
    /// — e.g. a store shard whose critical section *is* the disk write.
    pub tg07_exempt_classes: Vec<String>,
    /// The `[knobs]` env-var registry (TG08), in declaration order.
    pub knobs: Vec<KnobEntry>,
}

impl Config {
    /// The lock class of a receiver identifier, if any.
    pub fn lock_class_of(&self, receiver: &str) -> Option<&str> {
        self.lock_classes
            .iter()
            .find(|(_, names)| names.iter().any(|n| n == receiver))
            .map(|(class, _)| class.as_str())
    }

    /// Parses the TOML subset. An unknown section, or an unknown key in a
    /// fixed-key section (`[scan]`, `[tg07]`), is an error naming its
    /// line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if !SECTIONS.contains(&section.as_str()) {
                    return Err(format!(
                        "tg-check.toml:{}: unknown section [{section}]",
                        ln + 1
                    ));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("tg-check.toml:{}: expected `key = value`", ln + 1));
            };
            let key = key.trim();
            let value = value.trim();
            let parsed = parse_value(value)
                .ok_or_else(|| format!("tg-check.toml:{}: bad value `{value}`", ln + 1))?;
            match (section.as_str(), key) {
                ("scan", "roots") => cfg.roots = parsed,
                ("scan", "exclude") => cfg.exclude = parsed,
                ("locks", class) => cfg.lock_classes.push((class.to_string(), parsed)),
                ("tg07", "blocking") => cfg.tg07_blocking = parsed,
                ("tg07", "exempt_classes") => cfg.tg07_exempt_classes = parsed,
                ("knobs", name) => {
                    let [owner, anchor] = parsed.as_slice() else {
                        return Err(format!(
                            "tg-check.toml:{}: knob `{name}` needs `[\"owner-path\", \
                             \"doc-anchor\"]`",
                            ln + 1
                        ));
                    };
                    cfg.knobs.push(KnobEntry {
                        name: name.to_string(),
                        owner: owner.clone(),
                        anchor: anchor.clone(),
                        line: (ln + 1) as u32,
                    });
                }
                _ => {
                    return Err(format!(
                        "tg-check.toml:{}: unknown key `{key}` in [{section}]",
                        ln + 1
                    ));
                }
            }
        }
        for class in &cfg.tg07_exempt_classes {
            if !cfg.lock_classes.iter().any(|(c, _)| c == class) {
                return Err(format!(
                    "tg-check.toml: tg07 exempt class `{class}` is not a [locks] class"
                ));
            }
        }
        Ok(cfg)
    }
}

/// Every section `Config::parse` accepts.
const SECTIONS: [&str; 4] = ["scan", "locks", "tg07", "knobs"];

/// Strips a trailing `#` comment, respecting `"…"` strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"string"` or `["a", "b"]`; returns the element list (a bare
/// string parses as a one-element list).
fn parse_value(value: &str) -> Option<Vec<String>> {
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Some(Vec::new());
        }
        inner
            .split(',')
            .map(|item| parse_string(item.trim()))
            .collect()
    } else {
        parse_string(value).map(|s| vec![s])
    }
}

fn parse_string(item: &str) -> Option<String> {
    item.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[scan]
roots = ["crates", "src"]
exclude = ["vendor/"]

[locks]
registry = ["inner"]
cache_shard = ["shard", "shards"]

[tg07]
blocking = ["sleep", "persist"]
exempt_classes = ["cache_shard"]

[knobs]
TG_SEED = ["crates/bench", "`TG_SEED`"]
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.roots, ["crates", "src"]);
        assert_eq!(cfg.exclude, ["vendor/"]);
        assert_eq!(cfg.lock_class_of("inner"), Some("registry"));
        assert_eq!(cfg.lock_class_of("shards"), Some("cache_shard"));
        assert_eq!(cfg.lock_class_of("unrelated"), None);
        assert_eq!(cfg.tg07_blocking, ["sleep", "persist"]);
        assert_eq!(cfg.tg07_exempt_classes, ["cache_shard"]);
        assert_eq!(cfg.knobs.len(), 1);
        assert_eq!(cfg.knobs[0].name, "TG_SEED");
        assert_eq!(cfg.knobs[0].owner, "crates/bench");
        assert_eq!(cfg.knobs[0].anchor, "`TG_SEED`");
        assert!(cfg.knobs[0].line > 0);
    }

    #[test]
    fn rejects_unknown_tg07_exempt_classes() {
        let bad = "[locks]\na = [\"x\"]\n[tg07]\nexempt_classes = [\"ghost\"]\n";
        let err = Config::parse(bad).unwrap_err();
        assert!(err.contains("`ghost`"), "{err}");
        let good = "[locks]\na = [\"x\"]\n[tg07]\nexempt_classes = [\"a\"]\n";
        assert!(Config::parse(good).is_ok());
    }

    #[test]
    fn rejects_malformed_knob_entries() {
        assert!(Config::parse("[knobs]\nTG_X = [\"owner-only\"]\n").is_err());
        assert!(Config::parse("[knobs]\nTG_X = \"bare\"\n").is_err());
    }

    #[test]
    fn rejects_unknown_sections_and_keys_naming_the_line() {
        let typo = "[tg07]\nblocking = [\"sleep\"]\n\n[tg07]\nblockng = [\"sleep\"]\n";
        let err = Config::parse(typo).unwrap_err();
        assert!(err.contains(":5:") && err.contains("`blockng`"), "{err}");
        let err = Config::parse("[scan]\nroots = []\n[tg02]\n").unwrap_err();
        assert!(err.contains(":3:") && err.contains("[tg02]"), "{err}");
        // The retired TG06 registry and lock order are unknown too: a
        // leftover section fails loudly instead of being ignored.
        for (retired, section) in [
            ("[condvars]\ncv = \"pass\"\n", "[condvars]"),
            ("[lock_order]\norder = [\"a\"]\n", "[lock_order]"),
        ] {
            let err = Config::parse(retired).unwrap_err();
            assert!(err.contains(":1:") && err.contains(section), "{err}");
        }
        assert!(
            Config::parse("roots = [\"crates\"]\n").is_err(),
            "key outside any section"
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[scan]\nroots\n").is_err());
        assert!(Config::parse("[scan]\nroots = nope\n").is_err());
    }
}
