//! Diagnostics and in-source waivers.

use std::fmt;
use std::path::PathBuf;

use crate::lexer::Comment;

/// Every rule the pass knows, as stable ids used in diagnostics and waiver
/// comments. Waivers may name a full id (`det:map-iter`) or a family
/// prefix (`det`, `decode`) to cover every rule in the family.
pub const RULE_IDS: &[&str] = &[
    "det:time",
    "det:thread",
    "det:process",
    "det:entropy",
    "det:map-iter",
    "det:global",
    "det:hash",
    "decode:panic",
    "decode:index",
    "decode:cast",
    "alloc:cap",
    "state:bound",
    "dead:param",
    "waiver:syntax",
    "waiver:unknown-rule",
    "waiver:unused",
];

/// One finding, rendered as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A parsed waiver comment.
///
/// Syntax (the comment text must *start* with the marker, so prose that
/// merely mentions the syntax does not waive anything):
///
/// ```text
/// // lint:allow(rule[, rule...]) -- justification
/// ```
///
/// A waiver suppresses matching diagnostics on its own line and on the line
/// directly below it (so it can sit above the flagged statement).
#[derive(Debug)]
pub struct Waiver {
    pub line: u32,
    pub rules: Vec<String>,
    pub used: bool,
}

const MARKER: &str = "lint:allow(";

/// Extracts well-formed waivers from a file's comments; malformed or
/// unknown-rule waivers produce diagnostics instead of suppressions.
pub fn parse_waivers(
    comments: &[Comment],
    file: &std::path::Path,
    diagnostics: &mut Vec<Diagnostic>,
) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for comment in comments {
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix(MARKER) else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            diagnostics.push(Diagnostic {
                file: file.to_path_buf(),
                line: comment.line,
                rule: "waiver:syntax",
                message: "unterminated lint:allow(...) waiver".to_string(),
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..].trim_start();
        let justified = tail
            .strip_prefix("--")
            .is_some_and(|j| !j.trim().is_empty());
        if rules.is_empty() || !justified {
            diagnostics.push(Diagnostic {
                file: file.to_path_buf(),
                line: comment.line,
                rule: "waiver:syntax",
                message: "waiver must name its rule and justify itself: lint:allow(rule) -- reason"
                    .to_string(),
            });
            continue;
        }
        let mut ok = true;
        for rule in &rules {
            let known = RULE_IDS
                .iter()
                .any(|id| *id == rule || id.split(':').next() == Some(rule.as_str()));
            if !known {
                diagnostics.push(Diagnostic {
                    file: file.to_path_buf(),
                    line: comment.line,
                    rule: "waiver:unknown-rule",
                    message: format!("waiver names unknown rule `{rule}`"),
                });
                ok = false;
            }
        }
        if ok {
            waivers.push(Waiver {
                line: comment.line,
                rules,
                used: false,
            });
        }
    }
    waivers
}

/// Applies waivers to a file's diagnostics: matching findings are dropped,
/// waivers that suppressed nothing are reported as stale.
pub fn apply_waivers(
    waivers: &mut [Waiver],
    diagnostics: Vec<Diagnostic>,
    file: &std::path::Path,
) -> Vec<Diagnostic> {
    let mut kept = Vec::new();
    for diagnostic in diagnostics {
        let mut suppressed = false;
        for waiver in waivers.iter_mut() {
            let line_matches = diagnostic.line == waiver.line || diagnostic.line == waiver.line + 1;
            let rule_matches = waiver.rules.iter().any(|rule| {
                rule == diagnostic.rule || diagnostic.rule.split(':').next() == Some(rule.as_str())
            });
            if line_matches && rule_matches && !diagnostic.rule.starts_with("waiver:") {
                waiver.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(diagnostic);
        }
    }
    for waiver in waivers.iter().filter(|w| !w.used) {
        kept.push(Diagnostic {
            file: file.to_path_buf(),
            line: waiver.line,
            rule: "waiver:unused",
            message: format!(
                "waiver for {} suppresses nothing — remove it",
                waiver.rules.join(", ")
            ),
        });
    }
    kept
}
