//! A hand-rolled Rust token scanner.
//!
//! The lint runs in offline CI containers, so it cannot depend on `syn` or
//! any other parser crate. Instead this module lexes Rust source into a flat
//! token stream that is *comment- and string-literal aware*: banned names
//! inside string literals or comments never produce tokens, line comments
//! are captured separately (they carry waivers and `bound:` annotations),
//! and a post-pass marks every token that lives under a `#[cfg(test)]` /
//! `#[test]` item so rules can skip test-only code.
//!
//! The scanner does not build an AST. Every rule works on token patterns
//! plus brace/paren depth, which is enough for the invariants checked here
//! and keeps the scanner a few hundred lines of `std`-only code.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

/// Token payload. A string literal keeps its text, as written between the
/// quotes (escapes unexpanded): the one rule that reads inside a string is
/// `dead:param`, which looks for layer-param keys. Other literals keep no
/// text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    Ident(String),
    /// A lifetime such as `'a` (kept distinct so it cannot be mistaken for
    /// an identifier in pattern matches).
    Lifetime(String),
    Punct(char),
    /// Integer or float literal.
    Num,
    /// String, byte-string or raw-string literal.
    Str(String),
    /// Char or byte literal.
    Lit,
}

impl Token {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A `//` line comment (includes `///` and `//!` doc comments).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text after the leading slashes, untrimmed.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Debug)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Parallel to `tokens`: `true` when the token sits inside an item
    /// gated by `#[cfg(test)]` (without `not(..)`) or `#[test]`.
    pub in_test: Vec<bool>,
}

/// Lexes `source` into tokens plus captured line comments.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'\n' {
                    end += 1;
                }
                let mut text = &source[start..end];
                // `///` and `//!` doc comments: drop the extra marker so
                // waiver/annotation matching sees the same text either way.
                text = text
                    .strip_prefix('/')
                    .or_else(|| text.strip_prefix('!'))
                    .unwrap_or(text);
                comments.push(Comment {
                    line,
                    text: text.to_string(),
                });
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1;
                i += 2;
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
            }
            '"' => {
                let consumed = skip_cooked_string(&bytes[i..], &mut line);
                tokens.push(Token {
                    kind: string_literal(source, i + 1, i + consumed - 1),
                    line,
                });
                i += consumed;
            }
            '\'' => {
                // Lifetime vs char literal: `'a` followed by anything but a
                // closing quote is a lifetime; `'a'`, `'é'`, `'\n'`,
                // `'\u{1F}'` are char literals.
                let next = source[i + 1..].chars().next();
                let after = next.and_then(|n| bytes.get(i + 1 + n.len_utf8())).copied();
                let is_lifetime =
                    next.is_some_and(|n| n.is_alphabetic() || n == '_') && after != Some(b'\'');
                if is_lifetime {
                    let start = i + 1;
                    let mut end = start;
                    while end < bytes.len() && is_ident_continue(bytes[end]) {
                        end += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime(source[start..end].to_string()),
                        line,
                    });
                    i = end;
                } else {
                    // Char literal: skip to the closing quote, honouring a
                    // single backslash escape.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&b'\\') {
                        j += 2; // step over the escaped character
                    }
                    // Scan to the closing quote: covers plain chars,
                    // multi-byte UTF-8 and `\u{...}` escapes alike.
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lit,
                        line,
                    });
                    i = (j + 1).min(bytes.len());
                }
            }
            c if c.is_ascii_digit() => {
                let mut end = i + 1;
                while end < bytes.len() {
                    let b = bytes[end];
                    if is_ident_continue(b) {
                        end += 1;
                    } else if b == b'.'
                        && bytes.get(end + 1) != Some(&b'.')
                        && bytes
                            .get(end + 1)
                            .is_some_and(|n| (*n as char).is_ascii_digit())
                    {
                        // Float like `3.5`, but not the range `0..n`.
                        end += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Num,
                    line,
                });
                i = end;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let mut end = i + 1;
                while end < bytes.len() && is_ident_continue(bytes[end]) {
                    end += 1;
                }
                let word = &source[start..end];
                // String-literal prefixes: r"", b"", br#""#, c"" etc.
                let is_str_prefix = matches!(word, "r" | "b" | "br" | "rb" | "c" | "cr")
                    && matches!(bytes.get(end), Some(b'"') | Some(b'#'));
                if is_str_prefix && word.contains('r') {
                    if let Some(consumed) = skip_raw_string(&bytes[end..], &mut line) {
                        let hashes = bytes[end..].iter().take_while(|b| **b == b'#').count();
                        let (open, close) = (end + hashes + 1, end + consumed - hashes - 1);
                        tokens.push(Token {
                            kind: string_literal(source, open, close),
                            line,
                        });
                        i = end + consumed;
                        continue;
                    }
                }
                if is_str_prefix && bytes.get(end) == Some(&b'"') {
                    let consumed = skip_cooked_string(&bytes[end..], &mut line);
                    tokens.push(Token {
                        kind: string_literal(source, end + 1, end + consumed - 1),
                        line,
                    });
                    i = end + consumed;
                    continue;
                }
                // Raw identifier `r#ident`.
                if word == "r" && bytes.get(end) == Some(&b'#') {
                    let rstart = end + 1;
                    let mut rend = rstart;
                    while rend < bytes.len() && is_ident_continue(bytes[rend]) {
                        rend += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Ident(source[rstart..rend].to_string()),
                        line,
                    });
                    i = rend;
                    continue;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(word.to_string()),
                    line,
                });
                i = end;
            }
            other => {
                tokens.push(Token {
                    kind: TokenKind::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }

    let in_test = mark_test_spans(&tokens);
    Lexed {
        tokens,
        comments,
        in_test,
    }
}

/// A string literal whose text spans `source[open..close]`; an unterminated
/// literal keeps what there is of it.
fn string_literal(source: &str, open: usize, close: usize) -> TokenKind {
    let text = source.get(open..close.max(open)).unwrap_or_default();
    TokenKind::Str(text.to_string())
}

/// Every byte of a non-ASCII character continues an identifier, so a
/// token never ends inside a character.
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || !b.is_ascii()
}

/// Skips a `"..."` string starting at `bytes[0] == '"'`; returns consumed
/// byte count and advances the line counter across embedded newlines.
fn skip_cooked_string(bytes: &[u8], line: &mut u32) -> usize {
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Skips a raw string starting at `#`* `"` ... `"` `#`*; `bytes[0]` is the
/// first `#` or the opening quote. Returns `None` when this is not actually
/// a raw string opener.
fn skip_raw_string(bytes: &[u8], line: &mut u32) -> Option<usize> {
    let mut hashes = 0;
    while bytes.get(hashes) == Some(&b'#') {
        hashes += 1;
    }
    if bytes.get(hashes) != Some(&b'"') {
        return None;
    }
    let mut i = hashes + 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"' && bytes[i + 1..].iter().take(hashes).all(|b| *b == b'#') {
            return Some(i + 1 + hashes);
        } else {
            i += 1;
        }
    }
    Some(bytes.len())
}

/// Marks every token under a `#[cfg(test)]` / `#[test]` item as test-only.
///
/// The pass looks for attribute groups containing the ident `test` (and not
/// `not`, so `#[cfg(not(test))]` keeps its item live), then skips any
/// further attributes and marks the following item — up to its matching
/// closing brace, or the terminating semicolon for brace-less items.
fn mark_test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens.
        let mut j = i + 2;
        let mut depth = 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
            } else if tokens[j].is_ident("test") {
                has_test = true;
            } else if tokens[j].is_ident("not") {
                has_not = true;
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = j;
        while k < tokens.len() && tokens[k].is_punct('#') {
            if tokens.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 1;
                k += 2;
                while k < tokens.len() && depth > 0 {
                    if tokens[k].is_punct('[') {
                        depth += 1;
                    } else if tokens[k].is_punct(']') {
                        depth -= 1;
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        // Mark until the item ends: matching `}` of its first brace, or the
        // first `;` at depth zero (e.g. `use` items).
        let mut depth = 0i32;
        let mut end = k;
        while end < tokens.len() {
            let t = &tokens[end];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end += 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                end += 1;
                break;
            }
            end += 1;
        }
        for flag in in_test.iter_mut().take(end).skip(i) {
            *flag = true;
        }
        i = end;
    }
    in_test
}
