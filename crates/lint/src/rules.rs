//! The five rule families.
//!
//! Every rule works on the lexed token stream of one file (plus, for the
//! bounded-session-state rule, the set of `Session`-implementing type names
//! collected across the whole crate). Rules are heuristic by design — a
//! token scanner cannot do type inference — but they are tuned so that the
//! protocol code in this workspace is checkable without noise, and every
//! deliberate exception must carry a visible `lint:allow` waiver.

use std::collections::BTreeSet;
use std::path::Path;

use crate::diag::Diagnostic;
use crate::lexer::{Lexed, Token, TokenKind};

/// Crates (by directory name) holding protocol/simulation code that must
/// replay deterministically from a seed. The determinism family only runs
/// here; the decode/alloc families run everywhere.
pub const PROTOCOL_CRATES: &[&str] = &[
    "appia",
    "groupcomm",
    "cocaditem",
    "core",
    "netsim",
    "testbed",
    "chat",
    "overlay",
];

/// The one protocol crate allowed per-thread or global state: the kernel's
/// reusable buffers, which `appia::reset_thread_scratch` starts afresh
/// before every run.
const GLOBAL_STATE_CRATE: &str = "appia";

/// Types that make a `static` mutable through a shared reference (any
/// `Atomic*` type counts too).
const INTERIOR_MUTABLE: &[&str] = &[
    "Cell", "RefCell", "OnceCell", "OnceLock", "LazyCell", "LazyLock", "Mutex", "RwLock",
];

/// File stems treated as wire/codec modules: the panic-freedom rules cover
/// the *entire* module, not just `decode` function bodies.
const CODEC_STEMS: &[&str] = &["wire", "message", "headers"];

/// Order-insensitive (or order-restoring) continuations that exempt a hash
/// iteration: sorting the collected result, collecting into an ordered
/// container, or reducing commutatively.
const ORDER_EXEMPT: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
];

/// Iteration methods with hash-order-dependent results.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Layer-param readers: the second argument names the key read.
const PARAM_READERS: &[&str] = &["param_or", "param_node_list"];

/// Collection types that count as unbounded session state unless annotated.
const COLLECTIONS: &[&str] = &[
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Everything the scanner derives once per file and shares across rules.
pub struct FileCtx<'a> {
    pub file: &'a Path,
    pub crate_name: &'a str,
    pub stem: &'a str,
    pub lexed: &'a Lexed,
    /// Combined `(`/`[`/`{` nesting depth *before* each token.
    depth: Vec<u32>,
    /// Token ranges of function bodies on decode paths (named `decode*` /
    /// `from_bytes*`, touching `WireReader`, or inside a `WireReader` impl).
    decode_bodies: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    pub fn new(file: &'a Path, crate_name: &'a str, lexed: &'a Lexed) -> Self {
        let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let tokens = &lexed.tokens;
        let mut depth = Vec::with_capacity(tokens.len());
        let mut d = 0u32;
        for token in tokens {
            depth.push(d);
            match token.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => d += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    d = d.saturating_sub(1);
                }
                _ => {}
            }
        }
        let decode_bodies = find_decode_bodies(tokens);
        Self {
            file,
            crate_name,
            stem,
            lexed,
            depth,
            decode_bodies,
        }
    }

    fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    fn in_test(&self, idx: usize) -> bool {
        self.lexed.in_test.get(idx).copied().unwrap_or(false)
    }

    fn is_codec_file(&self) -> bool {
        CODEC_STEMS.contains(&self.stem)
    }

    fn in_decode_scope(&self, idx: usize) -> bool {
        self.decode_bodies
            .iter()
            .any(|(start, end)| idx >= *start && idx < *end)
    }

    /// Panic-freedom scope: the whole file for codec modules, otherwise
    /// only decode-path function bodies.
    fn in_panic_scope(&self, idx: usize) -> bool {
        self.is_codec_file() || self.in_decode_scope(idx)
    }

    fn diag(&self, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.file.to_path_buf(),
            line,
            rule,
            message,
        }
    }
}

/// Locates every function body the decode rules must cover.
fn find_decode_bodies(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();

    // `impl ... WireReader ... { ... }` blocks: every fn inside parses
    // untrusted bytes (the reader primitives themselves).
    let mut reader_impls: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            let mut j = i + 1;
            let mut mentions_reader = false;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                if tokens[j].is_ident("WireReader") {
                    mentions_reader = true;
                }
                j += 1;
            }
            if mentions_reader && j < tokens.len() && tokens[j].is_punct('{') {
                let end = matching_brace(tokens, j);
                reader_impls.push((j, end));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }

    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
            i += 1; // `fn(...)` pointer type
            continue;
        };
        // Signature runs to the body brace or a trait declaration's `;`.
        let mut j = i + 2;
        let mut paren_depth = 0i32;
        let mut sig_has_reader = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') {
                paren_depth += 1;
            } else if t.is_punct(')') {
                paren_depth -= 1;
            } else if t.is_ident("WireReader") {
                sig_has_reader = true;
            } else if paren_depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                break;
            }
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(';') {
            i = j;
            continue;
        }
        let body_start = j;
        let body_end = matching_brace(tokens, body_start);
        let named_decoder = name.starts_with("decode")
            || name.starts_with("from_bytes")
            || name.ends_with("_from_bytes");
        let body_has_reader = tokens[body_start..body_end]
            .iter()
            .any(|t| t.is_ident("WireReader"));
        let in_reader_impl = reader_impls
            .iter()
            .any(|(start, end)| body_start > *start && body_end <= *end);
        if named_decoder || sig_has_reader || body_has_reader || in_reader_impl {
            bodies.push((body_start, body_end));
        }
        i = body_start + 1;
    }
    bodies
}

/// Index one past the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (offset, token) in tokens.iter().enumerate().skip(open) {
        if token.is_punct('{') {
            depth += 1;
        } else if token.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return offset + 1;
            }
        }
    }
    tokens.len()
}

// ---------------------------------------------------------------------------
// Rule family 1: determinism
// ---------------------------------------------------------------------------

/// Wall clocks, OS threads/processes, OS entropy, hash-order iteration,
/// randomly seeded hashers and state that outlives a run in
/// protocol/simulation crates: all of them make a `(seed, schedule)` replay
/// lie.
pub fn check_determinism(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !PROTOCOL_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let tokens = ctx.tokens();
    for (i, token) in tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let Some(name) = token.ident() else { continue };
        match name {
            "Instant" | "SystemTime" => out.push(ctx.diag(
                token.line,
                "det:time",
                format!("`{name}` is a wall clock — protocol code must use the driver-supplied sim time (`now_ms`)"),
            )),
            "thread" if path_follows(tokens, i, "spawn") || std_path_precedes(tokens, i) => out
                .push(ctx.diag(
                    token.line,
                    "det:thread",
                    "OS threads break single-threaded deterministic replay".to_string(),
                )),
            "process" if std_path_precedes(tokens, i) => out.push(ctx.diag(
                token.line,
                "det:process",
                "`std::process` is off-limits in protocol code".to_string(),
            )),
            "getrandom" | "OsRng" | "thread_rng" => out.push(ctx.diag(
                token.line,
                "det:entropy",
                format!("`{name}` draws OS entropy — use the seeded `SimRng` instead"),
            )),
            "rand" if tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) => out.push(ctx.diag(
                token.line,
                "det:entropy",
                "the `rand` crate draws OS entropy — use the seeded `SimRng` instead".to_string(),
            )),
            _ => {}
        }
    }
    check_hash_iteration(ctx, out);
    check_std_hasher(ctx, out);
    if ctx.crate_name != GLOBAL_STATE_CRATE {
        check_global_state(ctx, out);
    }
}

/// Flags `thread_local!` (once per block, not per `static` inside it),
/// `static mut`, and a `static` whose type up to its `=` names an
/// interior-mutable type.
fn check_global_state(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    let mut i = 0;
    while i < tokens.len() {
        let token = &tokens[i];
        let next = tokens.get(i + 1);
        let flagged = if ctx.in_test(i) {
            false
        } else if token.is_ident("thread_local") && next.is_some_and(|t| t.is_punct('!')) {
            true
        } else if token.is_ident("static") {
            next.is_some_and(|t| t.is_ident("mut"))
                || tokens[i + 1..]
                    .iter()
                    .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
                    .filter_map(Token::ident)
                    .any(|word| INTERIOR_MUTABLE.contains(&word) || word.starts_with("Atomic"))
        } else {
            false
        };
        if !flagged {
            i += 1;
            continue;
        }
        out.push(ctx.diag(
            token.line,
            "det:global",
            format!(
                "`{}` state outlives a run, and the runner resets only `appia`'s — keep it \
                 in the session or the node",
                token.ident().unwrap_or_default()
            ),
        ));
        // Skip a `thread_local! { .. }` block's own `static`s.
        i = match tokens.get(i + 2) {
            Some(open) if token.is_ident("thread_local") && open.is_punct('{') => {
                matching_brace(tokens, i + 2)
            }
            _ => i + 1,
        };
    }
}

/// Flags a `HashMap` / `HashSet` on std's randomly seeded `RandomState`:
/// one imported from `collections`, a `collections::HashMap` path that
/// names no hasher, and any `RandomState`. Each instance draws its own
/// seed, so where a table rehashes — and allocates — differs from run to
/// run; protocol tables use `morpheus_appia::hash`'s fixed-seed aliases.
fn check_std_hasher(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    let mut in_collections_use = false;
    for (i, token) in tokens.iter().enumerate() {
        if token.is_ident("use") {
            in_collections_use = tokens[i..]
                .iter()
                .take_while(|t| !t.is_punct(';'))
                .any(|t| t.is_ident("collections"));
        } else if token.is_punct(';') {
            in_collections_use = false;
        }
        if ctx.in_test(i) {
            continue;
        }
        let Some(name) = token.ident() else { continue };
        let flagged = match name {
            "RandomState" => true,
            "HashMap" | "HashSet" => {
                let on_path = i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].is_ident("collections");
                let hasher_arg = if name == "HashMap" { 2 } else { 1 };
                in_collections_use || (on_path && generic_arg_count(tokens, i + 1) <= hasher_arg)
            }
            _ => false,
        };
        if flagged {
            out.push(ctx.diag(
                token.line,
                "det:hash",
                format!(
                    "`{name}` on std's randomly seeded `RandomState` — use \
                     `morpheus_appia::hash`'s fixed-seed `HashMap` / `HashSet`"
                ),
            ));
        }
    }
}

/// The number of type arguments in the `<..>` list opening at `open`; 0
/// when there is none.
fn generic_arg_count(tokens: &[Token], open: usize) -> usize {
    if !tokens.get(open).is_some_and(|t| t.is_punct('<')) {
        return 0;
    }
    let mut depth = 0i32;
    let mut args = 1;
    for (j, token) in tokens.iter().enumerate().skip(open) {
        if token.is_punct('<') || token.is_punct('(') || token.is_punct('[') {
            depth += 1;
        } else if (token.is_punct('>') && !tokens[j - 1].is_punct('-'))
            || token.is_punct(')')
            || token.is_punct(']')
        {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if token.is_punct(',') && depth == 1 {
            args += 1;
        }
    }
    args
}

/// `name ::` lookahead: true when token `i` is followed by `:: tail`.
fn path_follows(tokens: &[Token], i: usize, tail: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(tail))
}

/// True when token `i` is preceded by `std ::`.
fn std_path_precedes(tokens: &[Token], i: usize) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident("std")
}

/// Finds identifiers declared with a `HashMap`/`HashSet` type (fields, let
/// bindings, params, struct-literal inits) and flags hash-order iteration
/// over them unless the result is immediately sorted or reduced
/// order-insensitively.
fn check_hash_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();

    // Pass A: names bound to hash collections anywhere in the file.
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    for (i, token) in tokens.iter().enumerate() {
        if !(token.is_ident("HashMap") || token.is_ident("HashSet")) {
            continue;
        }
        // Walk back over path/reference noise to the declared name:
        // `name: [&][std::collections::]HashMap<...>` or
        // `let [mut] name = HashMap::new()`.
        let mut j = i;
        while j > 0 {
            j -= 1;
            match &tokens[j].kind {
                TokenKind::Punct(':') | TokenKind::Punct('&') | TokenKind::Lifetime(_) => {}
                TokenKind::Ident(word)
                    if word == "std" || word == "collections" || word == "mut" => {}
                TokenKind::Punct('=') => {
                    // `let [mut] name = HashMap::...`
                    let mut k = j;
                    while k > 0 {
                        k -= 1;
                        match &tokens[k].kind {
                            TokenKind::Ident(word) if word == "mut" => {}
                            TokenKind::Ident(word) => {
                                if tokens
                                    .get(k.wrapping_sub(1))
                                    .is_some_and(|t| t.is_ident("let"))
                                {
                                    hash_names.insert(word);
                                }
                                break;
                            }
                            _ => break,
                        }
                    }
                    break;
                }
                TokenKind::Ident(name) => {
                    hash_names.insert(name);
                    break;
                }
                _ => break,
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }

    // Pass B: iteration sites over those names.
    for (i, token) in tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        // `for x in &map` loops have no collected result that a sort could
        // restore, so they are never exempt; method chains may be.
        let mut exemptible = false;
        let flagged_name = if token
            .ident()
            .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i >= 2
            && tokens[i - 1].is_punct('.')
        {
            // `name.iter()` / `self.name.keys()` ...
            exemptible = true;
            tokens[i - 2]
                .ident()
                .filter(|name| hash_names.contains(name))
        } else if token.is_ident("in") {
            // `for x in &name` / `for x in &mut self.name`
            let mut j = i + 1;
            while tokens
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_ident("self"))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('.'))
            {
                j += 2;
            }
            tokens
                .get(j)
                .and_then(Token::ident)
                .filter(|name| hash_names.contains(name))
                .filter(|_| !tokens.get(j + 1).is_some_and(|t| t.is_punct('.')))
        } else {
            None
        };
        let Some(name) = flagged_name else { continue };
        if exemptible && hash_iteration_is_ordered(ctx, i) {
            continue;
        }
        out.push(ctx.diag(
            token.line,
            "det:map-iter",
            format!(
                "iteration over hash collection `{name}` has nondeterministic order — \
                 sort the result, use a BTree collection, or waive with justification"
            ),
        ));
    }
}

/// Looks ahead from a flagged iteration for an ordering/order-insensitive
/// continuation within the next two statements (nested closures' `;` do not
/// end the window).
fn hash_iteration_is_ordered(ctx: &FileCtx<'_>, start: usize) -> bool {
    let tokens = ctx.tokens();
    let base_depth = ctx.depth[start];
    let mut statement_ends = 0;
    for (i, token) in tokens.iter().enumerate().skip(start) {
        // The window ends when the enclosing block closes or two statements
        // at the iteration's own nesting level have gone by ("immediately"
        // sorted, not eventually sorted).
        if ctx.depth[i] < base_depth {
            return false;
        }
        if token.is_punct(';') && ctx.depth[i] <= base_depth {
            statement_ends += 1;
            if statement_ends >= 2 {
                return false;
            }
        }
        if token.ident().is_some_and(|w| ORDER_EXEMPT.contains(&w)) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule family 2: panic-free decode paths
// ---------------------------------------------------------------------------

/// Panics, panicking indexing and truncating casts on decode paths: every
/// byte off the wire is adversarial (PR 6's bit-flip fuzz is the ground
/// truth), so decoders must return errors, never abort.
pub fn check_decode(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    for (i, token) in tokens.iter().enumerate() {
        if ctx.in_test(i) || !ctx.in_panic_scope(i) {
            continue;
        }
        match &token.kind {
            TokenKind::Ident(name)
                if (name == "unwrap" || name == "expect")
                    && i >= 1
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                out.push(ctx.diag(
                    token.line,
                    "decode:panic",
                    format!(
                        "`.{name}()` can panic on malformed input — return a decode error instead"
                    ),
                ));
            }
            TokenKind::Ident(name)
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                out.push(ctx.diag(
                    token.line,
                    "decode:panic",
                    format!("`{name}!` aborts on malformed input — return a decode error instead"),
                ));
            }
            TokenKind::Punct('[') if i >= 1 => {
                let postfix = matches!(
                    &tokens[i - 1].kind,
                    TokenKind::Ident(_)
                        | TokenKind::Punct(')')
                        | TokenKind::Punct(']')
                        | TokenKind::Punct('?')
                );
                if postfix {
                    out.push(ctx.diag(
                        token.line,
                        "decode:index",
                        "direct slice indexing panics out of bounds — use `.get(..)` / `try_into` with an error path".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }

    // Truncating casts on length-ish values, decode bodies only (encode
    // paths legitimately write `len() as u32` prefixes).
    for (i, token) in tokens.iter().enumerate() {
        if ctx.in_test(i) || !ctx.in_decode_scope(i) || !token.is_ident("as") {
            continue;
        }
        let Some(source) = (i >= 1).then(|| tokens[i - 1].ident()).flatten() else {
            continue;
        };
        let lower = source.to_ascii_lowercase();
        let lengthish = ["len", "count", "size"].iter().any(|p| lower.contains(p));
        let narrow = tokens
            .get(i + 1)
            .and_then(Token::ident)
            .is_some_and(|t| matches!(t, "u8" | "u16" | "u32" | "i8" | "i16" | "i32"));
        if lengthish && narrow {
            out.push(ctx.diag(
                token.line,
                "decode:cast",
                format!("`{source} as <narrow int>` silently truncates a length field — validate the range and use `try_from`"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule family 3: bounded pre-allocation
// ---------------------------------------------------------------------------

/// `with_capacity`/`reserve` fed by a decoded count must sit in a function
/// that also checks the count against the bytes actually `remaining` — the
/// hardening pattern every decoder in this workspace uses, by hand or through
/// `WireReader::get_count` / `check_count`, which are that check.
pub fn check_prealloc(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = ctx.tokens();
    for &(start, end) in &ctx.decode_bodies {
        let body = &tokens[start..end];
        let guarded = body.iter().any(|t| {
            ["remaining", "min", "get_count", "check_count"]
                .iter()
                .any(|g| t.is_ident(g))
        });
        for (offset, token) in body.iter().enumerate() {
            let i = start + offset;
            if ctx.in_test(i) {
                continue;
            }
            let is_alloc = token.is_ident("with_capacity") || token.is_ident("reserve");
            if !is_alloc || !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            // A literal capacity is bounded by construction.
            if matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokenKind::Num)) {
                continue;
            }
            if !guarded {
                out.push(ctx.diag(
                    token.line,
                    "alloc:cap",
                    "pre-allocation from a decoded count without a cap guard — check the count against `remaining()` bytes first".to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule family 4: bounded session state
// ---------------------------------------------------------------------------

/// Collects (non-test) type names with an `impl Session for X` in this file.
pub fn session_impl_types(lexed: &Lexed) -> Vec<String> {
    let tokens = &lexed.tokens;
    let mut types = Vec::new();
    for i in 0..tokens.len() {
        if lexed.in_test[i] {
            continue;
        }
        if tokens[i].is_ident("Session") && tokens.get(i + 1).is_some_and(|t| t.is_ident("for")) {
            if let Some(name) = tokens.get(i + 2).and_then(Token::ident) {
                types.push(name.to_string());
            }
        }
    }
    types
}

/// Every collection field of a `Session`-implementing type must carry a
/// `// bound:` comment naming its eviction/cap mechanism: long-lived
/// session state with no bound is how slow memory leaks enter a
/// protocol stack.
pub fn check_session_bounds(
    ctx: &FileCtx<'_>,
    session_types: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    if !PROTOCOL_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let tokens = ctx.tokens();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("struct") || ctx.in_test(i) {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
            i += 1;
            continue;
        };
        if !session_types.contains(name) {
            i += 1;
            continue;
        }
        // Find the struct body (skip generics; tuple/unit structs have no
        // named fields to annotate).
        let mut j = i + 2;
        while j < tokens.len()
            && !tokens[j].is_punct('{')
            && !tokens[j].is_punct(';')
            && !tokens[j].is_punct('(')
        {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('{') {
            i = j;
            continue;
        }
        let body_end = matching_brace(tokens, j);
        check_struct_fields(ctx, name, j + 1, body_end - 1, out);
        i = body_end;
    }
}

/// Walks the named fields of one struct body, flagging unannotated
/// collection-typed fields.
fn check_struct_fields(
    ctx: &FileCtx<'_>,
    struct_name: &str,
    start: usize,
    end: usize,
    out: &mut Vec<Diagnostic>,
) {
    let tokens = ctx.tokens();
    let mut i = start;
    while i < end {
        // Skip attributes and visibility.
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let mut depth = 1;
            i += 2;
            while i < end && depth > 0 {
                if tokens[i].is_punct('[') {
                    depth += 1;
                } else if tokens[i].is_punct(']') {
                    depth -= 1;
                }
                i += 1;
            }
            continue;
        }
        if tokens[i].is_ident("pub") {
            i += 1;
            if i < end && tokens[i].is_punct('(') {
                while i < end && !tokens[i].is_punct(')') {
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        let Some(field) = tokens[i].ident() else {
            i += 1;
            continue;
        };
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            i += 1;
            continue;
        }
        let field_line = tokens[i].line;
        // Type tokens run to the `,` at this nesting level (or `end`).
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut has_collection = false;
        while j < end {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !tokens[j - 1].is_punct('-') {
                angle -= 1;
            } else if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct(',') && angle <= 0 && paren <= 0 {
                break;
            } else if t.ident().is_some_and(|w| COLLECTIONS.contains(&w)) {
                has_collection = true;
            }
            j += 1;
        }
        if has_collection && !has_bound_annotation(ctx, field_line) {
            out.push(ctx.diag(
                field_line,
                "state:bound",
                format!(
                    "collection field `{field}` of session type `{struct_name}` has no \
                     `// bound:` annotation naming its eviction/cap mechanism"
                ),
            ));
        }
        i = j + 1;
    }
}

/// True when the field's own line or the contiguous comment block directly
/// above it contains a `bound:` marker.
fn has_bound_annotation(ctx: &FileCtx<'_>, field_line: u32) -> bool {
    let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
    let mut bound_lines: BTreeSet<u32> = BTreeSet::new();
    for comment in &ctx.lexed.comments {
        comment_lines.insert(comment.line);
        if comment.text.contains("bound:") {
            bound_lines.insert(comment.line);
        }
    }
    if bound_lines.contains(&field_line) {
        return true;
    }
    let mut line = field_line.saturating_sub(1);
    while comment_lines.contains(&line) {
        if bound_lines.contains(&line) {
            return true;
        }
        line = line.saturating_sub(1);
    }
    false
}

/// The token positions of the keys every layer-param read names: the
/// string literal `"key"` of each `param_or(params, "key", ..)` or
/// `param_node_list(params, "key")`.
pub fn param_key_positions(lexed: &Lexed) -> Vec<usize> {
    let tokens = &lexed.tokens;
    let mut positions = Vec::new();
    for i in 0..tokens.len() {
        let reads = tokens[i]
            .ident()
            .is_some_and(|name| PARAM_READERS.contains(&name));
        if !reads || !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // The key follows the first comma at the call's own depth.
        let mut depth = 0u32;
        for j in i + 2..tokens.len() {
            let token = &tokens[j];
            if token.is_punct('(') || token.is_punct('[') || token.is_punct('{') {
                depth += 1;
            } else if token.is_punct(')') || token.is_punct(']') || token.is_punct('}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if token.is_punct(',') && depth == 0 {
                if matches!(tokens.get(j + 1).map(|t| &t.kind), Some(TokenKind::Str(_))) {
                    positions.push(j + 1);
                }
                break;
            }
        }
    }
    positions
}

/// Every layer-param key a file's string literals could set — each literal
/// but the keys of reads (`key_positions`), and the `key` attribute of any
/// `<param key="..">` element an XML description literal holds — into
/// `keys`. A heuristic by design: any other literal spelling a key counts
/// as setting it, whether it feeds `with_param`, `insert` or a test's
/// `(key, value)` list.
pub fn param_keys_set(lexed: &Lexed, key_positions: &[usize], keys: &mut BTreeSet<String>) {
    for (i, token) in lexed.tokens.iter().enumerate() {
        let TokenKind::Str(text) = &token.kind else {
            continue;
        };
        if key_positions.contains(&i) {
            continue;
        }
        keys.insert(text.clone());
        for (at, _) in text.match_indices("key=") {
            let value = text[at + 4..].trim_start_matches(['\\', '"']);
            let end = value
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(value.len());
            keys.insert(value[..end].to_string());
        }
    }
}

/// A layer param read outside test code that nothing sets is a constant
/// dressed as a knob: every run reads its default. `key_positions` are the
/// file's [`param_key_positions`]; `set` is every key the workspace sets
/// ([`param_keys_set`] over the linted files and their consumers).
pub fn check_dead_params(
    ctx: &FileCtx<'_>,
    key_positions: &[usize],
    set: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for &at in key_positions {
        let Some(TokenKind::Str(key)) = ctx.tokens().get(at).map(|t| &t.kind) else {
            continue;
        };
        if ctx.in_test(at) || set.contains(key) {
            continue;
        }
        out.push(ctx.diag(
            ctx.tokens()[at].line,
            "dead:param",
            format!(
                "layer param \"{key}\" is read here but nothing sets it (no `with_param`, \
                 `insert`, XML description or test names it): make it a constant"
            ),
        ));
    }
}
