//! `morpheus-lint` — the workspace's machine-checked invariants.
//!
//! The whole seed-deterministic test/replay story rests on conventions that
//! used to live in reviewers' heads: protocol code reads no wall clock and
//! no OS entropy and keeps no state outside the run, decode paths never panic, pre-allocation from decoded
//! counts is capped, every long-lived session collection has a bound, and
//! every layer param read is set somewhere.
//! This crate turns those conventions into a dependency-free static
//! analysis (no `syn` — CI and dev containers are offline): a hand-rolled,
//! comment- and string-aware token scanner over the workspace sources.
//!
//! Rule families (ids usable in waiver comments):
//!
//! | family   | rules                                              |
//! |----------|----------------------------------------------------|
//! | `det`    | `det:time`, `det:thread`, `det:process`, `det:entropy`, `det:map-iter`, `det:global`, `det:hash` |
//! | `decode` | `decode:panic`, `decode:index`, `decode:cast`      |
//! | `alloc`  | `alloc:cap`                                        |
//! | `state`  | `state:bound`                                      |
//! | `dead`   | `dead:param`                                       |
//!
//! Suppression is only possible through an explicit in-source waiver
//! comment carrying a justification (see [`diag::Waiver`]); stale or
//! malformed waivers are themselves diagnostics, so every exception stays
//! visible and greppable.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::Diagnostic;

/// One source file queued for scanning, with the (directory-style) crate
/// name that decides rule scope.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: PathBuf,
    pub crate_name: String,
}

impl SourceFile {
    /// Derives the crate name from a workspace-relative path
    /// (`crates/<name>/src/...` → `<name>`, root `src/` → `morpheus`),
    /// falling back to `override_name` when given.
    pub fn with_inferred_crate(path: PathBuf, override_name: Option<&str>) -> Self {
        let crate_name = override_name.map(str::to_string).unwrap_or_else(|| {
            let mut components = path.components().map(|c| c.as_os_str().to_string_lossy());
            let mut previous_was_crates = false;
            for component in components.by_ref() {
                if previous_was_crates {
                    return component.into_owned();
                }
                previous_was_crates = component == "crates";
            }
            "morpheus".to_string()
        });
        Self { path, crate_name }
    }
}

/// Collects every workspace source file the pass covers: `src/` plus each
/// `crates/*/src`, in sorted order so output and exit codes are stable.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let src = crate_dir.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let mut file = SourceFile::with_inferred_crate(rel, None);
            file.path = path;
            file
        })
        .collect())
}

/// Collects the workspace's consumer sources: code that uses the linted
/// crates but is not linted itself — `examples/` and `benchmark/src` — in
/// sorted order. The `dead:param` rule reads them for the params they set.
/// Test directories are not consumers: a param only a test sets is still a
/// constant in every run.
pub fn workspace_consumers(root: &Path) -> io::Result<Vec<PathBuf>> {
    let dirs = [root.join("examples"), root.join("benchmark").join("src")];
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|dir| dir.is_dir()) {
        collect_rs_files(dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over the given files and returns the surviving
/// diagnostics, sorted by file, line and rule. `consumers` are read, not
/// linted: sources whose layer params count as set (see
/// [`workspace_consumers`]).
pub fn run(files: &[SourceFile], consumers: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    // Lex everything first: the bounded-session-state rule needs the set of
    // `Session`-implementing types per crate, and the dead-param rule every
    // key the workspace sets, before any file is checked.
    let mut lexed_files = Vec::with_capacity(files.len());
    let mut session_types: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut params_set = BTreeSet::new();
    for file in files {
        let source = std::fs::read_to_string(&file.path)?;
        let lexed = lexer::lex(&source);
        session_types
            .entry(file.crate_name.as_str())
            .or_default()
            .extend(rules::session_impl_types(&lexed));
        let param_keys = rules::param_key_positions(&lexed);
        rules::param_keys_set(&lexed, &param_keys, &mut params_set);
        lexed_files.push((file, lexed, param_keys));
    }
    for path in consumers {
        let lexed = lexer::lex(&std::fs::read_to_string(path)?);
        let param_keys = rules::param_key_positions(&lexed);
        rules::param_keys_set(&lexed, &param_keys, &mut params_set);
    }

    let empty = BTreeSet::new();
    let mut all = Vec::new();
    for (file, lexed, param_keys) in &lexed_files {
        let ctx = rules::FileCtx::new(&file.path, &file.crate_name, lexed);
        let mut diagnostics = Vec::new();
        rules::check_determinism(&ctx, &mut diagnostics);
        rules::check_decode(&ctx, &mut diagnostics);
        rules::check_prealloc(&ctx, &mut diagnostics);
        let types = session_types
            .get(file.crate_name.as_str())
            .unwrap_or(&empty);
        rules::check_session_bounds(&ctx, types, &mut diagnostics);
        rules::check_dead_params(&ctx, param_keys, &params_set, &mut diagnostics);

        let mut waiver_diags = Vec::new();
        let mut waivers = diag::parse_waivers(&lexed.comments, &file.path, &mut waiver_diags);
        let mut kept = diag::apply_waivers(&mut waivers, diagnostics, &file.path);
        kept.append(&mut waiver_diags);
        all.append(&mut kept);
    }
    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(all)
}

/// Renders diagnostics as a JSON array (hand-rolled — no serde here).
pub fn to_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&d.file.display().to_string()),
            d.line,
            json_escape(d.rule),
            json_escape(&d.message)
        ));
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
