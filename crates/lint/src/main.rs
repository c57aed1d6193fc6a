//! `morpheus-lint` CLI.
//!
//! ```text
//! morpheus-lint --workspace [--root DIR] [--json]
//! morpheus-lint [--crate NAME] [--json] FILE...
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use morpheus_lint::{run, to_json, workspace_consumers, workspace_files, SourceFile};

fn main() -> ExitCode {
    let mut json = false;
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut crate_override: Option<String> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--crate" => match args.next() {
                Some(name) => crate_override = Some(name),
                None => return usage("--crate needs a crate name"),
            },
            "--help" | "-h" => {
                eprintln!("{}", USAGE);
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown flag {flag}"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let (sources, consumers) = if workspace {
        if !files.is_empty() {
            return usage("--workspace and explicit files are mutually exclusive");
        }
        match workspace_files(&root).and_then(|files| Ok((files, workspace_consumers(&root)?))) {
            Ok(walked) => walked,
            Err(err) => {
                eprintln!("morpheus-lint: cannot walk {}: {err}", root.display());
                return ExitCode::from(2);
            }
        }
    } else if files.is_empty() {
        return usage("nothing to lint: pass --workspace or file paths");
    } else {
        let sources = files
            .into_iter()
            .map(|path| SourceFile::with_inferred_crate(path, crate_override.as_deref()))
            .collect();
        (sources, Vec::new())
    };

    let diagnostics = match run(&sources, &consumers) {
        Ok(diagnostics) => diagnostics,
        Err(err) => {
            eprintln!("morpheus-lint: {err}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", to_json(&diagnostics));
    } else {
        for diagnostic in &diagnostics {
            println!("{diagnostic}");
        }
    }
    if diagnostics.is_empty() {
        eprintln!("morpheus-lint: clean ({} files)", sources.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "morpheus-lint: {} finding(s) in {} file(s)",
            diagnostics.len(),
            sources.len()
        );
        ExitCode::from(1)
    }
}

const USAGE: &str = "usage:
  morpheus-lint --workspace [--root DIR] [--json]
  morpheus-lint [--crate NAME] [--json] FILE...";

fn usage(message: &str) -> ExitCode {
    eprintln!("morpheus-lint: {message}\n{USAGE}");
    ExitCode::from(2)
}
