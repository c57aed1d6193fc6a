//! The workspace must stay clean under its own invariants checker: any
//! finding here means either a real regression or a rule that needs a
//! justified waiver at the offending site.

use std::path::PathBuf;

use morpheus_lint::{run, workspace_consumers, workspace_files};

#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let files = workspace_files(&root).expect("workspace walk succeeds");
    assert!(
        files.len() > 50,
        "the walk must cover the whole workspace, found only {} files",
        files.len()
    );
    let consumers = workspace_consumers(&root).expect("consumer walk succeeds");
    let diagnostics = run(&files, &consumers).expect("all sources readable");
    let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        diagnostics.is_empty(),
        "workspace must be lint-clean, got:\n{}",
        rendered.join("\n")
    );
}

/// A key only a test sets is read at its default in every run, so test
/// directories are not consumers: only `examples/` and `benchmark/src` are.
#[test]
fn test_directories_are_not_consumers() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let consumers = workspace_consumers(&root).expect("consumer walk succeeds");
    assert!(
        consumers
            .iter()
            .any(|path| path.starts_with(root.join("examples"))),
        "the examples are consumers"
    );
    assert!(
        consumers
            .iter()
            .all(|path| !path.components().any(|part| part.as_os_str() == "tests")),
        "no file under a `tests/` directory is a consumer"
    );
}
