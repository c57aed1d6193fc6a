//! Fixture-driven rule tests: every bad fixture trips exactly its rule,
//! every clean fixture stays silent, and the determinism family respects
//! its protocol-crate scope.

use std::path::PathBuf;

use morpheus_lint::{run, SourceFile};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Runs the pass over one fixture as if it lived in `crate_name`, returning
/// the sorted list of tripped rule ids.
fn rules_for(name: &str, crate_name: &str) -> Vec<&'static str> {
    rules_with_consumers(name, crate_name, &[])
}

/// [`rules_for`], with other fixtures read as the linted one's consumers.
fn rules_with_consumers(name: &str, crate_name: &str, consumers: &[&str]) -> Vec<&'static str> {
    let source = SourceFile {
        path: fixture(name),
        crate_name: crate_name.to_string(),
    };
    let consumers: Vec<PathBuf> = consumers.iter().map(|name| fixture(name)).collect();
    let diagnostics = run(std::slice::from_ref(&source), &consumers).expect("fixture readable");
    diagnostics.iter().map(|d| d.rule).collect()
}

#[track_caller]
fn assert_trips(name: &str, expected: &[&str]) {
    assert_eq!(
        rules_for(name, "appia"),
        expected,
        "fixture {name} must trip exactly {expected:?}"
    );
}

#[test]
fn determinism_fixtures() {
    assert_trips("det_time.rs", &["det:time"]);
    assert_trips("det_thread.rs", &["det:thread"]);
    assert_trips("det_process.rs", &["det:process"]);
    assert_trips("det_entropy.rs", &["det:entropy"]);
    assert_trips("det_map_iter.rs", &["det:map-iter"]);
    assert_trips("det_hash.rs", &["det:hash"; 5]);
}

#[test]
fn fixed_seed_hashers_are_clean() {
    assert_trips("det_hash_clean.rs", &[]);
    assert_eq!(
        rules_for("det_hash.rs", "lint"),
        Vec::<&str>::new(),
        "tools outside the protocol crates may use std's hasher"
    );
}

#[test]
fn global_state_fixtures() {
    assert_eq!(
        rules_for("det_global.rs", "groupcomm"),
        vec!["det:global"; 3],
        "thread-local, `static mut` and interior-mutable statics must trip"
    );
    assert_eq!(
        rules_for("det_global_clean.rs", "groupcomm"),
        Vec::<&str>::new(),
        "immutable statics and `'static` bounds must stay clean"
    );
    assert_eq!(
        rules_for("det_global.rs", "appia"),
        Vec::<&str>::new(),
        "appia's per-thread scratch is reset by the runner, so appia is exempt"
    );
}

#[test]
fn sorted_hash_iteration_is_exempt() {
    assert_trips("det_map_iter_sorted.rs", &[]);
}

#[test]
fn round_participant_iteration_patterns() {
    // Retransmission target selection over a hash-ordered participant set
    // must trip in the protocol crate that hosts the round engine...
    assert_eq!(
        rules_for("det_map_iter_participants.rs", "groupcomm"),
        vec!["det:map-iter"],
        "hash-ordered participant sweeps must trip"
    );
    // ...while the BTreeSet bookkeeping `groupcomm::round` actually uses
    // stays silent.
    assert_eq!(
        rules_for("det_map_iter_participants_sorted.rs", "groupcomm"),
        Vec::<&str>::new(),
        "ordered participant sweeps must stay clean"
    );
}

#[test]
fn overlay_fanout_patterns() {
    // Hash-ordered fan-out target selection must trip in overlay code too.
    assert_eq!(
        rules_for("det_map_iter_fanout.rs", "overlay"),
        vec!["det:map-iter"],
        "overlay is a protocol crate: hash-ordered fan-out must trip"
    );
    // The idiom the overlay actually uses — BTreeSet link sets, sorted
    // digest pools — stays silent.
    assert_eq!(
        rules_for("det_map_iter_links_sorted.rs", "overlay"),
        Vec::<&str>::new(),
        "ordered link-set relay selection must stay clean"
    );
}

#[test]
fn determinism_rules_only_cover_protocol_crates() {
    assert_eq!(
        rules_for("det_time.rs", "lint"),
        Vec::<&str>::new(),
        "the determinism family must not fire outside protocol crates"
    );
}

#[test]
fn decode_fixtures() {
    assert_trips("decode_unwrap.rs", &["decode:panic"]);
    assert_trips("decode_index.rs", &["decode:index"]);
    assert_trips("decode_cast.rs", &["decode:cast"]);
}

#[test]
fn decode_rules_fire_in_every_crate() {
    assert_eq!(
        rules_for("decode_unwrap.rs", "lint"),
        vec!["decode:panic"],
        "panic-freedom on decode paths is workspace-wide"
    );
}

#[test]
fn prealloc_fixtures() {
    assert_trips("alloc_uncapped.rs", &["alloc:cap"]);
    assert_trips("alloc_capped.rs", &[]);
}

#[test]
fn session_state_fixtures() {
    assert_trips("state_unbounded.rs", &["state:bound"]);
    assert_trips("state_bound.rs", &[]);
}

#[test]
fn dead_param_fixtures() {
    assert_trips("dead_param.rs", &["dead:param"]);
    assert_trips("dead_param_clean.rs", &[]);
    assert_trips("dead_param_test_only.rs", &["dead:param"]);
    assert_trips("dead_param_spec.rs", &[]);
    assert_eq!(
        rules_with_consumers("dead_param.rs", "appia", &["dead_param_clean.rs"]),
        vec!["dead:param"],
        "a key only a consumer's test sets is still dead"
    );
    assert_eq!(
        rules_with_consumers("dead_param.rs", "appia", &["dead_param_spec.rs"]),
        Vec::<&str>::new(),
        "a key a consumer's `LayerSpec` sets is not dead"
    );
}

#[test]
fn waiver_fixtures() {
    assert_trips("det_time_waivered.rs", &[]);
    assert_trips("waiver_unused.rs", &["waiver:unused"]);
    assert_trips("waiver_nojustification.rs", &["waiver:syntax"]);
    assert_trips("waiver_unknown_rule.rs", &["waiver:unknown-rule"]);
}

#[test]
fn diagnostics_carry_file_and_line() {
    let source = SourceFile {
        path: fixture("det_time.rs"),
        crate_name: "appia".to_string(),
    };
    let diagnostics = run(std::slice::from_ref(&source), &[]).expect("fixture readable");
    assert_eq!(diagnostics.len(), 1);
    let rendered = diagnostics[0].to_string();
    assert!(
        rendered.contains("det_time.rs:4: det:time:"),
        "diagnostic renders as file:line: rule: message, got {rendered}"
    );
}
