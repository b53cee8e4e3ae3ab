//! Golden refactor-equivalence tests through the front door.
//!
//! The fixtures under `tests/golden/` were captured from the pipeline
//! *before* the dense-IR/workspace refactor. These tests send the wire
//! request behind each fixture to [`Engine::run`] at one and four
//! workers and pin the figure6, figure7 and table2 bodies **byte for
//! byte** to that output — the data-layer rebuild changed where scratch
//! memory lives, never what is computed. `tests/search_golden.rs` does
//! the same for the seeded search frontiers.
//!
//! If an *intentional* behaviour change lands later, regenerate the
//! fixtures with the `paper` invocation recorded above each test and say
//! so in the commit message.

use heterovliw::api::{Engine, Request};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `wire` through [`Engine::run`] at one and four workers and
/// asserts each body equals the fixture `file` byte for byte.
fn check(wire: &str, file: &str) {
    let fixture = golden(file);
    let req = Request::from_json_str(wire).expect("golden requests are well formed");
    for jobs in [1usize, 4] {
        let resp = Engine::new(jobs).run(&req);
        assert!(resp.ok, "{file} at {jobs} worker(s): {:?}", resp.error);
        assert_eq!(
            resp.body.as_deref(),
            Some(fixture.as_str()),
            "{file} drifted from the pre-refactor golden at {jobs} worker(s)"
        );
    }
}

/// `paper --experiment figure6 --loops 5 --buses 1` (pre-refactor seed).
#[test]
fn figure6_json_is_byte_identical_to_pre_refactor_output() {
    check(
        r#"{"kind":"figure6","loops":5,"buses":"1","seed":0}"#,
        "figure6_loops5_buses1.json",
    );
}

/// `paper --experiment figure6 --loops 16 --buses 1`, the scale CI's
/// instrumentation-overhead check runs (mean `ed2_normalized`
/// 0.897499455236866, mean `exec_time_het_ns` 964531.1935389999).
#[test]
fn figure6_loops16_json_is_byte_identical() {
    check(
        r#"{"kind":"figure6","loops":16,"buses":"1","seed":0}"#,
        "figure6_loops16_buses1.json",
    );
}

/// `paper --experiment figure7 --loops 4 --buses 1` (pre-refactor seed).
#[test]
fn figure7_json_is_byte_identical_to_pre_refactor_output() {
    check(
        r#"{"kind":"figure7","loops":4,"buses":"1","seed":0}"#,
        "figure7_loops4_buses1.json",
    );
}

/// `paper --experiment table2 --loops 5` (pre-refactor seed).
#[test]
fn table2_json_is_byte_identical_to_pre_refactor_output() {
    check(
        r#"{"kind":"table2","loops":5,"seed":0}"#,
        "table2_loops5.json",
    );
}
