//! Golden fixtures for the seeded design-space search.
//!
//! The fixtures under `tests/golden/` were captured from
//! `paper search --strategy <s> --budget 8 --seed 1 --loops 2 --buses 1`
//! and CI's `search-smoke` job diffs the binary's output against the
//! same files. These tests pin the front door: each strategy's search
//! request sent to [`Engine::run`] must return a body **byte-identical**
//! to its fixture at one and four workers — seeded search is
//! deterministic across machines and worker counts.
//!
//! If an *intentional* behaviour change lands later, regenerate the
//! fixtures with the command above and say so in the commit message.

use heterovliw::api::{Engine, Request};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Sends the `strategy` search request at budget 8, seed 1, two loops
/// and one bus to [`Engine::run`] at one and four workers and asserts
/// each body equals its committed fixture byte for byte.
fn check(strategy: &str) {
    let file = format!("search_{strategy}_loops2_budget8_seed1.json");
    let fixture = golden(&file);
    let wire = format!(
        r#"{{"kind":"search","loops":2,"buses":"1","seed":1,"strategy":"{strategy}","budget":8}}"#
    );
    let req = Request::from_json_str(&wire).expect("golden requests are well formed");
    for jobs in [1usize, 4] {
        let resp = Engine::new(jobs).run(&req);
        assert!(resp.ok, "{strategy} at {jobs} worker(s): {:?}", resp.error);
        assert_eq!(
            resp.body.as_deref(),
            Some(fixture.as_str()),
            "{strategy} report drifted from the committed golden at {jobs} worker(s)"
        );
    }
}

#[test]
fn hillclimb_report_matches_committed_golden() {
    check("hillclimb");
}

#[test]
fn anneal_report_matches_committed_golden() {
    check("anneal");
}

#[test]
fn ga_report_matches_committed_golden() {
    check("ga");
}
