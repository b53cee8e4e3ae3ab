//! Shared helpers of the `paper` binary.
//!
//! The actual write discipline (atomic temp-file-plus-rename) and the
//! bar rendering live in `vliw_api::artifacts`, shared with the daemon;
//! this crate only adds the CLI's convention of *where* artefacts go
//! ([`results_dir`]).

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Where experiment row dumps go (`target/paper-results/`).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serialises `rows` as pretty JSON to `target/paper-results/<name>.json`.
///
/// The write is atomic (via [`vliw_api::artifacts::write_atomic`]), so a
/// concurrent reader never observes a truncated or partially written
/// artefact — several `paper` processes may run at once under the test
/// harness or CI.
///
/// # Panics
///
/// Panics on I/O or serialisation failure.
pub fn dump_json<T: Serialize>(name: &str, rows: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows).expect("serialise rows");
    vliw_api::artifacts::write_atomic(&path, &json).expect("write rows");
    println!("  [rows written to {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_round_trips() {
        dump_json("selftest", &vec![1, 2, 3]);
        let read = std::fs::read_to_string(results_dir().join("selftest.json")).unwrap();
        assert!(read.contains('2'));
    }
}
