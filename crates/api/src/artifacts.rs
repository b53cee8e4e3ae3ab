//! Shared artefact persistence: one atomic write path for every
//! transport.
//!
//! The one-shot CLI, the `corpus dump` subcommand and the daemon all
//! funnel their JSON artefacts (row dumps and `<name>.meta.json`
//! sidecars) through [`write_atomic`] / [`persist_response`], so the
//! temp-file-plus-rename discipline lives in exactly one place instead
//! of being repeated per experiment. A concurrent reader never observes
//! a truncated artefact — several `paper` processes and daemon worker
//! threads may write at once under the test harness or CI.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::response::Response;

/// Writes `contents` to `path` atomically: the bytes land in a temp file
/// in the same directory and are renamed into place. The temp name
/// carries the writer's pid and a per-process write number, so
/// concurrent processes and concurrent threads of one process (two
/// daemon connections persisting the same artefact) never share one.
///
/// # Errors
///
/// Propagates I/O failures from the write or the rename; the temp file
/// is removed on failure.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let write = WRITES.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{write}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = fs::write(&tmp, contents).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Persists a response's artefacts under `dir`: the body to
/// `<stem>.json`, the sidecar (if any) to `<stem>.meta.json`, both
/// atomically. Returns the paths written, in write order, so callers can
/// report them (`[rows written to …]` on the CLI, the daemon's stderr
/// log). A response without an artefact stem writes nothing.
///
/// # Errors
///
/// Propagates I/O failures; on failure earlier artefacts of the same
/// response may already have been published (each write is individually
/// atomic).
pub fn persist_response(dir: &Path, resp: &Response) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    let Some(stem) = resp.artifact.as_deref() else {
        return Ok(written);
    };
    fs::create_dir_all(dir)?;
    if let Some(body) = resp.body.as_deref() {
        let path = dir.join(format!("{stem}.json"));
        write_atomic(&path, body)?;
        written.push(path);
    }
    if let Some(meta) = resp.meta.as_deref() {
        let path = dir.join(format!("{stem}.meta.json"));
        write_atomic(&path, meta)?;
        written.push(path);
    }
    Ok(written)
}

/// Renders a simple aligned two-column bar-chart row, exactly as the
/// paper figures print (`label value ####…`).
#[must_use]
pub fn format_bar(label: &str, value: f64) -> String {
    let width = (value * 50.0).clamp(0.0, 60.0) as usize;
    format!("{label:<16} {value:>7.3}  {}", "#".repeat(width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::response::CacheStats;

    #[test]
    fn persists_body_and_meta() {
        let dir = std::env::temp_dir().join(format!("vliw-api-art-{}", std::process::id()));
        let resp = Response::success(
            &Request::Table2(crate::request::RunParams::default()),
            String::new(),
            Some("[1]".to_owned()),
            Some("{\"a\":2}".to_owned()),
            CacheStats::default(),
        );
        let written = persist_response(&dir, &resp).unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(fs::read_to_string(&written[0]).unwrap(), "[1]");
        assert_eq!(written[1].file_name().unwrap(), "table2.meta.json");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Threads of one process writing one artefact at once: every write
    /// succeeds, the file ends whole, and no temp file is left behind.
    #[test]
    fn concurrent_writers_of_one_path_never_collide() {
        let dir = std::env::temp_dir().join(format!("vliw-api-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artefact.json");
        let bodies: Vec<String> = (b'a'..=b'd')
            .map(|c| char::from(c).to_string().repeat(64 * 1024))
            .collect();
        let start = std::sync::Barrier::new(bodies.len());
        std::thread::scope(|scope| {
            for body in &bodies {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..500 {
                        write_atomic(path, body).unwrap();
                    }
                });
            }
        });
        let last = fs::read_to_string(&path).unwrap();
        assert!(bodies.contains(&last), "the file is one whole write");
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "no temp file is left behind");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn control_responses_write_nothing() {
        let resp = Response::success(
            &Request::Ping,
            "pong\n".to_owned(),
            None,
            None,
            CacheStats::default(),
        );
        let written = persist_response(Path::new("/nonexistent-never-created"), &resp).unwrap();
        assert!(written.is_empty());
    }

    #[test]
    fn bar_formatting_matches_the_figures() {
        let s = format_bar("x", 0.8);
        assert!(s.contains("0.800"));
        assert!(s.contains('#'));
    }
}
