//! Helpers shared by the `paper` binary tests. Each test runs its
//! children in its own working directory, so their artefacts land in
//! that directory's `target/paper-results/` and no two tests share a
//! path. Not every test binary uses every helper.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use vliw_api::{Request, Response};

/// A test's own working directory, removed when the test ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// A fresh directory for the test named `test`.
    pub fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("paper-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test's working directory");
        WorkDir(dir)
    }

    /// A `paper` command that runs in this directory.
    pub fn command(&self) -> Command {
        let mut command = Command::new(env!("CARGO_BIN_EXE_paper"));
        command.current_dir(&self.0);
        command
    }

    /// Runs `paper ARGS` in this directory.
    pub fn paper(&self, args: &[&str]) -> Output {
        self.command()
            .args(args)
            .output()
            .expect("run paper binary")
    }

    /// Where this directory's runs write their artefacts.
    pub fn results(&self) -> PathBuf {
        self.0.join("target/paper-results")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `paper serve` child that is killed on drop, so a failing assertion
/// never leaks a daemon holding the socket.
pub struct Daemon<'a> {
    dir: &'a WorkDir,
    child: Child,
    pub socket: PathBuf,
}

impl<'a> Daemon<'a> {
    /// Starts `paper serve ARGS` in `dir` and waits until it listens.
    pub fn start(dir: &'a WorkDir, name: &str, args: &[&str]) -> Self {
        let socket = std::env::temp_dir().join(format!("paper-{name}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = dir
            .command()
            .args(["serve", "--socket", socket.to_str().unwrap()])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn paper serve");
        let daemon = Self { dir, child, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(&daemon.socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "daemon never bound {:?}",
                daemon.socket
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    pub fn socket_arg(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    /// Sends one request over a raw socket and parses the JSON reply.
    pub fn raw_request(&self, req: &Request) -> Response {
        let mut stream = UnixStream::connect(&self.socket).expect("connect");
        stream
            .write_all(req.to_json_string().as_bytes())
            .expect("send request");
        stream.write_all(b"\n").expect("send newline");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("read reply");
        Response::from_json_str(reply.trim_end()).expect("parse reply")
    }

    /// Shuts the daemon down via `paper client ... shutdown`, checks that
    /// the client and the daemon both exit 0 and that the daemon removed
    /// its socket file, and returns the client's output.
    pub fn shutdown(mut self) -> Output {
        let out = self
            .dir
            .paper(&["client", "--socket", self.socket_arg(), "shutdown"]);
        assert!(
            out.status.success(),
            "shutdown client: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exits 0 on graceful shutdown");
        // Checked here, before drop removes the file itself.
        assert!(!self.socket.exists(), "socket file removed on shutdown");
        out
    }
}

impl Drop for Daemon<'_> {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}
