//! The program under test as a child process: build it, spawn
//! `rqc serve --http`, read its resource use from `/proc`, kill it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Wire workers and query threads of the server; the load generator
/// opens exactly this many connections (each worker serves one
/// connection at a time).
pub const SERVER_THREADS: usize = 2;

/// Linux reports process CPU time in `USER_HZ` ticks, 100 per second
/// on every architecture this runs on.
const TICK_MS: f64 = 10.0;

/// The repository root: the benchmark crate lives directly below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate directory has a parent")
        .to_path_buf()
}

/// Build (or refresh) the release `rqc` binary from the repository's
/// sources and return its path.  An up-to-date build costs a fraction
/// of a second; a stale binary would make every number a lie.
pub fn build_rqc() -> Result<PathBuf, String> {
    let root = repo_root();
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() {
        return Err(format!(
            "no {} — the benchmark measures the repository it sits in and cannot run without it",
            manifest.display()
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "rqc",
            "--manifest-path",
        ])
        .arg(&manifest)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --bin rqc` failed ({status})"
        ));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against the directory
    // it was started in, which is ours.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let rqc = target.join("release").join("rqc");
    if !rqc.is_file() {
        return Err(format!(
            "no release binary at {} — build it with `cargo build --release` at the repository root",
            rqc.display()
        ));
    }
    rqc.canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", rqc.display()))
}

/// Remove `dir` and everything in it; a directory that is not there is
/// already wiped.
pub fn wipe_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot wipe {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the child's stderr so a chatty server can never block on
    /// a full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `rqc serve <program> --http 127.0.0.1:0 --threads 2` and
    /// return once it has printed its bound address (the listener is
    /// bound before the banner, so connects succeed from here on).
    pub fn spawn(rqc: &Path, program: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(rqc);
        cmd.arg("serve")
            .arg(program)
            .args(["--http", "127.0.0.1:0", "--threads"])
            .arg(SERVER_THREADS.to_string())
            // Either variable would change what is measured.
            .env_remove("RQC_THREADS")
            .env_remove("RQC_SLOW_QUERY_MS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", rqc.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before binding:\n{seen}"));
                }
            }
            if let Some(addr) = line
                .strip_prefix("rqc serve --http ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok())
            {
                break addr;
            }
            seen.push_str(&line);
        };
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// User + system CPU time consumed so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the whole line.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (tick(11), tick(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) as f64 * TICK_MS),
            _ => Err("unexpected /proc/<pid>/stat layout".into()),
        }
    }

    /// Peak resident set size so far (`VmHWM`), in MB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc/<pid>/status".to_string())
    }

    /// `SIGKILL` the server and wait until it is gone.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    /// No path out of the benchmark — error return or panic — may leave
    /// a server process behind.
    fn drop(&mut self) {
        self.stop();
    }
}
