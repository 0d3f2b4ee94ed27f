//! End-to-end tests of the `rqc` binary: one-shot mode, plan/stats
//! flags, the REPL over a piped stdin, and error exits.  Cargo exposes
//! the built binary path via `CARGO_BIN_EXE_rqc`.

use std::io::Write;
use std::process::{Command, Stdio};

const RQC: &str = env!("CARGO_BIN_EXE_rqc");

const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                  sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                  up(john, mary). flat(mary, lisa). down(lisa, erik).\n";

/// The fixture program file, written **once** per test binary.  The
/// tests run on parallel threads and their `rqc` children read this
/// file concurrently, so re-writing it per test (truncate, then write)
/// could hand a sibling's child an empty program.
fn program_file() -> &'static std::path::Path {
    static PROGRAM: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PROGRAM.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("rqc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("family.dl");
        std::fs::write(&path, SG).unwrap();
        path
    })
}

#[test]
fn one_shot_query_prints_answers_on_stdout() {
    let program = program_file();
    let out = Command::new(RQC)
        .arg(program)
        .arg("sg(john, Y)")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "erik");
}

#[test]
fn plan_and_stats_go_to_stderr() {
    let program = program_file();
    let out = Command::new(RQC)
        .arg(program)
        .arg("sg(john, Y)")
        .arg("--plan")
        .arg("--stats")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stdout.trim(), "erik", "answers only on stdout");
    assert!(stderr.contains("equation system"), "{stderr}");
    assert!(stderr.contains("work="), "{stderr}");
}

#[test]
fn demo_mode_runs() {
    let out = Command::new(RQC).arg("--demo").output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "erik");
}

#[test]
fn missing_file_exits_nonzero() {
    let out = Command::new(RQC)
        .arg("/nonexistent/prog.dl")
        .arg("sg(john, Y)")
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn bad_query_exits_nonzero() {
    let program = program_file();
    let out = Command::new(RQC)
        .arg(program)
        .arg("nosuch(a, Y)")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown predicate"));
}

#[test]
fn repl_session_over_stdin() {
    let program = program_file();
    let mut child = Command::new(RQC)
        .arg("repl")
        .arg(program)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"sg(john, Y)\n:add flat(john, zoe)\nsg(john, Y)\n:oracle sg(john, Y)\n:quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "erik");
    assert!(lines[1].starts_with("ok:"));
    assert_eq!(&lines[2..4], &["erik", "zoe"]);
    // The oracle agrees with the engine.
    assert_eq!(&lines[4..6], &["erik", "zoe"]);
}

#[test]
fn serve_session_over_stdin() {
    let program = program_file();
    let mut child = Command::new(RQC)
        .arg("serve")
        .arg(program)
        .arg("--threads")
        .arg("2")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"sg(john, Y); sg(X, erik)\n:add flat(john, paul)\nsg(john, Y)\n\
              sg(john, paul); sg(paul, john)\n:epoch\n:quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "sg(john, Y): erik");
    assert_eq!(lines[1], "sg(X, erik): john");
    assert!(lines[2].starts_with("epoch 1"), "{}", lines[2]);
    assert_eq!(lines[3], "sg(john, Y): erik paul");
    // Membership forms answer yes/no through the same batch line.
    assert_eq!(lines[4], "sg(john, paul): yes");
    assert_eq!(lines[5], "sg(paul, john): no");
    assert_eq!(lines[6], "epoch 1");
}

#[test]
fn repl_eof_terminates_cleanly() {
    let mut child = Command::new(RQC)
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    drop(child.stdin.take()); // immediate EOF
    let status = child.wait().unwrap();
    assert!(status.success());
}

#[test]
fn repl_survives_errors() {
    let mut child = Command::new(RQC)
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b":nonsense\n:add sg(X,Y) :- broken(\n:help\n:quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("commands:"),
        "help still works after errors"
    );
}

/// A flag whose value is missing or unparsable is a usage error (exit
/// 2, one line on stderr) — never silently the default.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(RQC).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(flag), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was served or answered");
}

#[test]
fn bad_threads_value_exits_2() {
    let program = program_file().to_str().unwrap();
    assert_usage_error(&["serve", program, "--threads", "x"], "--threads");
    assert_usage_error(&["serve", program, "--threads"], "--threads");
}

#[test]
fn bad_max_iterations_value_exits_2() {
    let program = program_file().to_str().unwrap();
    let query = "sg(john, Y)";
    assert_usage_error(
        &[program, query, "--max-iterations", "x"],
        "--max-iterations",
    );
    assert_usage_error(&[program, query, "--max-iterations"], "--max-iterations");
}
