//! `rqc` — run recursive queries from the command line.
//!
//! ```text
//! rqc <program.dl> <query> [--stats] [--plan] [--max-iterations N]
//! rqc repl [program.dl]        interactive session (see :help)
//! rqc serve <program.dl> [--threads N] [--data-dir <dir>]   stdin serving session
//! rqc serve <program.dl> --http <addr> [--threads N] [--data-dir <dir>]   HTTP serving (rq-wire)
//! rqc --demo
//! ```
//!
//! The program file holds Datalog rules and facts in the syntax of
//! `rq_datalog::parse_program`; the query is a literal like `sg(john, Y)`
//! with uppercase variables free.  `--plan` prints the pipeline chosen,
//! the equation system, and (for §4) the adorned program; `--stats`
//! prints the unit-cost counters.  All behavior lives in
//! `recursive_queries::cli`; this binary is argument handling plus one
//! stdin loop shared by `repl` and `serve`.

use recursive_queries::cli::{parse_command, Command, CommandOutput, ServeSession, Session};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::str::FromStr;

const DEMO: &str = "\
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
up(john, mary). up(erik, lisa).
flat(mary, lisa).
down(lisa, erik). down(mary, john).
";

fn usage() {
    eprintln!("usage: rqc <program.dl> <query> [--stats] [--plan] [--max-iterations N]");
    eprintln!("       rqc repl [program.dl]");
    eprintln!("       rqc serve <program.dl> [--threads N] [--http <addr>] [--data-dir <dir>]");
    eprintln!("       rqc --demo");
}

/// The value following flag `name`, parsed; `Ok(None)` when the flag
/// is absent.  A missing or unparsable value is a usage error (exit
/// 2), never a silently ignored flag.
fn flag_value<T: FromStr>(args: &[String], name: &str, needs: &str) -> Result<Option<T>, ExitCode> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let Some(value) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
        eprintln!("`{name}` needs {needs}");
        return Err(ExitCode::from(2));
    };
    value.parse().map(Some).map_err(|_| {
        eprintln!("`{name}` needs {needs}, not `{value}`");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) | Err(code) => code,
    }
}

fn run() -> Result<ExitCode, ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        usage();
        return Ok(if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        });
    }

    if args[0] == "repl" {
        return Ok(repl(args.get(1).map(String::as_str)));
    }

    if args[0] == "serve" {
        let threads = flag_value(&args, "--threads", "a worker count, e.g. --threads 4")?;
        let http: Option<String> = flag_value(
            &args,
            "--http",
            "a bind address, e.g. --http 127.0.0.1:7474",
        )?;
        let data_dir: Option<std::path::PathBuf> = flag_value(
            &args,
            "--data-dir",
            "a directory, e.g. --data-dir ./rq-data",
        )?;
        let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
            eprintln!("`rqc serve` needs a program file");
            return Err(ExitCode::from(2));
        };
        return serve(
            path,
            threads.unwrap_or(0),
            http.as_deref(),
            data_dir.as_deref(),
        );
    }

    let stats = args.iter().any(|a| a == "--stats");
    let plan = args.iter().any(|a| a == "--plan");
    let max_iterations: Option<u64> = flag_value(
        &args,
        "--max-iterations",
        "an iteration count, e.g. --max-iterations 50",
    )?;

    let (src, query_text) = if args[0] == "--demo" {
        (DEMO.to_string(), "sg(john, Y)".to_string())
    } else {
        // Everything that is neither a flag nor `--max-iterations`' value.
        let positional: Vec<&String> = (0..args.len())
            .filter(|&i| i == 0 || args[i - 1] != "--max-iterations")
            .map(|i| &args[i])
            .filter(|a| !a.starts_with("--"))
            .collect();
        if positional.len() != 2 {
            eprintln!("expected a program file and a query");
            return Err(ExitCode::from(2));
        }
        (read_program(positional[0])?, positional[1].clone())
    };

    let mut session = Session::with_source(&src).map_err(fail)?;

    let mut commands: Vec<Command> = Vec::new();
    if max_iterations.is_some() {
        commands.push(Command::MaxIterations(max_iterations));
    }
    if stats {
        commands.push(Command::Stats(true));
    }
    if plan {
        commands.push(Command::Plan(&query_text));
    }
    commands.push(Command::Query(&query_text));

    for cmd in &commands {
        let out = session.execute(cmd).map_err(fail)?;
        // Plans, settings, and diagnostics go to stderr; answers to
        // stdout.
        if matches!(cmd, Command::Query(_)) {
            println!("{}", out.text);
        } else if !out.text.is_empty() {
            eprintln!("{}", out.text);
        }
        if !out.notes.is_empty() {
            eprintln!("{}", out.notes);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Report a failure on stderr; the exit code for "ran and failed".
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

fn read_program(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

/// `rqc serve <program.dl>`: one serving session, answering batches
/// from stdin or — with `--http <addr>` — over the `rq-wire` HTTP/1.1
/// JSON API (the bound address goes to stderr on one line, parseable by
/// scripts that bind port 0; serves until killed).
fn serve(
    path: &str,
    threads: usize,
    http: Option<&str>,
    data_dir: Option<&std::path::Path>,
) -> Result<ExitCode, ExitCode> {
    let source = read_program(path)?;
    let mut session = ServeSession::with_data_dir(&source, threads, data_dir).map_err(fail)?;
    print_recovery_banner(session.service());
    let Some(addr) = http else {
        eprintln!(
            "rqc serve — {} worker thread(s), epoch {} — :help for commands",
            session.service().config().threads,
            session.service().snapshot().epoch()
        );
        return Ok(stdin_loop("rq-serve> ", |line| session.execute_line(line)));
    };
    let service = std::sync::Arc::new(session.into_service());
    let wire_config = rq_wire::WireConfig {
        workers: threads,
        ..rq_wire::WireConfig::default()
    };
    let server = rq_wire::WireServer::bind(std::sync::Arc::clone(&service), addr, wire_config)
        .map_err(|e| fail(format!("cannot bind {addr}: {e}")))?;
    eprintln!(
        "rqc serve --http {} — {} wire worker(s), {} query thread(s), epoch {}",
        server.local_addr().map_err(fail)?,
        server.workers(),
        service.config().threads,
        service.snapshot().epoch()
    );
    server.run().map_err(fail)?;
    Ok(ExitCode::SUCCESS)
}

/// One stderr line describing what boot-time recovery restored, only
/// for durable services — scripts assert on its `recovered epoch`.
fn print_recovery_banner(service: &rq_service::QueryService) {
    if let Some(report) = service.recovery_report() {
        eprintln!(
            "rqc serve — data dir recovered to epoch {} ({} checkpoint, {} replayed, {} skipped, {} dropped)",
            report.recovered_epoch,
            match report.checkpoint_epoch {
                Some(e) => format!("epoch {e}"),
                None => "no".to_string(),
            },
            report.replayed_records,
            report.skipped_duplicates,
            report.dropped_records,
        );
    }
}

fn repl(initial: Option<&str>) -> ExitCode {
    let mut session = Session::new();
    if let Some(path) = initial {
        match session.execute(&Command::Load(path)) {
            Ok(out) => eprintln!("{}", out.text),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!("rqc repl — :help for commands, :quit to leave");
    stdin_loop("rq> ", |line| match parse_command(line)? {
        Some(cmd) => session.execute(&cmd),
        None => Ok(CommandOutput::default()),
    })
}

/// The interactive loop behind `repl` and `serve`: prompt on stderr,
/// one line in, answers on stdout and diagnostics on stderr, until
/// `:quit` or EOF.  A failed command is reported and the loop goes on.
fn stdin_loop(
    prompt: &str,
    mut execute: impl FnMut(&str) -> Result<CommandOutput, String>,
) -> ExitCode {
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        eprint!("{prompt}");
        let _ = std::io::stderr().flush();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return ExitCode::SUCCESS, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        match execute(&line) {
            Ok(out) => {
                if !out.text.is_empty() {
                    println!("{}", out.text);
                }
                if !out.notes.is_empty() {
                    eprintln!("{}", out.notes);
                }
                if out.quit {
                    return ExitCode::SUCCESS;
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
