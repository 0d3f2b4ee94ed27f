//! `rqbench` — the repository's benchmark: four workloads against the
//! release `rqc serve --http` binary over real sockets, plus an
//! in-process replay that times every layer.  See `README.md`.

mod client;
mod compare;
mod e2e;
mod gen;
mod json;
mod layers;
mod metrics;
mod oracle;
mod rng;
mod server;
mod span;
mod stats;

use gen::{Kind, Workload};
use metrics::{gated, Readings, PER_LAYER};
use rq_common::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  rqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last stdout line is the JSON result
      (the BENCHMARK.json contract: --trace 0 end-to-end, 1 per-layer)
  rqbench run [--seed <n>] [--seconds <s>] [--workload <name>]...
      every workload: 3 end-to-end repetitions, then layers mode;
      prints every metric and writes bench/out/result.json
  rqbench layers [--seed <n>] [--workload <name>]...
      layers mode only; writes bench/out/trace-<workload>.json
  rqbench compare <base.json> <new.json>
      apply the regression bounds; exits non-zero on any `regressed`
      row and on anything <base.json> has that <new.json> lacks
workloads: hot_points cold_reach nary_sweep durable_mixed";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("`--{name}` needs a value"))?;
                    args.flags.push((name.to_string(), value.clone()));
                }
                None => args.words.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a whole number")),
        }
    }

    /// Every `--workload`, or all four when none is given.
    fn workloads(&self) -> Result<Vec<Kind>, String> {
        let named: Vec<Kind> = self
            .flags
            .iter()
            .filter(|(n, _)| n == "workload")
            .map(|(_, v)| Kind::parse(v).ok_or(format!("unknown workload `{v}`")))
            .collect::<Result<_, _>>()?;
        Ok(if named.is_empty() {
            Kind::ALL.to_vec()
        } else {
            named
        })
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// End-to-end repetitions per workload in `run`; `compare` reads spread
/// from them, so result files are comparable only at one count.
const REPS: u64 = 3;

fn e2e_config(seconds: u64) -> Result<e2e::Config, String> {
    Ok(e2e::Config {
        rqc: server::build_rqc()?,
        out: out_dir(),
        seconds,
    })
}

fn report_failures(what: &str, failed: u64, attempted: u64, failures: &[String]) {
    if failed > 0 {
        eprintln!("{what}: {failed} of {attempted} requests failed, first:");
        for why in failures {
            eprintln!("  {why}");
        }
    }
}

/// One run under the `BENCHMARK.json` contract.
fn contract_run(args: &Args) -> Result<ExitCode, String> {
    let [kind] = args.workloads()?[..] else {
        return Err("exactly one `--workload` is required".into());
    };
    let seed = args.number("seed", 42)?;
    let seconds = args.number("seconds", 20)?;
    let trace = args.number("trace", 0)? != 0;
    let w = Workload::generate(kind, seed);
    let run = e2e::run(&w, &e2e_config(seconds)?)?;
    report_failures(kind.name(), run.failed, run.attempted, &run.failures);
    let (mut attempted, mut failed) = (run.attempted, run.failed);
    let metrics = if trace {
        let layers = layers::run(&w, &out_dir(), run.metrics.value("read_p50_ms"))?;
        report_failures("layers", layers.failed, layers.attempted, &layers.failures);
        attempted += layers.attempted;
        failed += layers.failed;
        let mut all = run.per_layer();
        all.extend(layers.readings);
        all.to_result_json(PER_LAYER.iter().copied())
    } else {
        run.metrics
            .to_result_json(gated().map(|s| (s.name, s.unit)))
    };
    let line = Json::object([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.encode());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn layer_run(w: &Workload, e2e_read_p50_ms: Option<f64>) -> Result<(Readings, u64), String> {
    let layers = layers::run(w, &out_dir(), e2e_read_p50_ms)?;
    report_failures("layers", layers.failed, layers.attempted, &layers.failures);
    Ok((layers.readings, layers.failed))
}

/// `run`: every metric of every workload, by name, with unit and sample
/// count, and a result file `compare` can read.
fn full_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", 42)?;
    let seconds = args.number("seconds", 20)?;
    let cfg = e2e_config(seconds)?;
    let mut failed_total = 0;
    let mut workloads = Vec::new();
    for kind in args.workloads()? {
        let w = Workload::generate(kind, seed);
        println!("== {} (seed {seed}, {seconds} s × {REPS})", kind.name());
        let mut runs = Vec::new();
        for rep in 0..REPS {
            let run = e2e::run(&w, &cfg)?;
            report_failures(kind.name(), run.failed, run.attempted, &run.failures);
            println!(" end to end, repetition {}:", rep + 1);
            run.metrics.print("  ");
            failed_total += run.failed;
            runs.push(run);
        }
        let read_p50: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.value("read_p50_ms"))
            .collect();
        let (layer_readings, layer_failed) = layer_run(&w, Some(stats::median(&read_p50)))?;
        failed_total += layer_failed;
        let last = runs.last().expect("REPS >= 1");
        println!(" per layer (end-to-end side from the last repetition):");
        last.per_layer().print("  ");
        layer_readings.print("  ");
        workloads.push(compare::workload_json(kind.name(), &runs, &layer_readings));
    }
    let result = Json::object([
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Int(seconds as i64)),
        ("reps", Json::Int(REPS as i64)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        ("workloads", Json::Array(workloads)),
    ]);
    let path = out_dir().join("result.json");
    std::fs::write(&path, result.encode_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn layers_only(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", 42)?;
    let mut failed_total = 0;
    for kind in args.workloads()? {
        let w = Workload::generate(kind, seed);
        println!("== {} (seed {seed}), layers mode", kind.name());
        let (readings, failed) = layer_run(&w, None)?;
        readings.print("  ");
        failed_total += failed;
    }
    Ok(if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // The in-process replay must see the thread counts the spawned
    // server sees; nothing else has started a thread yet.
    std::env::remove_var("RQC_THREADS");
    std::env::remove_var("RQC_SLOW_QUERY_MS");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&raw).and_then(|args| match args.words.first().map(String::as_str) {
        None if !args.flags.is_empty() => contract_run(&args),
        Some("run") => full_run(&args),
        Some("layers") => layers_only(&args),
        Some("compare") => match &args.words[1..] {
            [base, new] => compare::run(base.as_ref(), new.as_ref()),
            _ => Err("`compare` takes two result files".into()),
        },
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
