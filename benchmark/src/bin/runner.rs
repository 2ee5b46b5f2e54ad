//! `flexvc-benchmark` — the command `BENCHMARK.json` names.
//!
//! ```text
//! flexvc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! flexvc-benchmark --all --out <file> [--seed <n>] [--seconds <s>]
//! flexvc-benchmark --agree <a.json> <b.json>
//! flexvc-benchmark --smoke [--workload <name>]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also writes
//! the span file under `benchmark/out/`).

use flexvc::serde::json;
use flexvc_benchmark::defs::{self, WORKLOADS};
use flexvc_benchmark::run::{self, Request};
use flexvc_benchmark::suite;
use std::process::ExitCode;

const USAGE: &str = "usage:
  flexvc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
  flexvc-benchmark --all --out <file> [--seed <n>] [--seconds <s>]
  flexvc-benchmark --agree <a.json> <b.json>
  flexvc-benchmark --smoke [--workload <name>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    all: bool,
    smoke: bool,
    agree: Option<(String, String)>,
    build_only: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        all: false,
        smoke: false,
        agree: None,
        build_only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value("a path")?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = Some((value("two files")?, value("two files")?)),
            "--build-only" => args.build_only = Some(value("single or sharded")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn one_workload(args: &Args, name: &str) -> Result<bool, String> {
    let def = defs::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    if let Some(engine) = &args.build_only {
        println!("{}", run::build_only(def, args.seed, engine == "sharded")?);
        return Ok(true);
    }
    let req = Request {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = run::run(def, req)?;
    let report = suite::report(&outcome)?;
    if let Some(path) = &args.out {
        std::fs::write(path, json::emit_pretty(&report.full))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", report.text);
    if !args.smoke {
        println!("{}", json::emit(&report.last_line));
    }
    Ok(report.correct)
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let code = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    if let Some((a, b)) = &args.agree {
        return suite::agree(a, b).map(code);
    }
    if args.all {
        let out = args.out.as_deref().ok_or("--all needs --out <file>")?;
        return suite::run_all(out, args.seed, args.seconds).map(code);
    }
    match (&args.workload, args.smoke) {
        // A contract run exits 0 once it has printed its result, whatever
        // `correct` says; smoke, --all and --agree report through the code.
        (Some(name), false) => one_workload(args, name).map(|_| ExitCode::SUCCESS),
        (Some(name), true) => one_workload(args, name).map(code),
        (None, true) => {
            let mut ok = true;
            for w in &WORKLOADS {
                ok &= one_workload(args, w.name)?;
            }
            Ok(code(ok))
        }
        (None, false) => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    parse_args()
        .and_then(|args| dispatch(&args))
        .unwrap_or_else(|e| {
            eprintln!("flexvc-benchmark: {e}");
            ExitCode::from(2)
        })
}
