//! `flexvc` — the unified experiment CLI.
//!
//! One scenario-driven front end for every built-in scenario and every
//! scenario file (see `flexvc help` or the crate docs of `flexvc-bench`):
//!
//! ```text
//! flexvc list
//! flexvc show fig9 > fig9.toml
//! flexvc run fig9 --threads 8 --out results.json
//! flexvc run --file custom.toml --format csv --out results.csv
//! ```

use flexvc_bench::scenario::{
    lookup, render_csv, render_markdown, run_scenario, Scenario, ScenarioReport, CATALOGUE,
};
use flexvc_bench::Scale;
use flexvc_serde::{from_json, from_toml, to_json_pretty, to_toml};
use flexvc_sim::runner::default_threads;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
flexvc — scenario-first experiment runner for the FlexVC reproduction

USAGE:
    flexvc list                       list built-in scenarios
    flexvc show <scenario> [options]  print a scenario as editable data
    flexvc run <scenario> [options]   run a built-in scenario
    flexvc run --file <path> [opts]   run a scenario from a TOML/JSON file
    flexvc help                       this text

SHOW OPTIONS:
    --file <path>          load the scenario from a file instead of the catalogue
    --format toml|json     output format (default: toml)

RUN OPTIONS:
    --file <path>          load the scenario from a file instead of the catalogue
    --threads <n>          worker threads, one simulation each (default: all cores)
    --shards <n>           engine threads per simulation (0 = auto-detect;
                           default: the scenario's `shards` field, usually 1).
                           Results are bit-identical for every shard count;
                           prefer --threads for sweeps with many points and
                           --shards for a few huge-topology points, which
                           are stepped in cache-sized blocks at any count
    --out <path>           write structured results to a file
    --format json|csv      format for --out (default: by extension, else json)
    --quiet                suppress per-point progress on stderr

SCALE OPTIONS (run/show):
    --paper                full Table V scale (h = 8, 5 seeds, 60k cycles)
    --h <n>                Dragonfly size parameter h
    --seeds <n>            repetitions per point (seeds 1..=n)
    --warmup <cycles>      warm-up window
    --measure <cycles>     measurement window
";

struct Options {
    names: Vec<String>,
    file: Option<String>,
    threads: usize,
    shards: Option<usize>,
    out: Option<String>,
    format: Option<String>,
    quiet: bool,
    scale: Scale,
}

/// Write `text` to stdout. A reader that closed the pipe early
/// (`flexvc show fig5 | head -1`) has read all it wants, so that ends the
/// command quietly with success; any other write error is a failure.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1)
        }
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run `flexvc help` for usage");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return fail("missing command"),
    };
    match command {
        "help" | "--help" | "-h" => {
            emit(USAGE);
            ExitCode::SUCCESS
        }
        "list" => list(),
        "show" => match parse_options(command, SHOW_FLAGS, rest) {
            Ok(opts) => show(opts),
            Err(msg) => fail(&msg),
        },
        "run" => match parse_options(command, RUN_FLAGS, rest) {
            Ok(opts) => run(opts),
            Err(msg) => fail(&msg),
        },
        other => fail(&format!("unknown command `{other}`")),
    }
}

/// Flags `show` reads: the scenario source, the rendering and the scale.
const SHOW_FLAGS: &[&str] = &[
    "--file",
    "--format",
    "--paper",
    "--h",
    "--seeds",
    "--warmup",
    "--measure",
];

/// Flags `run` reads: every flag `parse_options` knows.
const RUN_FLAGS: &[&str] = &[
    "--file",
    "--format",
    "--paper",
    "--h",
    "--seeds",
    "--warmup",
    "--measure",
    "--threads",
    "--shards",
    "--out",
    "--quiet",
];

/// Parse the arguments of `command`, which reads only the `accepted`
/// flags: any other flag is a usage error, never a silent no-op.
fn parse_options(command: &str, accepted: &[&str], args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        names: Vec::new(),
        file: None,
        threads: default_threads(),
        shards: None,
        out: None,
        format: None,
        quiet: false,
        scale: Scale::default(),
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag if flag.starts_with("--") && !accepted.contains(&flag) => {
                return Err(format!("unknown option `{flag}` for `{command}`"))
            }
            "--file" => opts.file = Some(value("--file", &mut it)?),
            "--threads" => {
                opts.threads = value("--threads", &mut it)?
                    .parse::<usize>()
                    .map_err(|_| "--threads needs an integer".to_string())?
                    .max(1)
            }
            "--shards" => {
                opts.shards = Some(
                    value("--shards", &mut it)?
                        .parse::<usize>()
                        .map_err(|_| "--shards needs an integer (0 = auto)".to_string())?,
                )
            }
            "--out" => opts.out = Some(value("--out", &mut it)?),
            "--format" => opts.format = Some(value("--format", &mut it)?),
            "--quiet" => opts.quiet = true,
            "--paper" => opts.scale = Scale::paper(),
            "--h" => {
                opts.scale.h = value("--h", &mut it)?
                    .parse()
                    .map_err(|_| "--h needs an integer".to_string())?
            }
            "--seeds" => {
                let n: u64 = value("--seeds", &mut it)?
                    .parse()
                    .map_err(|_| "--seeds needs an integer".to_string())?;
                opts.scale.seeds = (1..=n.max(1)).collect();
            }
            "--warmup" => {
                opts.scale.warmup = value("--warmup", &mut it)?
                    .parse()
                    .map_err(|_| "--warmup needs an integer".to_string())?
            }
            "--measure" => {
                opts.scale.measure = value("--measure", &mut it)?
                    .parse()
                    .map_err(|_| "--measure needs an integer".to_string())?
            }
            name => opts.names.push(name.to_string()),
        }
    }
    Ok(opts)
}

fn list() -> ExitCode {
    let mut text = String::from("built-in scenarios:\n");
    for entry in &CATALOGUE {
        text.push_str(&format!("  {:<16} {}\n", entry.name, entry.summary));
    }
    text.push_str("\nrun one with `flexvc run <name>`; export with `flexvc show <name>`.\n");
    emit(&text);
    ExitCode::SUCCESS
}

/// Resolve the scenarios selected by names and/or `--file`.
fn resolve(opts: &Options) -> Result<Vec<Scenario>, String> {
    let mut scenarios = Vec::new();
    if let Some(path) = &opts.file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let parsed: Result<Scenario, _> = if text.trim_start().starts_with('{') {
            from_json(&text)
        } else {
            from_toml(&text)
        };
        scenarios.push(parsed.map_err(|e| format!("cannot parse {path}: {e}"))?);
    }
    for name in &opts.names {
        match lookup(name) {
            Some(entry) => scenarios.push(entry.build(&opts.scale)),
            None => {
                let names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
                return Err(format!(
                    "unknown scenario `{name}` (available: {})",
                    names.join(", ")
                ));
            }
        }
    }
    if scenarios.is_empty() {
        return Err("nothing to do: name a scenario or pass --file".to_string());
    }
    Ok(scenarios)
}

fn show(opts: Options) -> ExitCode {
    let scenarios = match resolve(&opts) {
        Ok(s) => s,
        Err(msg) => return fail(&msg),
    };
    let format = opts.format.as_deref().unwrap_or("toml");
    for sc in &scenarios {
        let rendered = match format {
            "toml" => match to_toml(sc) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot serialize `{}`: {e}", sc.name)),
            },
            "json" => to_json_pretty(sc),
            other => return fail(&format!("unknown show format `{other}` (toml or json)")),
        };
        emit(&rendered);
    }
    ExitCode::SUCCESS
}

/// Resolve the output format for `--out` (flag wins, then extension).
/// Validated *before* any simulation runs so a typo cannot discard a
/// long run's results.
fn output_format(path: &str, format: Option<&str>) -> Result<&'static str, String> {
    match format {
        Some("json") => Ok("json"),
        Some("csv") => Ok("csv"),
        Some(other) => Err(format!("unknown output format `{other}` (json or csv)")),
        None if path.ends_with(".csv") => Ok("csv"),
        None => Ok("json"),
    }
}

fn write_output(report: &ScenarioReport, path: &str, format: &str) -> Result<(), String> {
    let rendered = match format {
        "csv" => render_csv(report),
        _ => to_json_pretty(report),
    };
    std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn run(opts: Options) -> ExitCode {
    let mut scenarios = match resolve(&opts) {
        Ok(s) => s,
        Err(msg) => return fail(&msg),
    };
    // `--shards` overrides every point's engine shard count; results are
    // bit-identical for any value, so this is purely a speed knob.
    if let Some(n) = opts.shards {
        for sc in &mut scenarios {
            for p in &mut sc.points {
                p.cfg.shards = n;
            }
        }
    }
    if opts.out.is_some() && scenarios.len() > 1 {
        return fail("--out supports a single scenario per invocation");
    }
    let out_format = match &opts.out {
        Some(path) => match output_format(path, opts.format.as_deref()) {
            Ok(f) => Some(f),
            Err(msg) => return fail(&msg),
        },
        None => None,
    };
    for sc in &scenarios {
        let sims = sc.simulation_count();
        if !opts.quiet {
            eprintln!(
                "[{}] {} point(s) × {} seed(s) = {} simulation(s) on {} thread(s)",
                sc.name,
                sc.points.len(),
                sc.seeds.len(),
                sims,
                opts.threads
            );
        }
        let progress = |p: flexvc_bench::scenario::ScenarioProgress<'_>| {
            if opts.quiet {
                return;
            }
            let mut err = std::io::stderr().lock();
            let _ = writeln!(
                err,
                "[{} {}/{}] {} @ {} load {:.2} -> accepted {:.3}, latency {:.0}{}",
                sc.name,
                p.completed,
                p.total,
                p.series,
                p.x,
                p.load,
                p.result.accepted,
                p.result.latency,
                if p.result.deadlocked {
                    " [DEADLOCK]"
                } else {
                    ""
                }
            );
        };
        let report = match run_scenario(sc, opts.threads, progress) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: scenario `{}`: {e}", sc.name);
                return ExitCode::FAILURE;
            }
        };
        // Results go to `--out` before stdout, which may be a pipe the
        // reader has already closed.
        if let Some(path) = &opts.out {
            let format = out_format.expect("validated with opts.out");
            if let Err(msg) = write_output(&report, path, format) {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
            if !opts.quiet {
                eprintln!("[{}] results written to {path}", sc.name);
            }
        }
        emit(&render_markdown(&report));
    }
    ExitCode::SUCCESS
}
