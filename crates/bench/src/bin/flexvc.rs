//! `flexvc` — the unified experiment CLI.
//!
//! Replaces the nine per-figure binaries with one scenario-driven front
//! end (see `flexvc help` or the crate docs of `flexvc-bench`):
//!
//! ```text
//! flexvc list
//! flexvc show fig9 > fig9.toml
//! flexvc run fig9 --threads 8 --out results.json
//! flexvc run --file custom.toml --format csv --out results.csv
//! ```

use flexvc_bench::scenario::{
    render_csv, render_markdown, run_scenario, Scenario, ScenarioRegistry, ScenarioReport,
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
    flexvc bench [--quick] [--out p]  run the engine-performance kernel
                                      suite and write a report
    flexvc help                       this text

BENCH OPTIONS:
    --quick                shorter windows (the CI profile)
    --group <name>         run a single kernel group (e.g. fig5_h2); see
                           the group list in the crate docs
    --shards <n>           engine threads per kernel (0 = auto-detect from
                           the host's cores; default: each kernel's own
                           setting — results are shard-count-invariant)
    --out <path>           report path (default: BENCH_current.json; pass
                           an explicit path when recording a new baseline)
    --baseline <path>      compare against a recorded report: fail (exit 1)
                           when any kernel group present in both reports
                           regresses its geomean cycles/sec by >15%
                           (>10% on the ratcheted fig5_h2/smoke_h8
                           groups); cycles/sec are machine-dependent, so
                           compare on like hardware
    --quiet                suppress per-kernel progress on stderr

SHOW OPTIONS:
    --format toml|json     output format (default: toml)

RUN OPTIONS:
    --file <path>          load the scenario from a file instead of the registry
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

SCALE OPTIONS (run/show; defaults may also come from FLEXVC_* env vars):
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
    baseline: Option<String>,
    group: Option<String>,
    quiet: bool,
    quick: bool,
    scale: Scale,
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
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        "list" => list(),
        "show" => match parse_options(rest) {
            Ok(opts) => show(opts),
            Err(msg) => fail(&msg),
        },
        "run" => match parse_options(rest) {
            Ok(opts) => run(opts),
            Err(msg) => fail(&msg),
        },
        "bench" => match parse_options(rest) {
            Ok(opts) => bench(opts),
            Err(msg) => fail(&msg),
        },
        other => fail(&format!("unknown command `{other}`")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        names: Vec::new(),
        file: None,
        threads: default_threads(),
        shards: None,
        out: None,
        format: None,
        baseline: None,
        group: None,
        quiet: false,
        quick: false,
        scale: Scale::from_env(),
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
            "--baseline" => opts.baseline = Some(value("--baseline", &mut it)?),
            "--group" => opts.group = Some(value("--group", &mut it)?),
            "--quiet" => opts.quiet = true,
            "--quick" => opts.quick = true,
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
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            name => opts.names.push(name.to_string()),
        }
    }
    Ok(opts)
}

fn list() -> ExitCode {
    let registry = ScenarioRegistry::builtin();
    println!("built-in scenarios:");
    for entry in registry.entries() {
        println!("  {:<16} {}", entry.name, entry.summary);
    }
    println!("\nrun one with `flexvc run <name>`; export with `flexvc show <name>`.");
    ExitCode::SUCCESS
}

/// Resolve the scenarios selected by names and/or `--file`.
fn resolve(opts: &Options) -> Result<Vec<Scenario>, String> {
    let registry = ScenarioRegistry::builtin();
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
        match registry.build(name, &opts.scale) {
            Some(sc) => scenarios.push(sc),
            None => {
                return Err(format!(
                    "unknown scenario `{name}` (available: {})",
                    registry.names().join(", ")
                ))
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
        print!("{rendered}");
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

fn bench(opts: Options) -> ExitCode {
    // Never default onto a recorded baseline (BENCH_pr10.json): a single
    // local run is ±20% noisy and must not silently replace the
    // several-run recording `--baseline` compares against.
    let out_path = opts.out.as_deref().unwrap_or("BENCH_current.json");
    // Read (and validate) the baseline before the suite runs, so a typo'd
    // path cannot waste the run.
    let baseline = match &opts.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match from_json::<flexvc_bench::perf::BenchReport>(&text) {
                Ok(b) => Some((path.clone(), b)),
                Err(e) => {
                    eprintln!("error: cannot parse baseline {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    if let Some(g) = &opts.group {
        if !flexvc_bench::perf::group_names().contains(&g.as_str()) {
            eprintln!(
                "error: unknown kernel group `{g}` (available: {})",
                flexvc_bench::perf::group_names().join(", ")
            );
            return ExitCode::from(2);
        }
    }
    if !opts.quiet {
        eprintln!(
            "[bench] running the {} kernel suite ({} profile)…",
            opts.group.as_deref().unwrap_or("fixed"),
            if opts.quick { "quick" } else { "full" }
        );
    }
    let report =
        match flexvc_bench::perf::run_bench(opts.quick, opts.shards, opts.group.as_deref(), |k| {
            if !opts.quiet {
                let shard_note = if k.shards > 1 {
                    format!(", {} shards imb {:.2}", k.shards, k.shard_imbalance)
                } else {
                    String::new()
                };
                eprintln!(
                    "[bench] {:<28} {:>10.0} cycles/sec (x{}, accepted {:.3}{}{})",
                    k.name,
                    k.cycles_per_sec,
                    k.repeats,
                    k.accepted,
                    shard_note,
                    if k.deadlocked { ", DEADLOCK" } else { "" }
                );
            }
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: bench: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("| group | kernels | cycles/sec | geomean | pre-refactor | speedup |");
    println!("|---|---|---|---|---|---|");
    for g in &report.groups {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.0} | {:.2}x |",
            g.group,
            g.kernels,
            g.cycles_per_sec,
            g.geomean_cycles_per_sec,
            g.baseline_cycles_per_sec,
            g.speedup_vs_baseline
        );
    }
    // The partition, per-worker work time and exchange volume behind every
    // kernel that ran as more than one block (last timed repeat): where
    // the router ranges landed, how many blocks each was stepped in, how
    // the port+terminal weight split, and how uneven the actual work was.
    let sharded: Vec<_> = report
        .kernels
        .iter()
        .filter(|k| !k.shard_stats.is_empty())
        .collect();
    if !sharded.is_empty() {
        println!(
            "\n| sharded kernel | workers | partition routers@weight | blocks \
             | events/epoch | work s | imbalance |"
        );
        println!("|---|---|---|---|---|---|---|");
        for k in sharded {
            let column = |cell: fn(&flexvc_bench::perf::KernelShardStat) -> String| {
                let cells: Vec<String> = k.shard_stats.iter().map(cell).collect();
                cells.join(" ")
            };
            println!(
                "| {} | {} | {} | {} | {:.0} | {} | {:.2} |",
                k.name,
                k.shards,
                column(|s| format!("{}@{}", s.routers, s.weight)),
                column(|s| s.blocks.to_string()),
                k.events_per_epoch,
                column(|s| format!("{:.2}", s.work_seconds)),
                k.shard_imbalance
            );
        }
    }
    if let Some(k) = report.kernels.iter().find(|k| k.deadlocked) {
        eprintln!(
            "error: kernel {} deadlocked — the suite must simulate cleanly",
            k.name
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(out_path, to_json_pretty(&report)) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if !opts.quiet {
        eprintln!("[bench] report written to {out_path}");
    }
    if let Some((path, mut baseline)) = baseline {
        // Under `--group` only the selected group ran; gating the
        // baseline's other groups would fail them all as missing.
        if let Some(g) = &opts.group {
            baseline.groups.retain(|b| b.group == *g);
        }
        let (rows, pass) = flexvc_bench::perf::compare_reports_with(
            &report,
            &baseline,
            0.15,
            &[("fig5_h2", 0.10), ("smoke_h8", 0.10)],
        );
        println!("\nbaseline compare vs {path} (geomean gate per recorded group):");
        println!("| group | geomean c/s | recorded | ratio | gate |");
        println!("|---|---|---|---|---|");
        for r in &rows {
            println!(
                "| {} | {:.0} | {:.0} | {:.2}x | {} |",
                r.group,
                r.current,
                r.baseline,
                r.ratio,
                if r.pass { "ok" } else { "FAIL" }
            );
        }
        if !pass {
            eprintln!("error: geomean cycles/sec regression beyond tolerance vs {path}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
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
        print!("{}", render_markdown(&report));
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
    }
    ExitCode::SUCCESS
}
