//! Reports: one workload's result object, the whole-suite result file
//! (`--all`) and the comparison of two result files (`--agree`).

use crate::defs::{self, END_TO_END, WORKLOADS};
use crate::host;
use crate::layers::{self, Metrics};
use crate::run::{Outcome, THREADS};
use flexvc::serde::{json, Map, Serialize, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of the result files.
pub const SCHEMA: &str = "flexvc-benchmark-v1";
/// Steal share above which a run is marked noisy.
pub const NOISY_STEAL: f64 = 0.02;
/// Slice quartile spread (share of the median) above which a run is
/// marked noisy.
pub const NOISY_IQR: f64 = 0.25;

/// One workload's result in its three renderings.
pub struct Report {
    /// The full result object (`--out`).
    pub full: Value,
    /// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub last_line: Value,
    /// Human-readable lines: every metric by name with its unit, every
    /// kernel's digest, every failure.
    pub text: String,
    /// No operation failed.
    pub correct: bool,
}

/// Directory for what a run leaves behind (span files, `--all` scratch).
fn out_dir() -> Result<PathBuf, String> {
    let dir = defs::package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Build `flexvc-probes` beside this executable and run it on a workload.
/// Built here, on demand, because `cargo run --bin flexvc-benchmark`
/// builds only the runner — which is the point of the split: the runner's
/// numbers do not depend on the probes compiling.
fn run_probes(workload: &str, seed: u64) -> Result<(Metrics, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("executable has no directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("executable is not under a target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut build = Command::new(cargo);
    build
        .args([
            "build",
            "--quiet",
            "--bin",
            "flexvc-probes",
            "--manifest-path",
        ])
        .arg(defs::package_dir().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir);
    if profile_dir.file_name().is_some_and(|d| d == "release") {
        build.arg("--release");
    }
    let status = build
        .status()
        .map_err(|e| format!("cargo build flexvc-probes: {e}"))?;
    if !status.success() {
        return Err("flexvc-probes did not build".into());
    }
    let out = Command::new(profile_dir.join("flexvc-probes"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("flexvc-probes: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "flexvc-probes failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("flexvc-probes printed nothing")?;
    let value = json::parse(last).map_err(|e| format!("flexvc-probes output: {e}"))?;
    let map = value.as_map().map_err(|e| e.to_string())?;
    let metrics = map
        .req("metrics")
        .and_then(Value::as_map)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(k, v)| Ok((k.to_string(), v.as_f64().map_err(|e| format!("{k}: {e}"))?)))
        .collect::<Result<Metrics, String>>()?;
    Ok((
        metrics,
        map.get("spans").cloned().unwrap_or(Value::Seq(Vec::new())),
    ))
}

fn metrics_value(metrics: &[(String, f64)]) -> Result<Value, String> {
    let mut m = Map::new();
    for (name, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let unit = defs::unit_of(name).ok_or_else(|| format!("metric {name} has no unit"))?;
        m.insert(
            name.as_str(),
            Value::Map(
                Map::new()
                    .with("value", value.to_value())
                    .with("unit", Value::from(unit)),
            ),
        );
    }
    Ok(Value::Map(m))
}

/// Turn a finished run into its report; on a traced run this runs the
/// probes, derives the per-layer metrics and writes the span file.
pub fn report(out: &Outcome) -> Result<Report, String> {
    let mut text = String::new();
    let w = out.def.name;
    let steal = host::CpuTimes::now().steal_frac_since(&out.cpu_start);
    let iqr = out.slice_iqr_frac();
    let noisy = steal > NOISY_STEAL || iqr > NOISY_IQR;
    let mut trace_file = Value::Null;
    let metrics: Vec<(String, f64)> = if out.req.smoke {
        Vec::new()
    } else if out.req.trace {
        let (probes, probe_spans) = run_probes(w, out.req.seed)?;
        let path = out_dir()?.join(format!("trace_{w}_seed{}.json", out.req.seed));
        let spans = Map::new()
            .with("runner", out.tracer.to_value())
            .with("probes", probe_spans);
        std::fs::write(&path, json::emit(&Value::Map(spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        trace_file = Value::from(path.display().to_string().as_str());
        let m = layers::per_layer(out, &probes)?;
        // Table order, not alphabetical.
        defs::PER_LAYER
            .iter()
            .map(|(name, _, _)| (name.to_string(), m[*name]))
            .collect()
    } else {
        out.end_to_end()
            .ok_or_else(|| {
                format!(
                    "{w}: no kernel produced a result: {}",
                    out.failures().join("; ")
                )
            })?
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    };
    let (attempted, failed) = (out.attempted(), out.failed());
    let correct = failed == 0;
    let _ = writeln!(
        text,
        "{w}: seed {} | {} passes in {:.1} s | {attempted} kernel runs, {failed} failed | steal {steal:.3}, spread {iqr:.3}{}",
        out.req.seed,
        out.passes,
        out.wall_s,
        if noisy { " NOISY" } else { "" }
    );
    for (name, value) in &metrics {
        let _ = writeln!(
            text,
            "  {name:<32} {value:>16.6} {}",
            defs::unit_of(name).unwrap_or("")
        );
    }
    let kernels = out.kernel_rows();
    for k in &kernels {
        let _ = writeln!(
            text,
            "  digest {}  {:<44} {} samples of {} cycles, spread {:.3}",
            k.digest.as_deref().unwrap_or("----------------"),
            k.name,
            k.samples,
            k.cycles_per_sample,
            k.sample_iqr_frac,
        );
    }
    for f in out.failures() {
        let _ = writeln!(text, "  FAILED {f}");
    }
    let metrics = metrics_value(&metrics)?;
    let last_line = Value::Map(
        Map::new()
            .with("correct", correct.to_value())
            .with("attempted", attempted.to_value())
            .with("failed", failed.to_value())
            .with("metrics", metrics.clone()),
    );
    let full = Value::Map(
        Map::new()
            .with("workload", Value::from(w))
            .with("why", Value::from(out.def.why))
            .with("seed", out.req.seed.to_value())
            .with("seconds", out.req.seconds.to_value())
            .with("trace", out.req.trace.to_value())
            .with("correct", correct.to_value())
            .with("attempted", attempted.to_value())
            .with("failed", failed.to_value())
            .with("failures", out.failures().to_value())
            .with("noisy", noisy.to_value())
            .with("passes", (out.passes as u64).to_value())
            .with("wall_s", out.wall_s.to_value())
            .with("host.steal_frac", steal.to_value())
            .with("host.loadavg", host::loadavg().to_value())
            .with("sim.engine.slice_iqr_frac", iqr.to_value())
            .with("trace_file", trace_file)
            .with("metrics", metrics)
            .with("kernels", kernels.to_value()),
    );
    Ok(Report {
        full,
        last_line,
        text,
        correct,
    })
}

/// Run this executable on one workload and read back its `--out` file.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Map, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = out_dir()?.join(format!("{workload}.trace{}.json", trace as u8));
    let status = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&path)
        .status()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (--trace {}) exited with {status}",
            trace as u8
        ));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
        .and_then(|v| v.as_map().cloned())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `(kernel name, digest)` rows of a workload object of a result file.
fn digests(workload: &Map) -> Vec<(String, String)> {
    let rows = workload.get("kernels").and_then(|k| k.as_seq().ok());
    rows.unwrap_or_default()
        .iter()
        .filter_map(|k| {
            let k = k.as_map().ok()?;
            Some((
                k.field("name").ok()?,
                k.field_or("digest", String::new()).ok()?,
            ))
        })
        .collect()
}

fn first_digest(workload: &Map) -> Option<String> {
    digests(workload)
        .into_iter()
        .next()
        .map(|(_, digest)| digest)
}

fn metric(workload: &Map, key: &str, name: &str) -> Option<f64> {
    workload
        .get(key)?
        .as_map()
        .ok()?
        .get(name)?
        .as_map()
        .ok()?
        .field("value")
        .ok()
}

/// `--all`: every workload, one process each, untraced then traced, into
/// one result file with the run's conditions. Returns whether every
/// operation and cross-check passed.
pub fn run_all(out: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let cpu_start = host::CpuTimes::now();
    let mut workloads = Vec::new();
    let (mut ok, mut noisy) = (true, false);
    for w in &WORKLOADS {
        let mut plain = child(w.name, seed, seconds, false)?;
        let traced = child(w.name, seed, seconds, true)?;
        for side in [&plain, &traced] {
            ok &= side.field::<bool>("correct").map_err(|e| e.to_string())?;
            noisy |= side.field::<bool>("noisy").map_err(|e| e.to_string())?;
        }
        plain.insert(
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Value::Null),
        );
        plain.insert("traced", Value::Map(traced));
        workloads.push(plain);
    }
    let find = |name: &str| {
        workloads
            .iter()
            .find(|w| w.get("workload").is_some_and(|v| v.as_str() == Ok(name)))
    };
    let (h8, s2) = (
        find("paper_h8").ok_or("no paper_h8")?,
        find("paper_h8_s2").ok_or("no paper_h8_s2")?,
    );
    let digests_equal = first_digest(h8).is_some() && first_digest(h8) == first_digest(s2);
    if !digests_equal {
        eprintln!(
            "FAILED paper_h8_s2 digest {:?} != paper_h8 digest {:?}",
            first_digest(s2),
            first_digest(h8)
        );
    }
    ok &= digests_equal;
    let ratio = |name: &str| Some(metric(s2, "metrics", name)? / metric(h8, "metrics", name)?);
    let mut file = Map::new()
        .with("schema", Value::from(SCHEMA))
        .with(
            "conditions",
            Value::Map(
                Map::new()
                    .with("nproc", (host::nproc() as u64).to_value())
                    .with("threads_max", (THREADS as u64).to_value())
                    .with("cpu_model", Value::from(host::cpu_model().as_str()))
                    .with(
                        "rustc",
                        Value::from(host::first_line_of("rustc", &["--version"]).as_str()),
                    )
                    .with(
                        "git_commit",
                        Value::from(host::first_line_of("git", &["rev-parse", "HEAD"]).as_str()),
                    )
                    .with("seed", seed.to_value())
                    .with("seconds", seconds.to_value())
                    .with(
                        "host.steal_frac",
                        host::CpuTimes::now()
                            .steal_frac_since(&cpu_start)
                            .to_value(),
                    )
                    .with("host.loadavg", host::loadavg().to_value())
                    .with("wall_s", started.elapsed().as_secs_f64().to_value()),
            ),
        )
        .with("correct", ok.to_value())
        .with("noisy", noisy.to_value())
        .with(
            "cross_checks",
            Value::Map(
                Map::new()
                    .with(
                        "paper_h8_s2_digest_equals_paper_h8",
                        digests_equal.to_value(),
                    )
                    .with(
                        "paper_h8_s2_over_paper_h8.peak_rss_mb",
                        ratio("peak_rss_mb").to_value(),
                    )
                    .with(
                        "paper_h8_s2.sim.shard.speedup_vs_s1",
                        metric(s2, "per_layer", "sim.shard.speedup_vs_s1").to_value(),
                    ),
            ),
        )
        .with(
            "workloads",
            Value::Seq(workloads.into_iter().map(Value::Map).collect()),
        );
    // This file records a state; it claims no gain. (`Map::with` drops
    // nulls, `insert` keeps them.)
    file.insert("claim", Value::Null);
    std::fs::write(out, json::emit_pretty(&Value::Map(file))).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "suite: {} in {:.0} s{} -> {out}",
        if ok {
            "all operations and cross-checks passed"
        } else {
            "FAILED"
        },
        started.elapsed().as_secs_f64(),
        if noisy {
            " (NOISY host: compare with care)"
        } else {
            ""
        }
    );
    Ok(ok)
}

/// The workload objects of a result file: a suite file's `workloads`, or
/// the single object of a one-workload `--out` file.
fn workloads_of(path: &str) -> Result<Vec<Map>, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text)
        .and_then(|v| v.as_map().cloned())
        .map_err(|e| format!("{path}: {e}"))?;
    match root.get("workloads") {
        Some(list) => list
            .as_seq()
            .and_then(|s| s.iter().map(|w| w.as_map().cloned()).collect())
            .map_err(|e| format!("{path}: {e}")),
        None => Ok(vec![root]),
    }
}

/// `--agree`: compare two result files of one commit under the bounds of
/// `BENCHMARK.json`. Host metrics must be within their bound, simulated
/// metrics and digests identical, failed shares equal; host metrics of a
/// run marked noisy are *unresolved*, which is not agreement.
pub fn agree(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (workloads_of(a_path)?, workloads_of(b_path)?);
    let (mut disagree, mut unresolved) = (0, 0);
    for wa in &a {
        let name: String = wa.field("workload").map_err(|e| e.to_string())?;
        let Some(wb) = b
            .iter()
            .find(|w| w.get("workload").is_some_and(|v| v.as_str() == Ok(&name)))
        else {
            println!("{name}: DISAGREE missing from {b_path}");
            disagree += 1;
            continue;
        };
        let field = |w: &Map, k: &str| w.field::<f64>(k).map_err(|e| format!("{name}: {e}"));
        if field(wa, "seed")? != field(wb, "seed")? {
            return Err(format!("{name}: the two files ran different seeds"));
        }
        let noisy = wa.field_or("noisy", false).map_err(|e| e.to_string())?
            || wb.field_or("noisy", false).map_err(|e| e.to_string())?;
        let mut verdict = |what: &str, va: String, vb: String, state: &str| {
            println!("{name:<14} {what:<22} {va:>22} {vb:>22}  {state}");
            match state {
                "DISAGREE" => disagree += 1,
                "unresolved" => unresolved += 1,
                _ => {}
            }
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) =
                (metric(wa, "metrics", m.name), metric(wb, "metrics", m.name))
            else {
                return Err(format!("{name}: {} missing", m.name));
            };
            let state = if !m.host {
                if va == vb {
                    "identical"
                } else {
                    "DISAGREE"
                }
            } else if noisy {
                "unresolved"
            } else if (va - vb).abs() <= (m.bound * va.abs().max(vb.abs())).max(m.floor) {
                "within bound"
            } else {
                "DISAGREE"
            };
            verdict(m.name, format!("{va:.6}"), format!("{vb:.6}"), state);
        }
        let share =
            |w: &Map| Ok::<f64, String>(field(w, "failed")? / field(w, "attempted")?.max(1.0));
        let (sa, sb) = (share(wa)?, share(wb)?);
        verdict(
            "failed share",
            format!("{sa}"),
            format!("{sb}"),
            if sa == sb { "identical" } else { "DISAGREE" },
        );
        let (da, db) = (digests(wa), digests(wb));
        let same = !da.is_empty() && da == db;
        verdict(
            "digests",
            format!("{} kernels", da.len()),
            format!("{} kernels", db.len()),
            if same { "identical" } else { "DISAGREE" },
        );
    }
    println!(
        "{}: {disagree} disagreements, {unresolved} unresolved",
        if disagree + unresolved == 0 {
            "the two runs agree"
        } else {
            "the two runs do NOT agree"
        }
    );
    Ok(disagree + unresolved == 0)
}
