//! Running one workload: the estimator and the output checks.
//!
//! Compiles against the facade only — `SimConfig` decode,
//! `Network::{with_topology, step, run, drain}`, `ShardedNetwork`,
//! `run_scenario` and the renderers — so a refactor of `bank`/`plan`/`link`
//! internals can break the probes binary without touching these numbers.
//!
//! *Estimator.* The host drifts (same kernel, same binary: 100k / 70k /
//! 90k cycles/s in three back-to-back sets), so nothing here is a single
//! long timing. A workload runs in **passes**. In a pass every kernel is
//! built, stepped through its warm-up untimed, then timed as [`ROUNDS`]
//! slices of `L` cycles through `Network::step`,
//! the slices interleaved round-robin across the workload's kernels so
//! drift spreads over all of them; `Network::run` then returns the
//! `SimResult` of exactly warm-up + `ROUNDS`·`L` cycles, the same on every
//! pass and every run. Passes repeat until `--seconds` is used up (at
//! least two, so every kernel is rebuilt and its digest compared). A
//! kernel's rate is `L` over the **median** slice time of all its slices;
//! `sim_cycles_per_s` is the geomean over kernels. Whole-run kernels
//! (`ShardedNetwork::run`, the `sweep_points` pipeline) are rebuilt and
//! timed at least three times, median taken. `setup_s` comes from
//! [`SETUPS`] set-up-only rebuilds of every kernel after the passes.

use crate::defs::{self, Kind, WorkloadDef};
use crate::host;
use crate::stats::{geomean, iqr_frac, mean, median};
use crate::trace::Tracer;
use flexvc::bench::scenario::{render_markdown, run_scenario, Scenario};
use flexvc::serde::{to_json, Map, Serialize, Value};
use flexvc::sim::{ConfigError, Network, ShardedNetwork, SimConfig, SimResult};
use flexvc::topology::Topology;
use std::sync::Arc;
use std::time::Instant;

/// Timed slices per kernel per pass (the issue's R >= 9).
pub const ROUNDS: u64 = 9;
/// Fewest fresh whole runs of a sharded or pipeline workload.
pub const MIN_WHOLE_RUNS: usize = 3;
/// Fewest passes of a sliced workload: two, so each kernel is rebuilt once.
pub const MIN_PASSES: usize = 2;
/// Fewest set-up samples per kernel; `setup_s` is built from their medians.
pub const SETUPS: usize = 9;
/// Set-up rounds go on past [`SETUPS`] — a millisecond-scale set-up needs
/// more samples to be steady — until this many, or [`SETUP_ROUNDS_S`].
pub const SETUPS_MAX: usize = 45;
/// Wall-clock budget of the set-up rounds beyond the first [`SETUPS`].
pub const SETUP_ROUNDS_S: f64 = 0.3;
/// Offered-vs-accepted tolerance on sub-saturation kernels.
pub const ACCEPT_TOLERANCE: f64 = 0.03;
/// Worker threads of the pipeline workload (and the most used anywhere).
pub const THREADS: usize = 2;

/// How a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Seed of every simulation in the workload.
    pub seed: u64,
    /// Wall-clock budget of the measured part, seconds.
    pub seconds: f64,
    /// Record spans on alternate passes and derive per-layer metrics.
    pub trace: bool,
    /// One short slice per kernel, checks only.
    pub smoke: bool,
}

/// One kernel: a frozen `[[points]]` entry plus the run's seed.
#[derive(Clone)]
pub struct Kernel {
    /// `series@x` of the point.
    pub name: String,
    /// Full configuration (windows included).
    pub cfg: SimConfig,
    /// Offered load.
    pub load: f64,
    /// Seed.
    pub seed: u64,
}

impl Kernel {
    fn slice_len(&self) -> u64 {
        self.cfg.measure / ROUNDS
    }
}

/// Everything measured about one kernel across passes. Indexed `[0]` =
/// passes with the span recorder off, `[1]` = on.
#[derive(Default)]
pub struct KernelLog {
    /// Set-ups inside passes, cold after another kernel's stepping (the
    /// first is the first build in the process).
    pub pass_setups: SetupLog,
    /// The [`SETUPS`] set-up-only rebuilds after the passes — one steady
    /// population, which is what `setup_s` is built from.
    pub setups: SetupLog,
    /// Warm-up wall seconds, one per pass.
    pub warmup_s: Vec<f64>,
    /// Slice (or whole-run) wall seconds.
    pub timed_s: [Vec<f64>; 2],
    /// Final `run()` aggregation seconds.
    pub aggregate_s: Vec<f64>,
    /// Digest of each pass's result.
    pub digests: Vec<String>,
    /// The (identical) result of the passes.
    pub result: Option<SimResult>,
    /// Kernel runs attempted.
    pub attempted: u64,
    /// Why runs failed, one entry per failed run.
    pub failures: Vec<String>,
    /// Shard statistics of the last sharded run: per-shard work seconds,
    /// the run's wall seconds and the epoch cap.
    pub shard: Option<ShardLog>,
}

/// Seconds of the three set-up calls, one entry per set-up.
#[derive(Default)]
pub struct SetupLog {
    /// `TopologySpec::build`.
    pub topo_s: Vec<f64>,
    /// `SimConfig::validate`.
    pub validate_s: Vec<f64>,
    /// `Network::with_topology` or `ShardedNetwork::with_topology`.
    pub build_s: Vec<f64>,
}

/// What a sharded run reports beyond its result.
pub struct ShardLog {
    /// Per-shard work seconds (barrier waits excluded).
    pub work_s: Vec<f64>,
    /// Wall seconds of the run.
    pub wall_s: f64,
    /// Epoch cap in cycles.
    pub epoch_cycles: u64,
}

impl KernelLog {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn all_timed(&self) -> Vec<f64> {
        self.timed_s.concat()
    }

    /// The set-up samples to report: the set-up-only rebuilds, or the
    /// in-pass ones for a log that has no others (a twin's single pass).
    pub fn setup_samples(&self) -> &SetupLog {
        if self.setups.build_s.is_empty() {
            &self.pass_setups
        } else {
            &self.setups
        }
    }

    /// Seconds of one set-up: topology + validate + engine build, median
    /// of each part over the rebuilds.
    pub fn setup_s(&self) -> f64 {
        let s = self.setup_samples();
        [&s.topo_s, &s.validate_s, &s.build_s]
            .iter()
            .map(|v| if v.is_empty() { 0.0 } else { median(v) })
            .sum()
    }
}

fn kernels_of(scenario: &Scenario) -> Vec<Kernel> {
    scenario
        .points
        .iter()
        .map(|p| Kernel {
            name: format!("{}@{}", p.series, p.x),
            cfg: p.cfg.clone(),
            load: p.load,
            seed: scenario.seeds[0],
        })
        .collect()
}

/// Shrink a kernel to the smoke windows: one short slice per round.
fn smoke_windows(k: &mut Kernel) {
    k.cfg.warmup = k.cfg.warmup.min(20);
    k.cfg.measure = ROUNDS * 2;
    k.cfg.watchdog = k.cfg.watchdog.max(k.cfg.warmup + k.cfg.measure);
}

/// Set one kernel up, timing the three calls: `TopologySpec::build`,
/// `SimConfig::validate` and the engine constructor `build` (recorded
/// under the span `build_span`).
fn set_up<E>(
    tr: &mut Tracer,
    i: usize,
    k: &Kernel,
    times: &mut SetupLog,
    build_span: &'static str,
    build: impl FnOnce(SimConfig, f64, u64, Arc<dyn Topology>) -> Result<E, ConfigError>,
) -> Result<E, String> {
    let s = tr.begin("topology.build", Some(i));
    let topo = k.cfg.topology.build();
    times.topo_s.push(tr.end(s));
    let s = tr.begin("sim.config.validate", Some(i));
    let valid = k.cfg.validate();
    times.validate_s.push(tr.end(s));
    valid.map_err(|e| format!("validate: {e}"))?;
    let s = tr.begin(build_span, Some(i));
    let engine = build(k.cfg.clone(), k.load, k.seed, topo);
    times.build_s.push(tr.end(s));
    engine.map_err(|e| format!("constructor: {e}"))
}

fn set_up_single(
    tr: &mut Tracer,
    i: usize,
    k: &Kernel,
    times: &mut SetupLog,
) -> Result<Network, String> {
    set_up(tr, i, k, times, "sim.engine.build", Network::with_topology)
}

fn set_up_sharded(
    tr: &mut Tracer,
    i: usize,
    k: &Kernel,
    times: &mut SetupLog,
) -> Result<ShardedNetwork, String> {
    set_up(
        tr,
        i,
        k,
        times,
        "sim.shard.build",
        ShardedNetwork::with_topology,
    )
}

/// Checks every result must pass; returns the failure, if any.
fn check_result(def: &WorkloadDef, k: &Kernel, r: &SimResult, smoke: bool) -> Option<String> {
    if r.deadlocked {
        return Some("watchdog flagged a deadlock".into());
    }
    if def.sub_saturation && !smoke && (r.accepted - r.offered).abs() > ACCEPT_TOLERANCE {
        return Some(format!(
            "accepted {:.4} vs offered {:.4} on a sub-saturation kernel ({})",
            r.accepted, r.offered, k.name
        ));
    }
    None
}

/// Record a pass's result: checks, digest, and digest equality with the
/// earlier rebuilds of the same kernel.
fn record_result(def: &WorkloadDef, k: &Kernel, log: &mut KernelLog, r: SimResult, smoke: bool) {
    let digest = defs::digest(&r);
    if let Some(why) = check_result(def, k, &r, smoke) {
        log.fail(why);
    } else if log.digests.first().is_some_and(|d| *d != digest) {
        log.fail(format!(
            "digest {digest} differs from an earlier rebuild's {}",
            log.digests[0]
        ));
    }
    log.digests.push(digest);
    log.result = Some(r);
}

/// One pass over single-engine kernels (see the module docs). Returns the
/// resident set (`VmRSS`, MiB) once every kernel is built and warm.
fn slices_pass(
    def: &WorkloadDef,
    kernels: &[Kernel],
    logs: &mut [KernelLog],
    tr: &mut Tracer,
    smoke: bool,
) -> f64 {
    let traced = tr.enabled() as usize;
    let root = tr.begin("workload.pass", None);
    let mut nets: Vec<Option<Network>> = Vec::with_capacity(kernels.len());
    for (i, k) in kernels.iter().enumerate() {
        logs[i].attempted += 1;
        if !k.cfg.measure.is_multiple_of(ROUNDS) || k.cfg.measure == 0 {
            logs[i].fail(format!("measure window is not {ROUNDS} equal slices"));
            nets.push(None);
            continue;
        }
        let net = set_up_single(tr, i, k, &mut logs[i].pass_setups);
        nets.push(net.map_err(|e| logs[i].fail(e)).ok());
    }
    for (i, k) in kernels.iter().enumerate() {
        let Some(net) = nets[i].as_mut() else {
            continue;
        };
        let s = tr.begin("sim.engine.warmup", Some(i));
        for _ in 0..k.cfg.warmup {
            net.step();
        }
        logs[i].warmup_s.push(tr.end(s));
    }
    let rss_mib = host::vm_mib("VmRSS");
    for _ in 0..ROUNDS {
        for (i, k) in kernels.iter().enumerate() {
            let Some(net) = nets[i].as_mut() else {
                continue;
            };
            let s = tr.begin("sim.engine.slice", Some(i));
            for _ in 0..k.slice_len() {
                net.step();
            }
            logs[i].timed_s[traced].push(tr.end(s));
        }
    }
    for (i, k) in kernels.iter().enumerate() {
        let Some(net) = nets[i].as_mut() else {
            continue;
        };
        let s = tr.begin("sim.metrics.aggregate", Some(i));
        let result = net.run();
        logs[i].aggregate_s.push(tr.end(s));
        let s = tr.begin("report.check", Some(i));
        record_result(def, k, &mut logs[i], result, smoke);
        if def.drain_check && i == 0 {
            let left = net.drain(200_000);
            if left != 0 {
                logs[i].fail(format!("{left} packets left after drain"));
            }
        }
        tr.end(s);
    }
    tr.end(root);
    rss_mib
}

/// One fresh `ShardedNetwork` build and whole run of kernel `i`.
fn sharded_run(
    def: &WorkloadDef,
    i: usize,
    k: &Kernel,
    log: &mut KernelLog,
    tr: &mut Tracer,
    smoke: bool,
) {
    let traced = tr.enabled() as usize;
    let root = tr.begin("workload.pass", None);
    log.attempted += 1;
    let net = set_up_sharded(tr, i, k, &mut log.pass_setups);
    if let Ok(mut net) = net.map_err(|e| log.fail(e)) {
        let s = tr.begin("sim.shard.run", Some(i));
        let result = net.run();
        let wall = tr.end(s);
        log.timed_s[traced].push(wall);
        log.shard = Some(ShardLog {
            work_s: net.shard_stats().iter().map(|s| s.work_seconds).collect(),
            wall_s: wall,
            epoch_cycles: net.epoch_cycles(),
        });
        let s = tr.begin("report.check", Some(i));
        record_result(def, k, log, result, smoke);
        tr.end(s);
    }
    tr.end(root);
}

/// What one pipeline repeat measured.
#[derive(Default)]
pub struct PipelineLog {
    /// Parse + decode seconds per repeat.
    pub parse_s: Vec<f64>,
    /// `Scenario::validate` seconds per repeat.
    pub validate_s: Vec<f64>,
    /// Simulations per repeat.
    pub sims: u64,
    /// Simulated cycles per repeat.
    pub cycles: u64,
    /// Per-point seed-averaged results of the last repeat.
    pub results: Vec<SimResult>,
}

/// The pipeline's set-up, timed: read + parse + decode the scenario file,
/// then `Scenario::validate` — everything up to the first point starting.
fn pipeline_set_up(
    def: &WorkloadDef,
    req: &Request,
    pl: &mut PipelineLog,
    tr: &mut Tracer,
) -> Result<Scenario, String> {
    let s = tr.begin("serde.parse", None);
    let scenario = std::fs::read_to_string(defs::workload_path(def.name))
        .map_err(|e| e.to_string())
        .and_then(|text| defs::decode_scenario(&text, req.seed));
    pl.parse_s.push(tr.end(s));
    let mut scenario = scenario.map_err(|e| format!("parse: {e}"))?;
    if req.smoke {
        for p in &mut scenario.points {
            p.cfg.warmup = 20;
            p.cfg.measure = 20;
        }
    }
    let s = tr.begin("bench.scenario.validate", None);
    let valid = scenario.validate();
    pl.validate_s.push(tr.end(s));
    valid.map_err(|e| format!("validate: {e}"))?;
    Ok(scenario)
}

/// One repeat of the `sweep_points` pipeline: file → parse → validate →
/// `run_scenario` on [`THREADS`] threads → markdown + JSON.
fn pipeline_run(
    def: &WorkloadDef,
    req: &Request,
    log: &mut KernelLog,
    pl: &mut PipelineLog,
    tr: &mut Tracer,
) {
    let traced = tr.enabled() as usize;
    let root = tr.begin("workload.pass", None);
    let scenario = match pipeline_set_up(def, req, pl, tr) {
        Ok(scenario) => scenario,
        Err(e) => {
            log.attempted += 1;
            log.fail(e);
            tr.end(root);
            return;
        }
    };
    pl.sims = scenario.simulation_count() as u64;
    pl.cycles = scenario
        .points
        .iter()
        .map(|p| (p.cfg.warmup + p.cfg.measure) * scenario.seeds.len() as u64)
        .sum();
    log.attempted += pl.sims;
    let s = tr.begin("sim.runner.run_points", None);
    let report = run_scenario(&scenario, THREADS, |_| {});
    tr.end(s);
    match report {
        Err(e) => log.fail(format!("run_scenario: {e}")),
        Ok(report) => {
            let s = tr.begin("bench.scenario.render", None);
            let markdown = render_markdown(&report);
            let json = to_json(&report);
            tr.end(s);
            let s = tr.begin("report.check", None);
            for p in &report.points {
                if p.result.deadlocked {
                    log.fail(format!("{}@{}: watchdog flagged a deadlock", p.series, p.x));
                }
            }
            if !markdown.contains("Accepted load") {
                log.fail("markdown report has no accepted-load grid".into());
            }
            let digest = defs::fnv1a(&json);
            if log.digests.first().is_some_and(|d| *d != digest) {
                log.fail(format!(
                    "report digest {digest} differs from an earlier repeat's"
                ));
            }
            log.digests.push(digest);
            pl.results = report.points.into_iter().map(|p| p.result).collect();
            tr.end(s);
        }
    }
    log.timed_s[traced].push(tr.end(root));
}

/// The outcome of one workload run: everything the reports are built from.
pub struct Outcome {
    /// The workload.
    pub def: &'static WorkloadDef,
    /// The request.
    pub req: Request,
    /// Kernels, in file order.
    pub kernels: Vec<Kernel>,
    /// One log per kernel (the pipeline workload has a single log).
    pub logs: Vec<KernelLog>,
    /// Pipeline measurements (`Kind::Pipeline` only).
    pub pipeline: PipelineLog,
    /// Passes (or whole runs) made.
    pub passes: usize,
    /// Resident set (`VmRSS`) once the single-engine kernels — the
    /// workload's own in its first pass, else the twin — are built and warm.
    pub engine_rss_mib: f64,
    /// Single-engine reference of the first kernel, when the workload
    /// itself does not step one (traced runs only).
    pub single_twin: Option<KernelLog>,
    /// `shards = 2` twin of the first kernel, when the workload itself is
    /// not sharded (traced runs only).
    pub sharded_twin: Option<KernelLog>,
    /// Spans recorded by the workload itself (the twins' come after).
    pub main_spans: usize,
    /// Peak resident set of a fresh process that only builds the first
    /// kernel's sharded engine, over one that builds its single engine
    /// (traced runs only).
    pub shard_rss_ratio: f64,
    /// CPU counters at start, for `host.steal_frac`.
    pub cpu_start: host::CpuTimes,
    /// The recorder with every span of the run.
    pub tracer: Tracer,
    /// Wall seconds of the whole run.
    pub wall_s: f64,
}

/// Rounds of set-up-only rebuilds, every kernel once per round, each engine
/// dropped as soon as it is timed: [`SETUPS`] rounds, then more while they
/// stay within [`SETUP_ROUNDS_S`]. The passes' own set-ups are too few, and
/// each follows a different amount of stepping; these are one steady
/// population.
fn set_up_rounds(
    def: &WorkloadDef,
    req: &Request,
    kernels: &[Kernel],
    logs: &mut [KernelLog],
    pl: &mut PipelineLog,
    tr: &mut Tracer,
) {
    let started = Instant::now();
    for round in 0..SETUPS_MAX {
        if round >= SETUPS && started.elapsed().as_secs_f64() > SETUP_ROUNDS_S {
            break;
        }
        if def.kind == Kind::Pipeline {
            if let Err(e) = pipeline_set_up(def, req, pl, tr) {
                logs[0].fail(e);
            }
            continue;
        }
        for (i, k) in kernels.iter().enumerate() {
            // A kernel that could not be built in a pass has failed there.
            if logs[i].result.is_none() {
                continue;
            }
            let times = &mut logs[i].setups;
            let built = match def.kind {
                Kind::ShardedRuns => set_up_sharded(tr, i, k, times).map(drop),
                _ => set_up_single(tr, i, k, times).map(drop),
            };
            if let Err(e) = built {
                logs[i].fail(e);
            }
        }
    }
}

/// Run a workload.
pub fn run(def: &'static WorkloadDef, req: Request) -> Result<Outcome, String> {
    let cpu_start = host::CpuTimes::now();
    let started = Instant::now();
    let scenario = defs::load_scenario(def.name, req.seed)?;
    let mut kernels = kernels_of(&scenario);
    if kernels.is_empty() {
        return Err(format!("{}: no [[points]]", def.name));
    }
    if req.smoke {
        kernels.iter_mut().for_each(smoke_windows);
    }
    let mut tr = Tracer::new();
    let mut pipeline = PipelineLog::default();
    let mut engine_rss_mib = 0.0;
    let mut logs: Vec<KernelLog> = match def.kind {
        Kind::Pipeline => vec![KernelLog::default()],
        _ => kernels.iter().map(|_| KernelLog::default()).collect(),
    };
    let min_passes = if def.kind == Kind::Slices || req.smoke {
        MIN_PASSES
    } else {
        MIN_WHOLE_RUNS
    };
    let mut passes = 0usize;
    loop {
        // A traced run records spans on every second pass, so recorder-off
        // and recorder-on passes alternate, drift hits both alike, and
        // each off pass has an on pass of identical work to pair with.
        tr.set_enabled(req.trace && passes % 2 == 1);
        passes += 1;
        let t0 = Instant::now();
        match def.kind {
            Kind::Slices => {
                let rss_mib = slices_pass(def, &kernels, &mut logs, &mut tr, req.smoke);
                if passes == 1 {
                    engine_rss_mib = rss_mib;
                }
            }
            Kind::ShardedRuns => {
                for (i, k) in kernels.iter().enumerate() {
                    sharded_run(def, i, k, &mut logs[i], &mut tr, req.smoke);
                }
            }
            Kind::Pipeline => pipeline_run(def, &req, &mut logs[0], &mut pipeline, &mut tr),
        }
        let paired = !req.trace || passes.is_multiple_of(2);
        let spent = started.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() / 2.0;
        if passes >= min_passes && paired && (req.smoke || spent >= req.seconds) {
            break;
        }
    }
    if !req.smoke {
        tr.set_enabled(req.trace);
        set_up_rounds(def, &req, &kernels, &mut logs, &mut pipeline, &mut tr);
    }
    // Traced runs measure the first kernel through the engine the
    // workload itself does not use, so `sim.engine.*` and `sim.shard.*`
    // are reported for every workload — and the two engines' digests are
    // compared on every workload, not only `paper_h8_s2`.
    let main_spans = tr.spans().len();
    let (mut single_twin, mut sharded_twin) = (None, None);
    if req.trace && !req.smoke {
        tr.set_enabled(true);
        let mut first = kernels[0].clone();
        // The pipeline's points have free-form windows; give the twins the
        // sliced shape.
        first.cfg.measure -= first.cfg.measure % ROUNDS;
        if def.kind != Kind::Slices {
            first.cfg.shards = 1;
            let mut log = [KernelLog::default()];
            engine_rss_mib =
                slices_pass(def, std::slice::from_ref(&first), &mut log, &mut tr, true);
            let [log] = log;
            single_twin = Some(log);
        }
        if def.kind != Kind::ShardedRuns {
            first.cfg.shards = THREADS;
            let mut log = KernelLog::default();
            sharded_run(def, 0, &first, &mut log, &mut tr, true);
            sharded_twin = Some(log);
        }
        let digest_of =
            |log: &Option<KernelLog>| log.as_ref().and_then(|l| l.digests.first().cloned());
        let reference = match def.kind {
            Kind::Pipeline => digest_of(&single_twin),
            _ => logs[0].digests.first().cloned(),
        };
        for (engine, twin) in [("single", &single_twin), ("sharded", &sharded_twin)] {
            if let (Some(d), Some(r)) = (digest_of(twin), &reference) {
                if d != *r {
                    logs[0].fail(format!("{engine}-engine twin digest {d} differs from {r}"));
                }
            }
            if let Some(f) = twin.as_ref().and_then(|l| l.failures.first()) {
                logs[0].fail(format!("{engine}-engine twin: {f}"));
            }
        }
    }
    // Memory of the two engines, each in a process of its own: inside this
    // one the allocator reuses what earlier passes freed, so resident-set
    // deltas around a build read low or zero.
    let shard_rss_ratio = if req.trace && !req.smoke {
        build_only_child(def, req.seed, true)? / build_only_child(def, req.seed, false)?
    } else {
        0.0
    };
    Ok(Outcome {
        def,
        req,
        kernels,
        logs,
        pipeline,
        passes,
        engine_rss_mib,
        single_twin,
        sharded_twin,
        main_spans,
        shard_rss_ratio,
        cpu_start,
        tracer: tr,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Build the first kernel's engine (sharded or single) and nothing else;
/// returns this process's peak resident set in MiB. The body of the hidden
/// `--build-only` mode.
pub fn build_only(def: &WorkloadDef, seed: u64, sharded: bool) -> Result<f64, String> {
    let scenario = defs::load_scenario(def.name, seed)?;
    let p = scenario.points.first().ok_or("no [[points]]")?;
    let mut cfg = p.cfg.clone();
    cfg.shards = if sharded { THREADS } else { 1 };
    let topo = cfg.topology.build();
    if sharded {
        let net =
            ShardedNetwork::with_topology(cfg, p.load, seed, topo).map_err(|e| e.to_string())?;
        std::hint::black_box(&net);
    } else {
        let net = Network::with_topology(cfg, p.load, seed, topo).map_err(|e| e.to_string())?;
        std::hint::black_box(&net);
    }
    Ok(host::vm_mib("VmHWM"))
}

/// Run [`build_only`] in a child process and read the figure it prints.
fn build_only_child(def: &WorkloadDef, seed: u64, sharded: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", def.name, "--seed", &seed.to_string()])
        .args(["--build-only", if sharded { "sharded" } else { "single" }])
        .output()
        .map_err(|e| format!("build-only child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mib) if out.status.success() && mib > 0.0 => Ok(mib),
        _ => Err(format!(
            "build-only child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

impl Outcome {
    /// Operations attempted (one operation = one kernel run).
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum::<u64>().max(1)
    }

    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.failures.len() as u64)
            .sum::<u64>()
            .min(self.attempted())
    }

    /// Name of log `i`: its kernel, or the workload for the pipeline's
    /// single log.
    fn log_name(&self, i: usize) -> &str {
        match self.def.kind {
            Kind::Pipeline => self.def.name,
            _ => &self.kernels[i].name,
        }
    }

    /// Simulated cycles behind one timed sample of log `i`: a slice, a
    /// whole sharded run, or the whole pipeline.
    fn sample_cycles(&self, i: usize) -> u64 {
        let k = &self.kernels[i];
        match self.def.kind {
            Kind::Slices => k.slice_len(),
            Kind::ShardedRuns => k.cfg.warmup + k.cfg.measure,
            Kind::Pipeline => self.pipeline.cycles,
        }
    }

    /// Every failure message, prefixed with its kernel.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, log) in self.logs.iter().enumerate() {
            out.extend(
                log.failures
                    .iter()
                    .map(|f| format!("{}: {f}", self.log_name(i))),
            );
        }
        out
    }

    /// Per-kernel simulated cycles per host second; kernels that never
    /// ran are left out.
    fn rates(&self) -> Vec<f64> {
        self.logs
            .iter()
            .enumerate()
            .filter(|(_, log)| !log.all_timed().is_empty())
            .map(|(i, log)| self.sample_cycles(i) as f64 / median(&log.all_timed()))
            .collect()
    }

    /// The results the simulated metrics are computed over.
    fn results(&self) -> Vec<&SimResult> {
        match self.def.kind {
            Kind::Pipeline => self.pipeline.results.iter().collect(),
            _ => self.logs.iter().filter_map(|l| l.result.as_ref()).collect(),
        }
    }

    /// `setup_s`: sum over kernels of the median set-up; for the pipeline,
    /// parse + validate up to the first point starting.
    pub fn setup_s(&self) -> f64 {
        match self.def.kind {
            Kind::Pipeline if !self.pipeline.validate_s.is_empty() => {
                median(&self.pipeline.parse_s) + median(&self.pipeline.validate_s)
            }
            Kind::Pipeline => 0.0,
            _ => self.logs.iter().map(KernelLog::setup_s).sum(),
        }
    }

    /// Largest quartile spread of any kernel's timed samples, as a share
    /// of their median (`sim.engine.slice_iqr_frac`).
    pub fn slice_iqr_frac(&self) -> f64 {
        self.logs
            .iter()
            .map(|l| iqr_frac(&l.all_timed()))
            .fold(0.0, f64::max)
    }

    /// The six end-to-end metrics, `None` when no kernel produced a result.
    pub fn end_to_end(&self) -> Option<Vec<(&'static str, f64)>> {
        let rates = self.rates();
        let results = self.results();
        if rates.is_empty() || results.is_empty() {
            return None;
        }
        let of = |f: &dyn Fn(&SimResult) -> f64| results.iter().map(|r| f(r)).collect::<Vec<_>>();
        Some(vec![
            ("sim_cycles_per_s", geomean(&rates)),
            ("setup_s", self.setup_s()),
            ("peak_rss_mb", host::vm_mib("VmHWM")),
            ("accepted_load", mean(&of(&|r| r.accepted))),
            ("latency_cycles", geomean(&of(&|r| r.latency))),
            ("latency_p99_cycles", geomean(&of(&defs::p99))),
        ])
    }

    /// `1 - traced / untraced` rate (0 when the run was not traced). Pass
    /// `2m` (recorder off) and pass `2m + 1` (on) simulate the same cycles,
    /// so their samples pair up one to one on identical work: the figure
    /// is the median over pairs of the time ratio, geomean over kernels.
    pub fn trace_overhead_frac(&self) -> f64 {
        let ratios: Vec<f64> = self
            .logs
            .iter()
            .filter_map(|l| {
                let pairs: Vec<f64> = l.timed_s[0]
                    .iter()
                    .zip(&l.timed_s[1])
                    .map(|(off, on)| on / off)
                    .collect();
                (!pairs.is_empty()).then(|| median(&pairs))
            })
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            1.0 - 1.0 / geomean(&ratios)
        }
    }

    /// Per-kernel rows of the result file: digest, R·passes, L, rate,
    /// spread and the simulated statistics.
    pub fn kernel_rows(&self) -> Vec<KernelRow> {
        self.logs
            .iter()
            .enumerate()
            .map(|(i, log)| {
                let timed = log.all_timed();
                let cycles = self.sample_cycles(i);
                KernelRow {
                    name: self.log_name(i).to_string(),
                    digest: log.digests.first().cloned(),
                    samples: timed.len() as u64,
                    cycles_per_sample: cycles,
                    cycles_per_s: (!timed.is_empty()).then(|| cycles as f64 / median(&timed)),
                    sample_iqr_frac: iqr_frac(&timed),
                    sim: log
                        .result
                        .as_ref()
                        .map(|r| (r.accepted, r.latency, defs::p99(r))),
                    setup_s: Some(log.setup_s()).filter(|s| *s > 0.0),
                }
            })
            .collect()
    }
}

/// One kernel's line in a report.
pub struct KernelRow {
    /// Kernel (or, for the pipeline, workload) name.
    pub name: String,
    /// Digest of its result; `None` if it never produced one.
    pub digest: Option<String>,
    /// Timed samples taken (R x passes for a sliced kernel).
    pub samples: u64,
    /// Simulated cycles per sample (L for a sliced kernel).
    pub cycles_per_sample: u64,
    /// Cycles per sample over the median sample time.
    pub cycles_per_s: Option<f64>,
    /// Quartile spread of the samples as a share of their median.
    pub sample_iqr_frac: f64,
    /// Accepted load, mean latency and p99 latency of its result.
    pub sim: Option<(f64, f64, f64)>,
    /// Median set-up seconds (kernels only).
    pub setup_s: Option<f64>,
}

impl Serialize for KernelRow {
    fn to_value(&self) -> Value {
        let (accepted, latency, p99) = match self.sim {
            Some((a, l, p)) => (Some(a), Some(l), Some(p)),
            None => (None, None, None),
        };
        Value::Map(
            Map::new()
                .with("name", self.name.to_value())
                .with("digest", self.digest.to_value())
                .with("samples", self.samples.to_value())
                .with("cycles_per_sample", self.cycles_per_sample.to_value())
                .with("cycles_per_s", self.cycles_per_s.to_value())
                .with("sample_iqr_frac", self.sample_iqr_frac.to_value())
                .with("accepted", accepted.to_value())
                .with("latency", latency.to_value())
                .with("latency_p99", p99.to_value())
                .with("setup_s", self.setup_s.to_value()),
        )
    }
}
