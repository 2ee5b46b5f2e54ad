//! End-to-end smoke tests of the `flexvc` CLI binary: list, show, run (at
//! test scale), run from a TOML file, and structured JSON/CSV output.

use flexvc_bench::scenario::CATALOGUE;
use std::process::{Command, Stdio};

fn flexvc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexvc"))
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("spawn flexvc");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "flexvc failed ({:?}):\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    (stdout, stderr)
}

/// `list` prints every catalogue entry, in catalogue order.
#[test]
fn list_names_all_scenarios() {
    let (stdout, _) = run_ok(flexvc().arg("list"));
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
    assert_eq!(listed, names, "{stdout}");
}

/// A reader that closes stdout early ends the command quietly with
/// success, and a run writes its `--out` results before it prints.
#[test]
fn closed_stdout_ends_quietly_after_writing_results() {
    let out = std::env::temp_dir().join(format!("flexvc-pipe-{}.json", std::process::id()));
    let mut run = flexvc();
    run.args(["run", "smoke", "--quiet", "--out"]).arg(&out);
    let mut show = flexvc();
    show.args(["show", "fig5"]);
    for cmd in [&mut run, &mut show] {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn flexvc");
        drop(child.stdout.take());
        let done = child.wait_with_output().expect("wait for flexvc");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(done.status.success(), "{:?}: {stderr}", done.status);
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let json = std::fs::read_to_string(&out).expect("results file");
    std::fs::remove_file(&out).ok();
    assert!(json.contains("\"accepted\""), "{json}");
}

/// `--shards` is purely a speed knob: the structured results of a sharded
/// run are byte-identical to the single-engine run.
#[test]
fn run_with_shards_flag_is_bit_identical() {
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for shards in ["1", "2"] {
        let path = dir.join(format!("flexvc-shards{shards}-{}.json", std::process::id()));
        run_ok(
            flexvc()
                .args(["run", "smoke", "--quiet", "--shards", shards, "--out"])
                .arg(&path),
        );
        let json = std::fs::read_to_string(&path).expect("results file");
        std::fs::remove_file(&path).ok();
        outputs.push(json);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "sharded results must be bit-identical to the single engine"
    );
}

/// More shards than routers is a configuration error (every shard must own
/// at least one router) and must fail with the typed message, not panic.
#[test]
fn shards_exceeding_router_count_fail_loudly() {
    let out = flexvc()
        .args(["run", "smoke", "--quiet", "--shards", "999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("exceed the topology's"),
        "expected the ShardsExceedRouters message, got:\n{stderr}"
    );
}

/// Run a scenario at reduced windows and return every series' values in
/// the named CSV columns at sweep column `x`, keyed by series label —
/// one CLI invocation regardless of how many columns are read.
fn columns_at(
    scenario: &str,
    x: &str,
    warmup: &str,
    measure: &str,
    columns: &[&str],
) -> Vec<(String, Vec<f64>)> {
    let csv_path = std::env::temp_dir().join(format!(
        "flexvc-{scenario}-{x}-{}-{}.csv",
        columns.join("-"),
        std::process::id()
    ));
    let (_, _) = run_ok(
        flexvc()
            .args([
                "run",
                scenario,
                "--quiet",
                "--seeds",
                "1",
                "--warmup",
                warmup,
                "--measure",
                measure,
                "--format",
                "csv",
                "--out",
            ])
            .arg(&csv_path),
    );
    let csv = std::fs::read_to_string(&csv_path).expect("csv output");
    std::fs::remove_file(&csv_path).ok();
    let header = csv.lines().next().expect("csv header");
    let col = |name: &str| {
        header
            .split(',')
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no {name} column in header: {header}"))
    };
    let (series_col, x_col) = (col("series"), col("x"));
    let value_cols: Vec<usize> = columns.iter().map(|c| col(c)).collect();
    let mut out = Vec::new();
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        if cols[x_col].trim_matches('"') != x {
            continue;
        }
        let values: Vec<f64> = value_cols
            .iter()
            .map(|&i| {
                cols[i]
                    .parse()
                    .unwrap_or_else(|_| panic!("bad row: {line}"))
            })
            .collect();
        out.push((cols[series_col].trim_matches('"').to_string(), values));
    }
    assert!(!out.is_empty(), "no rows at x = {x} in:\n{csv}");
    out
}

/// Single-column form of [`columns_at`].
fn column_at(
    scenario: &str,
    x: &str,
    warmup: &str,
    measure: &str,
    column: &str,
) -> Vec<(String, f64)> {
    columns_at(scenario, x, warmup, measure, &[column])
        .into_iter()
        .map(|(s, v)| (s, v[0]))
        .collect()
}

/// Run a scenario at reduced windows and return every series' accepted
/// load at column `x` from the CSV output, keyed by series label.
fn accepted_at(scenario: &str, x: &str, warmup: &str, measure: &str) -> Vec<(String, f64)> {
    column_at(scenario, x, warmup, measure, "accepted")
}

fn series_accepted(rows: &[(String, f64)], needle: &str) -> f64 {
    rows.iter()
        .find(|(s, _)| s.contains(needle))
        .unwrap_or_else(|| panic!("no series containing `{needle}` in {rows:?}"))
        .1
}

/// Acceptance: UGAL beats MIN accepted load at saturation under ADV+1 on
/// the 3-D HyperX — the source-adaptive credit comparison must divert
/// enough traffic off the funneled last-dimension links to outperform pure
/// minimal routing, with the board-fed UGAL-G ahead of UGAL-L.
#[test]
fn run_hyperx_adv_3d_ugal_beats_min_at_saturation() {
    let rows = accepted_at("hyperx-adv-3d", "1.00", "2000", "4000");
    let min = series_accepted(&rows, "MIN 6VCs");
    let ugal_l = series_accepted(&rows, "UGAL-L 6VCs");
    let ugal_g = series_accepted(&rows, "UGAL-G 6VCs");
    assert!(
        ugal_l > min,
        "UGAL-L {ugal_l:.4} must beat MIN {min:.4} at ADV saturation"
    );
    assert!(
        ugal_g > min * 1.02,
        "UGAL-G {ugal_g:.4} must clearly beat MIN {min:.4} at ADV saturation"
    );
}

/// Acceptance: DAL matches or beats whole-path Valiant at saturation under
/// ADV+1 on the 2-D HyperX at the same VC budget — per-dimension misroutes
/// recover Valiant's load balancing with shorter average detours.
#[test]
fn run_hyperx_adv_2d_dal_matches_or_beats_valiant() {
    let rows = accepted_at("hyperx-adv-2d", "1.00", "2000", "4000");
    let val = series_accepted(&rows, "FlexVC 4VCs");
    let dal = series_accepted(&rows, "DAL 4VCs");
    assert!(
        dal >= val * 0.98,
        "DAL {dal:.4} must match or beat whole-path Valiant {val:.4} at ADV saturation"
    );
}

/// Satellite: adaptive `k = 2` copy selection is no worse than the
/// endpoint hash under UN and strictly better under ADV+1 (the hash pins
/// each router pair's traffic to one copy, wasting half the doubled
/// bisection exactly when it is needed).
#[test]
fn run_hyperx_k2_adaptive_copies_beat_hash_under_adv() {
    let rows = accepted_at("hyperx-k2", "1.00", "2000", "4000");
    let un_hash = series_accepted(&rows, "UN/hash copies");
    let un_adaptive = series_accepted(&rows, "UN/adaptive copies");
    let adv_hash = series_accepted(&rows, "ADV/hash copies");
    let adv_adaptive = series_accepted(&rows, "ADV/adaptive copies");
    assert!(
        un_adaptive >= un_hash * 0.98,
        "adaptive {un_adaptive:.4} must not lose to hash {un_hash:.4} under UN"
    );
    assert!(
        adv_adaptive > adv_hash * 1.02,
        "adaptive {adv_adaptive:.4} must clearly beat hash {adv_hash:.4} under ADV"
    );
}

/// Acceptance (Dragonfly+ tentpole): `flexvc run dfplus-un` completes
/// end-to-end and at saturation every FlexVC series matches or beats the
/// baseline policy's accepted load — including the equal-budget 2/1
/// series, the pure policy benefit on the new family.
#[test]
fn run_dfplus_un_flexvc_matches_or_beats_baseline() {
    let rows = accepted_at("dfplus-un", "1.00", "2000", "4000");
    let baseline = series_accepted(&rows, "Baseline");
    // A saturated network cannot accept its full offered load; a value at
    // 1.0 would mean we read the wrong column.
    assert!(
        (0.05..0.999).contains(&baseline),
        "implausible baseline accepted load {baseline}"
    );
    let flexvc: Vec<&(String, f64)> = rows.iter().filter(|(s, _)| s.contains("FlexVC")).collect();
    assert!(!flexvc.is_empty(), "no FlexVC series in {rows:?}");
    for (series, accepted) in flexvc {
        assert!(
            *accepted >= baseline * 0.98,
            "{series} accepted {accepted:.4} at saturation, below baseline {baseline:.4}"
        );
    }
}

/// Acceptance: UGAL beats MIN accepted load at saturation under ADV+1 on
/// the Dragonfly+ — the source-adaptive comparison must divert enough
/// traffic off the single funneled inter-group link, with the board-fed
/// UGAL-G clearly ahead of pure minimal routing.
#[test]
fn run_dfplus_adv_ugal_beats_min_at_saturation() {
    let rows = accepted_at("dfplus-adv", "1.00", "2000", "4000");
    let min = series_accepted(&rows, "MIN 4/2VCs");
    let ugal_l = series_accepted(&rows, "UGAL-L 4/2VCs");
    let ugal_g = series_accepted(&rows, "UGAL-G 4/2VCs");
    assert!(
        ugal_l > min,
        "UGAL-L {ugal_l:.4} must beat MIN {min:.4} at ADV saturation"
    );
    assert!(
        ugal_g > min * 1.02,
        "UGAL-G {ugal_g:.4} must clearly beat MIN {min:.4} at ADV saturation"
    );
}

/// Acceptance (flow-workload tentpole): `flexvc run flows-un` completes
/// end-to-end reporting per-flow completion times, and past the knee of
/// the latency curve (offered load 0.70) the equal-VC-budget FlexVC
/// series matches or beats the baseline policy's p99 FCT on both
/// families — strictly better on the HyperX, where the shared pool
/// relieves the head-of-line blocking that elephant trains create in a
/// fixed VC assignment. Deterministic at fixed seed and windows.
///
/// The quantiles are bucket-interpolated (PR 8), so the Dragonfly
/// comparison — where before both series quantized to the *same*
/// power-of-two bucket and the assertion compared 2048 against 2048 —
/// now resolves sub-bucket differences. "Matches" therefore carries a
/// small noise allowance; the HyperX claim stays strictly better.
#[test]
fn run_flows_un_flexvc_matches_or_beats_baseline_p99_fct() {
    let rows = column_at("flows-un", "0.70", "2000", "4000", "fct_p99");
    let df_base = series_accepted(&rows, "DF Baseline");
    let df_flex = series_accepted(&rows, "DF FlexVC 2/1VCs");
    let hx_base = series_accepted(&rows, "HX Baseline");
    let hx_flex = series_accepted(&rows, "HX FlexVC 2VCs");
    // A plausible p99 falls inside the recorded latency range, not at
    // zero (zero would mean no flows completed in the window — the wrong
    // column or a broken flow layer).
    for (label, v) in &rows {
        assert!(*v > 0.0, "{label}: implausible p99 FCT {v}");
    }
    assert!(
        df_flex <= df_base * 1.02,
        "DF FlexVC p99 FCT {df_flex} must match baseline {df_base} within noise at equal VC budget"
    );
    assert!(
        hx_flex < hx_base,
        "HX FlexVC p99 FCT {hx_flex} must beat baseline {hx_base} at equal VC budget"
    );
}

/// Acceptance: UGAL-G tracks Piggyback within noise on the Dragonfly
/// fig5 ADV point — both choose MIN-vs-VAL at injection from the same
/// boards and credits; the weighted comparison must not change the
/// outcome materially.
#[test]
fn ugal_g_tracks_piggyback_on_dragonfly_adv() {
    let scenario = r#"
name = "ugal-vs-pb"
title = "Dragonfly ADV: UGAL-G vs PB"
description = "acceptance"
seeds = [1]

[[points]]
series = "PB"
x = "0.5"
load = 0.5

[points.cfg]
routing = "piggyback"
warmup = 2000
measure = 4000
watchdog = 6000

[points.cfg.workload]
pattern = "adv+1"

[[points]]
series = "UGAL-G"
x = "0.5"
load = 0.5

[points.cfg]
routing = "ugal_g"
warmup = 2000
measure = 4000
watchdog = 6000

[points.cfg.workload]
pattern = "adv+1"
"#;
    let dir = std::env::temp_dir();
    let toml_path = dir.join(format!("flexvc-ugalpb-{}.toml", std::process::id()));
    let csv_path = dir.join(format!("flexvc-ugalpb-{}.csv", std::process::id()));
    std::fs::write(&toml_path, scenario).expect("write scenario");
    run_ok(
        flexvc()
            .args(["run", "--quiet", "--file"])
            .arg(&toml_path)
            .arg("--out")
            .arg(&csv_path),
    );
    let csv = std::fs::read_to_string(&csv_path).expect("csv output");
    std::fs::remove_file(&toml_path).ok();
    std::fs::remove_file(&csv_path).ok();
    let accepted = |needle: &str| -> f64 {
        csv.lines()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("no {needle} row in:\n{csv}"))
            .split(',')
            .nth(5)
            .expect("accepted column")
            .parse()
            .expect("accepted value")
    };
    let pb = accepted("PB");
    let ugal = accepted("UGAL-G");
    assert!(
        (0.9..=1.1).contains(&(ugal / pb)),
        "UGAL-G {ugal:.4} must be within 10% of PB {pb:.4} on the Dragonfly ADV point"
    );
}

/// The headline acceptance check for the HyperX family: `flexvc run
/// hyperx-un-3d` completes end-to-end, and at saturation (offered load
/// 1.00) every FlexVC series matches or beats the baseline policy's
/// accepted load — the paper's qualitative claim on a topology the seed
/// never modeled. Run at a reduced window via the scale flags; results are
/// deterministic for fixed seeds.
#[test]
fn run_hyperx_un_3d_flexvc_matches_or_beats_baseline() {
    let csv_path = std::env::temp_dir().join(format!("flexvc-hyperx-{}.csv", std::process::id()));
    let (stdout, _) = run_ok(
        flexvc()
            .args([
                "run",
                "hyperx-un-3d",
                "--quiet",
                "--seeds",
                "1",
                "--warmup",
                "2000",
                "--measure",
                "4000",
                "--format",
                "csv",
                "--out",
            ])
            .arg(&csv_path),
    );
    assert!(stdout.contains("Accepted load"), "{stdout}");
    let csv = std::fs::read_to_string(&csv_path).expect("csv output");
    std::fs::remove_file(&csv_path).ok();
    // Locate the columns from the header (not hard-coded indices) and
    // pick each series' accepted value at the saturation column
    // (load 1.00).
    let header = csv.lines().next().expect("csv header");
    let col = |name: &str| {
        header
            .split(',')
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no {name} column in header: {header}"))
    };
    let (series_col, x_col, accepted_col) = (col("series"), col("x"), col("accepted"));
    let mut baseline = None;
    let mut flexvc: Vec<(String, f64)> = Vec::new();
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        let (series, x) = (
            cols[series_col].trim_matches('"'),
            cols[x_col].trim_matches('"'),
        );
        if x != "1.00" {
            continue;
        }
        let accepted: f64 = cols[accepted_col]
            .parse()
            .unwrap_or_else(|_| panic!("bad row: {line}"));
        // A saturated 54-node network cannot accept its full offered
        // load; a value at 1.0 would mean we read the wrong column.
        assert!(
            (0.05..0.999).contains(&accepted),
            "implausible accepted load {accepted} in: {line}"
        );
        if series.contains("Baseline") {
            baseline = Some(accepted);
        } else if series.contains("FlexVC") {
            flexvc.push((series.to_string(), accepted));
        }
    }
    let baseline = baseline.expect("baseline saturation point present");
    assert!(!flexvc.is_empty(), "no FlexVC series in:\n{csv}");
    for (series, accepted) in flexvc {
        assert!(
            accepted >= baseline * 0.98,
            "{series} accepted {accepted:.4} at saturation, below baseline {baseline:.4}"
        );
    }
}

/// Acceptance (QoS tentpole): `flexvc run qos-dragonfly` completes
/// end-to-end with per-class CSV columns, and at saturation the
/// strict-priority control plane's p99 latency stays under half the
/// single-class p99 at the *equal* total 4/2 VC budget. The single-class
/// series tags every packet Bulk, so its tail lives in `bulk_p99`; all
/// tails are interpolated from the class histograms, so the comparison
/// resolves below the power-of-two buckets.
#[test]
fn run_qos_dragonfly_control_tail_beats_single_class() {
    let rows = columns_at(
        "qos-dragonfly",
        "1.00",
        "2000",
        "4000",
        &["control_accepted", "control_p99", "bulk_p99"],
    );
    let series = |needle: &str| -> &Vec<f64> {
        &rows
            .iter()
            .find(|(s, _)| s.contains(needle))
            .unwrap_or_else(|| panic!("no series containing `{needle}` in {rows:?}"))
            .1
    };
    let single = series("Single");
    let fifo = series("FIFO");
    let qos = series("QoS");
    // The single-class reference has no control packets; its whole
    // distribution is the Bulk class.
    assert_eq!(single[0], 0.0, "single-class run delivered control traffic");
    let single_p99 = single[2];
    assert!(
        single_p99 > 100.0,
        "implausible single-class p99 {single_p99} at saturation"
    );
    // Both mixed runs deliver control traffic.
    for (label, row) in [("FIFO", fifo), ("QoS", qos)] {
        assert!(
            row[0] > 0.0,
            "{label}: no control traffic delivered at saturation"
        );
    }
    let (fifo_ctrl, qos_ctrl) = (fifo[1], qos[1]);
    assert!(
        qos_ctrl <= 0.5 * single_p99,
        "QoS control p99 {qos_ctrl:.0} not under half the single-class p99 {single_p99:.0} \
         at the equal total VC budget"
    );
    assert!(
        qos_ctrl < fifo_ctrl,
        "QoS control p99 {qos_ctrl:.0} not below the FIFO mixed control p99 {fifo_ctrl:.0}"
    );
}

/// Satellite: `flexvc run qos-hyperx` — the dynamic-allocation variant —
/// completes with both the hard-partitioned and repartitioned series
/// delivering traffic of both classes (no deadlock, no starvation) and
/// both control tails at or below their bulk tails at saturation.
#[test]
fn run_qos_hyperx_both_allocation_modes_stay_live() {
    let rows = columns_at(
        "qos-hyperx",
        "1.00",
        "1000",
        "2000",
        &[
            "control_accepted",
            "bulk_accepted",
            "control_p99",
            "bulk_p99",
        ],
    );
    for needle in ["QoS 2+2VCs", "QoS dyn"] {
        let row = &rows
            .iter()
            .find(|(s, _)| s.contains(needle))
            .unwrap_or_else(|| panic!("no series containing `{needle}` in {rows:?}"))
            .1;
        assert!(row[0] > 0.0, "{needle}: no control traffic delivered");
        assert!(row[1] > 0.0, "{needle}: bulk starved under priority");
        assert!(
            row[2] <= row[3],
            "{needle}: control p99 {:.0} above bulk p99 {:.0} under priority",
            row[2],
            row[3]
        );
    }
}

#[test]
fn run_smoke_reports_progress_and_results() {
    let tmp = std::env::temp_dir().join(format!("flexvc-smoke-{}.json", std::process::id()));
    let (stdout, stderr) = run_ok(
        flexvc()
            .args(["run", "smoke", "--threads", "2", "--out"])
            .arg(&tmp),
    );
    // Markdown summary on stdout.
    assert!(stdout.contains("Accepted load"), "{stdout}");
    assert!(stdout.contains("FlexVC 4/2"), "{stdout}");
    // Streaming per-point progress on stderr.
    assert!(stderr.contains("[smoke 4/4]"), "{stderr}");
    // Structured JSON results on disk.
    let json = std::fs::read_to_string(&tmp).expect("results file");
    std::fs::remove_file(&tmp).ok();
    assert!(json.contains("\"accepted\""), "{json}");
    assert!(json.contains("\"series\": \"Baseline\""), "{json}");
}

#[test]
fn run_from_toml_file_without_writing_rust() {
    // A scenario authored as pure data: two tiny points, sparse config
    // (defaults fill the rest).
    let scenario = r#"
name = "custom-cli-test"
title = "Custom scenario from TOML"
description = "CLI smoke test"
seeds = [7]

[[points]]
series = "MIN baseline"
x = "0.3"
load = 0.3

[points.cfg]
warmup = 200
measure = 400
watchdog = 2000

[[points]]
series = "FlexVC"
x = "0.3"
load = 0.3

[points.cfg]
policy = "flexvc"
arrangement = "L G L G L"
warmup = 200
measure = 400
watchdog = 2000
"#;
    let dir = std::env::temp_dir();
    let toml_path = dir.join(format!("flexvc-custom-{}.toml", std::process::id()));
    let csv_path = dir.join(format!("flexvc-custom-{}.csv", std::process::id()));
    std::fs::write(&toml_path, scenario).expect("write scenario");
    let (stdout, _) = run_ok(
        flexvc()
            .args(["run", "--quiet", "--file"])
            .arg(&toml_path)
            .arg("--out")
            .arg(&csv_path),
    );
    assert!(stdout.contains("Custom scenario from TOML"), "{stdout}");
    let csv = std::fs::read_to_string(&csv_path).expect("csv output");
    std::fs::remove_file(&toml_path).ok();
    std::fs::remove_file(&csv_path).ok();
    assert_eq!(csv.lines().count(), 3, "header + 2 points:\n{csv}");
    assert!(csv.starts_with("scenario,series,x,load,"), "{csv}");
    assert!(csv.contains("custom-cli-test,FlexVC"), "{csv}");
}

#[test]
fn show_round_trips_through_run() {
    // `show smoke` must emit TOML that `run --file` accepts verbatim.
    let (toml, _) = run_ok(flexvc().args(["show", "smoke"]));
    assert!(toml.contains("name = \"smoke\""), "{toml}");
    let path = std::env::temp_dir().join(format!("flexvc-show-{}.toml", std::process::id()));
    std::fs::write(&path, &toml).expect("write shown scenario");
    let (stdout, _) = run_ok(flexvc().args(["run", "--quiet", "--file"]).arg(&path));
    std::fs::remove_file(&path).ok();
    assert!(stdout.contains("Accepted load"), "{stdout}");
}

#[test]
fn bad_input_fails_with_usage_errors() {
    let out = flexvc().args(["run", "no-such-scenario"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
    assert!(stderr.contains("fig5"), "lists available names: {stderr}");

    let out = flexvc().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    let out = flexvc().args(["run"]).output().unwrap();
    assert!(!out.status.success());

    // There is no `bench` command, and a flag the subcommand does not
    // read is a usage error before anything runs — not a silent no-op.
    for (args, needle) in [
        (&["bench"][..], "unknown command `bench`"),
        (
            &["run", "smoke", "--quick"],
            "unknown option `--quick` for `run`",
        ),
        (
            &["run", "smoke", "--baseline", "x"],
            "unknown option `--baseline` for `run`",
        ),
        (
            &["show", "smoke", "--out", "x.json"],
            "unknown option `--out` for `show`",
        ),
    ] {
        let out = flexvc().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }

    // A scenario file the engine cannot run is rejected with its error,
    // not a panic: an offered load outside [0, 1] and zero injection VCs
    // once reached the generators' assertion and a division by zero; a
    // DAMQ reservation above the port memory, a burst shorter than one
    // packet and a control fraction above one reached the bank's and the
    // generators' assertions; a NaN Pareto tail index and an infinite mean
    // burst ran workloads that emitted no traffic at all, a per-port
    // budget below one packet per VC ran on silently grown buffers,
    // buffer totals past 32 bits overflowed building the engine, a
    // latency of four billion cycles aborted allocating its timing wheels,
    // a speedup of four billion ran as many allocator rounds a cycle, and
    // shapes of billions of routers overflowed counting their nodes.
    for (i, (load, cfg, needle)) in [
        ("1.5", "", "offered load 1.5 is outside [0, 1]"),
        ("-0.1", "", "offered load -0.1 is outside [0, 1]"),
        ("0.3", "injection_vcs = 0", "injection_vcs must be positive"),
        (
            "0.3",
            "[points.cfg.buffers.organization]\nkind = \"damq\"\nprivate_fraction = 1.5",
            "invalid buffers: DAMQ private_fraction must be in [0, 1]",
        ),
        (
            "0.3",
            "[points.cfg.workload]\npattern = { kind = \"bursty_uniform\", mean_burst = 0.5 }",
            "invalid workload: bursty mean_burst must be at least one packet",
        ),
        (
            "0.3",
            "[points.cfg.workload]\npattern = { kind = \"bursty_uniform\", mean_burst = inf }",
            "invalid workload: bursty mean_burst must be at least one packet",
        ),
        (
            "0.3",
            "[points.cfg.buffers]\nsizing = { kind = \"per_port\", local = 8, global = 8 }",
            "Local VC capacity below one packet",
        ),
        (
            "0.3",
            "[points.cfg.buffers]\nsizing = { kind = \"per_vc\", local = 3000000000, global = 256 }",
            "invalid buffers: a port's total buffer does not fit 32-bit phit arithmetic",
        ),
        (
            "0.3",
            "[points.cfg.buffers]\ninjection = 2000000000",
            "invalid buffers: injection x injection_vcs does not fit 32-bit phit arithmetic",
        ),
        (
            "0.3",
            "global_latency = 4000000000",
            "the link event horizon of 4000000010 cycles",
        ),
        (
            "0.3",
            "speedup = 4000000000",
            "speedup 4000000000 exceeds the packet size of 8 phits",
        ),
        (
            "0.3",
            "topology = { kind = \"dragonfly_balanced\", h = 4000000 }",
            "routers with 15999999 inputs",
        ),
        (
            "0.3",
            "topology = { kind = \"dragonfly\", p = 4000000000, a = 4000000000, h = 1, \
             g = 4000000000 }",
            "routers with 8000000000 inputs",
        ),
        (
            "0.3",
            "pipeline_latency = 4000000000",
            "the pipeline event horizon of 4000000010 cycles",
        ),
        (
            "0.3",
            "[points.cfg.workload]\npattern = \"uniform\"\ncontrol_fraction = 1.5",
            "invalid workload: control_fraction must be in [0, 1]",
        ),
        (
            "0.1",
            "[points.cfg.workload]\nkind = \"flows\"\npattern = \"permutation\"\n\
             sizes = { kind = \"pareto\", min = 1, max = 64, alpha = nan }",
            "invalid workload: Pareto tail index alpha must be positive",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let scenario = format!(
            "name = \"bad\"\nseeds = [1]\n\n[[points]]\nload = {load}\n\n\
             [points.cfg]\nwarmup = 10\nmeasure = 10\n{cfg}\n"
        );
        let path = std::env::temp_dir().join(format!("flexvc-bad-{}-{i}.toml", std::process::id()));
        std::fs::write(&path, scenario).expect("write scenario");
        let out = flexvc()
            .args(["run", "--quiet", "--file"])
            .arg(&path)
            .output()
            .unwrap();
        std::fs::remove_file(&path).ok();
        let output = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.status.success(), "load {load} {cfg}: {output}");
        assert!(output.contains(needle), "{output}");
        assert!(!output.contains("panicked"), "{output}");
    }

    // `help` lists exactly the commands that exist, and neither the old
    // bench harness nor the environment overrides of the scale.
    let (help, _) = run_ok(flexvc().arg("help"));
    let mut commands: Vec<&str> = help
        .lines()
        .filter_map(|l| l.strip_prefix("    flexvc "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    commands.dedup();
    assert_eq!(commands, ["list", "show", "run", "help"], "{help}");
    for gone in ["flexvc bench", "BENCH OPTIONS", "FLEXVC_"] {
        assert!(!help.contains(gone), "`{gone}` in:\n{help}");
    }
}
