//! Scenario execution and report rendering.
//!
//! [`run_scenario`] expands a [`Scenario`] into `points × seeds`
//! independent simulations, fans them out over the `flexvc-sim` thread
//! runner with a streaming progress callback, averages the seed
//! repetitions per point, and computes the analytic classification
//! tables. The resulting [`ScenarioReport`] serializes to JSON (via
//! `flexvc_serde`) and renders to markdown ([`render_markdown`]) or CSV
//! ([`render_csv`]).

use super::{ClassifyKind, Scenario, ScenarioError};
use flexvc_core::classify::{classify, classify_both, classify_combined};
use flexvc_core::MessageClass;
use flexvc_serde::{Map, Serialize, Value};
use flexvc_sim::runner::{run_points_with_progress, Point};
use flexvc_sim::{RunError, SimResult};
use std::fmt;

/// One completed simulation, reported through the progress callback.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioProgress<'a> {
    /// Simulations completed so far (including this one).
    pub completed: usize,
    /// Total simulations (`points × seeds`).
    pub total: usize,
    /// Series label of the finished point.
    pub series: &'a str,
    /// Column label of the finished point.
    pub x: &'a str,
    /// Offered load of the finished point.
    pub load: f64,
    /// The (single-seed) result.
    pub result: &'a SimResult,
}

/// A point's seed-averaged outcome.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Series label.
    pub series: String,
    /// Column label.
    pub x: String,
    /// Offered load.
    pub load: f64,
    /// Seed-averaged result.
    pub result: SimResult,
}

/// A computed classification table.
#[derive(Debug, Clone)]
pub struct ClassificationResult {
    /// Table heading.
    pub title: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// `(mode label, cells)` rows; cells use the paper's S/opport./X glyphs.
    pub rows: Vec<(String, Vec<String>)>,
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario title.
    pub title: String,
    /// Scenario description.
    pub description: String,
    /// Seeds each point was averaged over.
    pub seeds: Vec<u64>,
    /// Seed-averaged point results, in scenario order.
    pub points: Vec<PointResult>,
    /// Computed classification tables.
    pub tables: Vec<ClassificationResult>,
}

/// Errors from [`run_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRunError {
    /// The scenario failed validation before any simulation started.
    Invalid(ScenarioError),
    /// The underlying batch runner failed.
    Run(RunError),
}

impl fmt::Display for ScenarioRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioRunError::Invalid(e) => write!(f, "invalid scenario: {e}"),
            ScenarioRunError::Run(e) => write!(f, "scenario run failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioRunError::Invalid(e) => Some(e),
            ScenarioRunError::Run(e) => Some(e),
        }
    }
}

impl From<ScenarioError> for ScenarioRunError {
    fn from(e: ScenarioError) -> Self {
        ScenarioRunError::Invalid(e)
    }
}

impl From<RunError> for ScenarioRunError {
    fn from(e: RunError) -> Self {
        ScenarioRunError::Run(e)
    }
}

/// Run a scenario: validate, simulate all `points × seeds` on `threads`
/// workers (streaming completions to `progress`), average seeds, and
/// compute classification tables.
pub fn run_scenario<F>(
    scenario: &Scenario,
    threads: usize,
    progress: F,
) -> Result<ScenarioReport, ScenarioRunError>
where
    F: Fn(ScenarioProgress<'_>) + Sync,
{
    scenario.validate()?;
    let seeds = &scenario.seeds;
    let sims: Vec<Point> = scenario
        .points
        .iter()
        .flat_map(|p| {
            seeds.iter().map(move |&seed| Point {
                cfg: p.cfg.clone(),
                load: p.load,
                seed,
            })
        })
        .collect();
    let per_point = seeds.len().max(1);
    let results = run_points_with_progress(&sims, threads, |pp| {
        let spec = &scenario.points[pp.index / per_point];
        progress(ScenarioProgress {
            completed: pp.completed,
            total: pp.total,
            series: &spec.series,
            x: &spec.x,
            load: spec.load,
            result: pp.result,
        });
    })?;
    let points = scenario
        .points
        .iter()
        .enumerate()
        .map(|(i, spec)| PointResult {
            series: spec.series.clone(),
            x: spec.x.clone(),
            load: spec.load,
            result: SimResult::average(&results[i * per_point..(i + 1) * per_point]),
        })
        .collect();
    let tables = scenario
        .classifications
        .iter()
        .map(classification)
        .collect();
    Ok(ScenarioReport {
        name: scenario.name.clone(),
        title: scenario.title.clone(),
        description: scenario.description.clone(),
        seeds: scenario.seeds.clone(),
        points,
        tables,
    })
}

fn classification(spec: &super::ClassificationSpec) -> ClassificationResult {
    let rows = spec
        .modes
        .iter()
        .map(|&mode| {
            let cells = spec
                .columns
                .iter()
                .map(|(_, arr)| match spec.kind {
                    ClassifyKind::Request => {
                        classify(spec.family, mode, arr, MessageClass::Request).to_string()
                    }
                    ClassifyKind::Combined => classify_combined(spec.family, mode, arr).to_string(),
                    ClassifyKind::Both => {
                        let (req, rep) = classify_both(spec.family, mode, arr);
                        if req == rep {
                            req.to_string()
                        } else {
                            format!("{req} / {rep}")
                        }
                    }
                })
                .collect();
            (mode.to_string(), cells)
        })
        .collect();
    ClassificationResult {
        title: spec.title.clone(),
        columns: spec
            .columns
            .iter()
            .map(|(label, _)| label.clone())
            .collect(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Labels in first-appearance order.
fn ordered<'a>(items: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

fn markdown_grid(out: &mut String, title: &str, columns: &[&str], rows: &[(String, Vec<String>)]) {
    out.push_str(&format!("### {title}\n\n| series |"));
    for c in columns {
        out.push_str(&format!(" {c} |"));
    }
    out.push_str("\n|---|");
    for _ in columns {
        out.push_str("---|");
    }
    out.push('\n');
    for (label, cells) in rows {
        out.push_str(&format!("| {label} |"));
        for cell in cells {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out.push('\n');
}

/// Render the report as the markdown tables the old per-figure binaries
/// printed: classification tables first, then an accepted-load grid and a
/// latency grid over `series × x`.
pub fn render_markdown(report: &ScenarioReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n\n", report.title));
    if !report.description.is_empty() {
        out.push_str(&format!("{}\n\n", report.description.trim()));
    }
    for table in &report.tables {
        let columns: Vec<&str> = table.columns.iter().map(String::as_str).collect();
        markdown_grid(&mut out, &table.title, &columns, &table.rows);
    }
    if report.points.is_empty() {
        return out;
    }
    let series = ordered(report.points.iter().map(|p| p.series.as_str()));
    let xs = ordered(report.points.iter().map(|p| p.x.as_str()));
    let cell = |s: &str, x: &str, f: &dyn Fn(&SimResult) -> String| -> String {
        report
            .points
            .iter()
            .find(|p| p.series == s && p.x == x)
            .map(|p| {
                if p.result.deadlocked {
                    "DL".to_string()
                } else {
                    f(&p.result)
                }
            })
            .unwrap_or_else(|| "—".to_string())
    };
    let grid = |f: &dyn Fn(&SimResult) -> String| -> Vec<(String, Vec<String>)> {
        series
            .iter()
            .map(|s| {
                (
                    s.to_string(),
                    xs.iter().map(|x| cell(s, x, f)).collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    markdown_grid(
        &mut out,
        "Accepted load (phits/node/cycle)",
        &xs,
        &grid(&|r| format!("{:.3}", r.accepted)),
    );
    markdown_grid(
        &mut out,
        "Average packet latency (cycles)",
        &xs,
        &grid(&|r| format!("{:.0}", r.latency)),
    );
    // Flow workloads additionally report flow-completion-time percentiles
    // and mean slowdown (FCT ÷ ideal serialization time).
    if report.points.iter().any(|p| p.result.flows_completed > 0.0) {
        markdown_grid(
            &mut out,
            "Flow completion time p50 (cycles)",
            &xs,
            &grid(&|r| format!("{:.0}", r.fct_p50)),
        );
        markdown_grid(
            &mut out,
            "Flow completion time p99 (cycles)",
            &xs,
            &grid(&|r| format!("{:.0}", r.fct_p99)),
        );
        markdown_grid(
            &mut out,
            "Mean flow slowdown (FCT / ideal)",
            &xs,
            &grid(&|r| format!("{:.2}", r.slowdown_mean)),
        );
    }
    // Multi-class QoS workloads additionally report per-class accepted
    // load and tail latency, interpolated from the class histograms so
    // sub-bucket differences resolve.
    if report
        .points
        .iter()
        .any(|p| p.result.classes[0].accepted > 0.0)
    {
        markdown_grid(
            &mut out,
            "Control accepted load (phits/node/cycle)",
            &xs,
            &grid(&|r| format!("{:.3}", r.classes[0].accepted)),
        );
        markdown_grid(
            &mut out,
            "Control latency p99 (cycles)",
            &xs,
            &grid(&|r| format!("{:.0}", r.classes[0].latency_hist.quantile_interp(0.99))),
        );
        markdown_grid(
            &mut out,
            "Bulk latency p99 (cycles)",
            &xs,
            &grid(&|r| format!("{:.0}", r.classes[1].latency_hist.quantile_interp(0.99))),
        );
    }
    // Saturation studies (every point at 100% offered load, as in Figs.
    // 6/9/11) additionally get the paper's headline derived metric:
    // throughput relative to each group's first (baseline) series. Series
    // named `<pattern>/<label>` (Figs. 6/11) are grouped by the pattern
    // prefix so ADV curves are never divided by the UN baseline.
    let saturation_study = report.points.iter().all(|p| (p.load - 1.0).abs() < 1e-9);
    if saturation_study && series.len() > 1 {
        fn group_of(s: &str) -> &str {
            s.split_once('/').map(|(g, _)| g).unwrap_or("")
        }
        let reference_of = |s: &str| -> &str {
            series
                .iter()
                .find(|r| group_of(r) == group_of(s))
                .expect("series belongs to its own group")
        };
        let accepted_at = |s: &str, x: &str| -> Option<f64> {
            report
                .points
                .iter()
                .find(|p| p.series == s && p.x == x && !p.result.deadlocked)
                .map(|p| p.result.accepted)
        };
        // A reference measured at a single column (e.g. fig9's baseline,
        // whose VC split does not vary with the column) anchors every
        // column's ratio.
        let reference_at = |s: &str, x: &str| -> Option<f64> {
            accepted_at(s, x).or_else(|| {
                let measured: Vec<&PointResult> =
                    report.points.iter().filter(|p| p.series == s).collect();
                match measured.as_slice() {
                    [only] if !only.result.deadlocked => Some(only.result.accepted),
                    _ => None,
                }
            })
        };
        let rows: Vec<(String, Vec<String>)> = series
            .iter()
            .filter(|s| reference_of(s) != **s)
            .map(|s| {
                let reference = reference_of(s);
                let cells = xs
                    .iter()
                    .map(|x| match (accepted_at(s, x), reference_at(reference, x)) {
                        (Some(a), Some(b)) if b > 1e-9 => format!("{:.3}", a / b),
                        _ => "—".to_string(),
                    })
                    .collect();
                (s.to_string(), cells)
            })
            .collect();
        if !rows.is_empty() {
            markdown_grid(
                &mut out,
                "Throughput relative to each group's first series",
                &xs,
                &rows,
            );
        }
    }
    out
}

fn csv_quote(s: &str) -> String {
    if s.contains(['"', ',', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render the point results as CSV (one row per point; classification
/// tables are not included — use JSON for those).
pub fn render_csv(report: &ScenarioReport) -> String {
    let mut out = String::from(
        "scenario,series,x,load,offered,accepted,latency,latency_req,latency_rep,\
         latency_p99,misroute_fraction,avg_hops,reverts_per_packet,drop_fraction,deadlocked,\
         flows_completed,fct_mean,fct_p50,fct_p99,slowdown_mean,\
         control_accepted,control_latency,control_p99,bulk_accepted,bulk_latency,bulk_p99\n",
    );
    for p in &report.points {
        let r = &p.result;
        // Per-class tails are interpolated from the class histograms so
        // sub-bucket differences resolve (the coarse `latency_p99` fields
        // quantize to power-of-two buckets). Single-class runs tag every
        // packet Bulk, so their control columns read zero.
        let (ctrl, bulk) = (&r.classes[0], &r.classes[1]);
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            csv_quote(&report.name),
            csv_quote(&p.series),
            csv_quote(&p.x),
            p.load,
            r.offered,
            r.accepted,
            r.latency,
            r.latency_req,
            r.latency_rep,
            r.latency_p99,
            r.misroute_fraction,
            r.avg_hops,
            r.reverts_per_packet,
            r.drop_fraction,
            r.deadlocked,
            r.flows_completed,
            r.fct_mean,
            r.fct_p50,
            r.fct_p99,
            r.slowdown_mean,
            ctrl.accepted,
            ctrl.latency,
            ctrl.latency_hist.quantile_interp(0.99),
            bulk.accepted,
            bulk.latency,
            bulk.latency_hist.quantile_interp(0.99)
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Report serialization (JSON output files)
// ---------------------------------------------------------------------------

impl Serialize for PointResult {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("series", Value::from(self.series.as_str()))
                .with("x", Value::from(self.x.as_str()))
                .with("load", self.load.to_value())
                .with("result", self.result.to_value()),
        )
    }
}

impl Serialize for ClassificationResult {
    fn to_value(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|(mode, cells)| {
                Value::Map(
                    Map::new()
                        .with("mode", Value::from(mode.as_str()))
                        .with("cells", cells.to_value()),
                )
            })
            .collect();
        Value::Map(
            Map::new()
                .with("title", Value::from(self.title.as_str()))
                .with("columns", self.columns.to_value())
                .with("rows", Value::Seq(rows)),
        )
    }
}

impl Serialize for ScenarioReport {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("name", Value::from(self.name.as_str()))
                .with("title", Value::from(self.title.as_str()))
                .with("description", Value::from(self.description.as_str()))
                .with("seeds", self.seeds.to_value())
                .with("points", self.points.to_value())
                .with("tables", self.tables.to_value()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PointSpec;
    use flexvc_core::RoutingMode;
    use flexvc_serde::to_json_pretty;
    use flexvc_sim::SimConfig;
    use flexvc_traffic::{Pattern, Workload};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .test_scale();
        cfg.warmup = 300;
        cfg.measure = 600;
        cfg
    }

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "tiny".into(),
            title: "Tiny scenario".into(),
            description: "executor test".into(),
            seeds: vec![1, 2],
            points: vec![
                PointSpec {
                    series: "Baseline".into(),
                    x: "0.20".into(),
                    load: 0.2,
                    cfg: tiny_cfg(),
                },
                PointSpec {
                    series: "Baseline".into(),
                    x: "0.40".into(),
                    load: 0.4,
                    cfg: tiny_cfg(),
                },
            ],
            classifications: Vec::new(),
        }
    }

    #[test]
    fn runs_and_averages_with_progress() {
        let sc = tiny_scenario();
        let calls = AtomicUsize::new(0);
        let report = run_scenario(&sc, 2, |p| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(p.total, 4);
            assert!(!p.series.is_empty());
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(report.points.len(), 2);
        assert!(report.points[1].result.accepted > report.points[0].result.accepted);

        // Markdown has both grids; CSV has one row per point.
        let md = render_markdown(&report);
        assert!(md.contains("Accepted load"), "{md}");
        assert!(md.contains("| Baseline |"), "{md}");
        let csv = render_csv(&report);
        assert_eq!(csv.lines().count(), 3, "{csv}");

        // The JSON report carries both points.
        let json = to_json_pretty(&report);
        assert_eq!(
            json.matches("\"series\": \"Baseline\"").count(),
            2,
            "{json}"
        );
    }

    #[test]
    fn invalid_scenarios_do_not_run() {
        let mut sc = tiny_scenario();
        sc.points[0].cfg.packet_size = 0;
        let err = run_scenario(&sc, 1, |_| {}).unwrap_err();
        assert!(matches!(err, ScenarioRunError::Invalid(_)), "{err}");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
