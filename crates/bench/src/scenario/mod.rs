//! Scenarios: paper figures/tables (and user experiments) as data.
//!
//! A [`Scenario`] is a named, serializable bundle of simulation points —
//! each a `(series, x, load, SimConfig)` tuple averaged over the
//! scenario's seeds — plus optional analytic classification tables (the
//! paper's Tables I–IV). Because the whole thing round-trips through
//! TOML/JSON (`flexvc_serde`), a new experiment is a data file, not a new
//! binary:
//!
//! ```text
//! flexvc show fig9 > mine.toml   # start from a built-in scenario
//! $EDITOR mine.toml              # tweak configs / loads / seeds
//! flexvc run --file mine.toml --out results.json
//! ```
//!
//! The built-in scenarios are one static table, [`CATALOGUE`] (looked up
//! by name with [`lookup`]), over the builders of `defs`; [`exec`] holds
//! the parallel executor and report rendering.

mod defs;
pub mod exec;

pub use defs::{lookup, ScenarioEntry, CATALOGUE};
pub use exec::{
    render_csv, render_markdown, run_scenario, ClassificationResult, PointResult, ScenarioProgress,
    ScenarioReport, ScenarioRunError,
};

use flexvc_core::classify::NetworkFamily;
use flexvc_core::{Arrangement, RoutingMode};
use flexvc_serde::{keywords, record, Deserialize, Error as DeError, Map, Serialize, Value};
use flexvc_sim::{ConfigError, SimConfig};
use std::fmt;

/// One simulation point of a scenario: a full configuration pinned to a
/// series (row/legend label) and an x position (column label), run at
/// `load` for every scenario seed and averaged.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Series (legend) label, e.g. `"UN/FlexVC 4/2VCs"`.
    pub series: String,
    /// Column label, e.g. a load (`"0.40"`), a capacity (`"128/512"`) or a
    /// VC split (`"5/3(3/2+2/1)"`).
    pub x: String,
    /// Offered load in phits/node/cycle.
    pub load: f64,
    /// Full simulation configuration.
    pub cfg: SimConfig,
}

/// How a classification table derives each cell from an arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifyKind {
    /// `classify` of the request class (Tables I and III).
    Request,
    /// `classify_combined`: min of request and reply support (Table II).
    Combined,
    /// `classify_both`, rendered `req / rep` when they differ (Table IV).
    Both,
}

/// An analytic classification table (no simulation): routing modes ×
/// arrangements, reproducing the paper's Tables I–IV.
#[derive(Debug, Clone)]
pub struct ClassificationSpec {
    /// Table heading.
    pub title: String,
    /// Network family the classification runs in.
    pub family: NetworkFamily,
    /// Cell derivation.
    pub kind: ClassifyKind,
    /// Routing modes (table rows).
    pub modes: Vec<RoutingMode>,
    /// `(column label, arrangement)` pairs (table columns).
    pub columns: Vec<(String, Arrangement)>,
}

/// A named, serializable experiment: simulation points and/or analytic
/// classification tables, plus the seeds to average simulation over.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Catalogue name / file identity, e.g. `"fig9"`.
    pub name: String,
    /// Human title, e.g. `"Figure 9: VC selection functions"`.
    pub title: String,
    /// What the scenario reproduces and how to read the output.
    pub description: String,
    /// Seeds each point is averaged over.
    pub seeds: Vec<u64>,
    /// Simulation points.
    pub points: Vec<PointSpec>,
    /// Analytic classification tables.
    pub classifications: Vec<ClassificationSpec>,
}

/// Why a scenario cannot run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario name is empty.
    UnnamedScenario,
    /// Neither points nor classifications: nothing to do.
    NoWork,
    /// There are simulation points but no seeds to run them with.
    NoSeeds,
    /// A point's configuration failed validation.
    InvalidPoint {
        /// Series label of the failing point.
        series: String,
        /// Column label of the failing point.
        x: String,
        /// The underlying configuration error.
        source: ConfigError,
    },
    /// A classification table has no rows or no columns.
    EmptyClassification {
        /// Title of the degenerate table.
        title: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnnamedScenario => write!(f, "scenario has no name"),
            ScenarioError::NoWork => {
                write!(f, "scenario has neither points nor classification tables")
            }
            ScenarioError::NoSeeds => write!(f, "scenario has simulation points but no seeds"),
            ScenarioError::InvalidPoint { series, x, source } => {
                write!(f, "point `{series}` @ `{x}` is invalid: {source}")
            }
            ScenarioError::EmptyClassification { title } => {
                write!(f, "classification table `{title}` has no rows or columns")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::InvalidPoint { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl Scenario {
    /// Validate the scenario: shape sanity plus
    /// `SimConfig::validate_point` on every point.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.trim().is_empty() {
            return Err(ScenarioError::UnnamedScenario);
        }
        if self.points.is_empty() && self.classifications.is_empty() {
            return Err(ScenarioError::NoWork);
        }
        if !self.points.is_empty() && self.seeds.is_empty() {
            return Err(ScenarioError::NoSeeds);
        }
        for p in &self.points {
            p.cfg
                .validate_point(p.load)
                .map_err(|source| ScenarioError::InvalidPoint {
                    series: p.series.clone(),
                    x: p.x.clone(),
                    source,
                })?;
        }
        for c in &self.classifications {
            if c.modes.is_empty() || c.columns.is_empty() {
                return Err(ScenarioError::EmptyClassification {
                    title: c.title.clone(),
                });
            }
        }
        Ok(())
    }

    /// Total simulations the scenario will run (`points × seeds`).
    pub fn simulation_count(&self) -> usize {
        self.points.len() * self.seeds.len()
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

record!(PointSpec {
    series: "series" = String::new(),
    x: "x" => format!("{load:.2}"),
    load: "load",
    cfg: "cfg",
});

keywords!(ClassifyKind, "classification kind" {
    Request => "request",
    Combined => "combined",
    Both => "both",
});

/// A classification column as written: a label, by default the
/// arrangement's VC counts.
struct Column {
    label: String,
    arrangement: Arrangement,
}

record!(Column {
    label: "label" => Arrangement::count_label(&arrangement),
    arrangement: "arrangement",
});

impl Serialize for ClassificationSpec {
    fn to_value(&self) -> Value {
        let columns: Vec<Value> = self
            .columns
            .iter()
            .map(|(label, arrangement)| {
                let (label, arrangement) = (label.clone(), arrangement.clone());
                Column { label, arrangement }.to_value()
            })
            .collect();
        Value::Map(
            Map::new()
                .with("title", Value::from(self.title.as_str()))
                .with("family", self.family.to_value())
                .with("kind", self.kind.to_value())
                .with("modes", self.modes.to_value())
                .with("columns", Value::Seq(columns)),
        )
    }
}

impl Deserialize for ClassificationSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        let columns: Vec<Column> = m.field("columns")?;
        Ok(ClassificationSpec {
            title: m.field_or("title", String::new())?,
            family: m.field("family")?,
            kind: m.field_or("kind", ClassifyKind::Request)?,
            modes: m.field("modes")?,
            columns: columns
                .into_iter()
                .map(|c| (c.label, c.arrangement))
                .collect(),
        })
    }
}

impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        let mut root = Map::new()
            .with("name", Value::from(self.name.as_str()))
            .with("title", Value::from(self.title.as_str()))
            .with("description", Value::from(self.description.as_str()))
            .with("seeds", self.seeds.to_value());
        if !self.classifications.is_empty() {
            root.insert("classifications", self.classifications.to_value());
        }
        if !self.points.is_empty() {
            root.insert("points", self.points.to_value());
        }
        Value::Map(root)
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        Ok(Scenario {
            name: m.field("name")?,
            title: m.field_or("title", String::new())?,
            description: m.field_or("description", String::new())?,
            seeds: m.field_or("seeds", vec![1])?,
            points: m.field_or("points", Vec::new())?,
            classifications: m.field_or("classifications", Vec::new())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_core::RoutingMode;
    use flexvc_serde::{from_toml, to_json, to_toml};
    use flexvc_traffic::{Pattern, Workload};

    fn tiny_scenario() -> Scenario {
        let cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .test_scale();
        Scenario {
            name: "tiny".into(),
            title: "Tiny".into(),
            description: "two points".into(),
            seeds: vec![1, 2],
            points: vec![
                PointSpec {
                    series: "Baseline".into(),
                    x: "0.20".into(),
                    load: 0.2,
                    cfg: cfg.clone(),
                },
                PointSpec {
                    series: "Baseline".into(),
                    x: "0.40".into(),
                    load: 0.4,
                    cfg,
                },
            ],
            classifications: vec![ClassificationSpec {
                title: "Table III excerpt".into(),
                family: NetworkFamily::Dragonfly,
                kind: ClassifyKind::Request,
                modes: vec![RoutingMode::Min, RoutingMode::Valiant],
                columns: vec![
                    ("2/1".into(), Arrangement::dragonfly_min()),
                    ("4/2".into(), Arrangement::dragonfly_val()),
                ],
            }],
        }
    }

    #[test]
    fn scenario_round_trips_toml() {
        let sc = tiny_scenario();
        let text = to_toml(&sc).unwrap();
        let back: Scenario = from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(to_json(&back), to_json(&sc), "TOML:\n{text}");
        back.validate().unwrap();
    }

    #[test]
    fn validation_catches_degenerate_scenarios() {
        let mut sc = tiny_scenario();
        sc.name = " ".into();
        assert_eq!(sc.validate().unwrap_err(), ScenarioError::UnnamedScenario);

        let mut sc = tiny_scenario();
        sc.points.clear();
        sc.classifications.clear();
        assert_eq!(sc.validate().unwrap_err(), ScenarioError::NoWork);

        let mut sc = tiny_scenario();
        sc.seeds.clear();
        assert_eq!(sc.validate().unwrap_err(), ScenarioError::NoSeeds);

        let mut sc = tiny_scenario();
        sc.points[1].cfg.packet_size = 0;
        assert!(matches!(
            sc.validate().unwrap_err(),
            ScenarioError::InvalidPoint { .. }
        ));

        let mut sc = tiny_scenario();
        sc.classifications[0].columns.clear();
        assert!(matches!(
            sc.validate().unwrap_err(),
            ScenarioError::EmptyClassification { .. }
        ));
    }

    #[test]
    fn sparse_scenario_file_parses() {
        // The minimal hand-written scenario: defaults everywhere.
        let sc: Scenario = from_toml(
            r#"
name = "hello"

[[points]]
load = 0.3

[points.cfg]
routing = "min"
warmup = 200
measure = 400
"#,
        )
        .unwrap();
        assert_eq!(sc.name, "hello");
        assert_eq!(sc.seeds, vec![1]);
        assert_eq!(sc.points.len(), 1);
        assert_eq!(sc.points[0].x, "0.30");
        sc.validate().unwrap();
    }

    #[test]
    fn simulation_count() {
        assert_eq!(tiny_scenario().simulation_count(), 4);
    }
}
