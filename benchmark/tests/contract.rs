//! `BENCHMARK.json` against the tables it mirrors, and the smoke run.

use flexvc::serde::{json, Map, Value};
use flexvc_benchmark::defs::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn benchmark_json() -> Map {
    let path = defs::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).unwrap().as_map().unwrap().clone()
}

fn rows<'a>(root: &'a Map, key: &str) -> Vec<&'a Map> {
    root.get(key)
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|v| v.as_map().unwrap())
        .collect()
}

fn keys(m: &Map) -> Vec<&str> {
    m.iter().map(|(k, _)| k).collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_mirrors_the_tables() {
    let root = benchmark_json();
    assert_eq!(
        keys(&root),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(root.field::<Vec<String>>("paths").unwrap(), ["benchmark"]);
    let seconds: u64 = root.field("run_seconds").unwrap();
    assert!((1..=60).contains(&seconds));
    let command: Vec<String> = root.field("command").unwrap();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/'))
    );

    let workloads = rows(&root, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (row, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(row), ["name", "why"]);
        assert_eq!(row.field::<String>("name").unwrap(), def.name);
        assert_eq!(row.field::<String>("why").unwrap(), def.why);
        assert!(
            is_name(def.name) && def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
        assert!(
            defs::workload_path(def.name).is_file(),
            "{} has no workload file",
            def.name
        );
    }

    let end_to_end = rows(&root, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (row, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(row), ["name", "unit", "better", "bound"]);
        assert_eq!(row.field::<String>("name").unwrap(), def.name);
        assert_eq!(row.field::<String>("unit").unwrap(), def.unit);
        assert_eq!(row.field::<String>("better").unwrap(), def.better);
        assert_eq!(row.field::<f64>("bound").unwrap(), def.bound);
        assert!(def.bound > 0.0 && def.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );

    let per_layer = rows(&root, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (row, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(row), ["name", "unit", "better"]);
        assert_eq!(row.field::<String>("name").unwrap(), name);
        assert_eq!(row.field::<String>("unit").unwrap(), unit);
        assert_eq!(row.field::<String>("better").unwrap(), better);
    }

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert!(names.iter().all(|n| is_name(n)));
    assert!(END_TO_END
        .iter()
        .map(|m| (m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.1, m.2)))
        .all(|(unit, better)| is_unit(unit) && ["higher", "lower"].contains(&better)));
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );
}

/// `--smoke`: every workload builds, steps, aggregates and reproduces its
/// digest on a rebuild, on windows a few cycles long. No numbers.
#[test]
fn smoke_runs_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_flexvc-benchmark"))
        .arg("--smoke")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in &WORKLOADS {
        assert!(
            text.contains(&format!("{}: seed 1", w.name)),
            "{} did not run:\n{text}",
            w.name
        );
    }
    assert!(!text.contains("FAILED"), "{text}");
}

#[test]
fn agree_accepts_a_file_against_itself_and_rejects_a_changed_digest() {
    let dir = defs::package_dir()
        .join("out")
        .join(format!("agree-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metric = |v: f64| Value::Map(Map::new().with("value", Value::Float(v)));
    let file = |digest: &str, rate: f64| {
        let mut metrics = Map::new();
        for m in &END_TO_END {
            metrics.insert(
                m.name,
                metric(if m.name == "sim_cycles_per_s" {
                    rate
                } else {
                    1.5
                }),
            );
        }
        let kernel = Map::new()
            .with("name", Value::from("k"))
            .with("digest", Value::from(digest));
        json::emit(&Value::Map(
            Map::new()
                .with("workload", Value::from("h2_lowload"))
                .with("seed", Value::Int(1))
                .with("attempted", Value::Int(10))
                .with("failed", Value::Int(0))
                .with("noisy", Value::Bool(false))
                .with("metrics", Value::Map(metrics))
                .with("kernels", Value::Seq(vec![Value::Map(kernel)])),
        ))
    };
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let a = write("a.json", file("00aa", 100.0));
    let within = write("within.json", file("00aa", 95.0));
    let slower = write("slower.json", file("00aa", 50.0));
    let changed = write("changed.json", file("00bb", 100.0));
    let agree = |x: &std::path::Path, y: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_flexvc-benchmark"))
            .arg("--agree")
            .arg(x)
            .arg(y)
            .output()
            .unwrap()
            .status
            .success()
    };
    assert!(agree(&a, &a));
    assert!(agree(&a, &within), "a host metric inside its bound agrees");
    assert!(
        !agree(&a, &slower),
        "a host metric outside its bound disagrees"
    );
    assert!(!agree(&a, &changed), "a changed digest disagrees");
    std::fs::remove_dir_all(&dir).unwrap();
}
