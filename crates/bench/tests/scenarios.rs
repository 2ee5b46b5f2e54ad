//! Catalogue-wide scenario guarantees: every built-in scenario expands to
//! valid data at multiple scales, round-trips through TOML/JSON, and
//! matches the legend/point structure of the paper figures it reproduces.

use flexvc_bench::scenario::{lookup, Scenario, CATALOGUE};
use flexvc_bench::Scale;
use flexvc_serde::{from_json, from_toml, to_json, to_json_pretty, to_toml};

fn test_scale() -> Scale {
    Scale {
        h: 2,
        seeds: vec![1, 2],
        warmup: 100,
        measure: 200,
    }
}

#[test]
fn every_registered_scenario_validates() {
    for scale in [test_scale(), Scale::paper()] {
        for entry in &CATALOGUE {
            let sc = entry.build(&scale);
            sc.validate()
                .unwrap_or_else(|e| panic!("scenario {} at h={}: {e}", entry.name, scale.h));
            assert_eq!(sc.name, entry.name, "scenario name matches catalogue key");
            assert!(!sc.title.is_empty(), "{}: title", entry.name);
            assert!(!sc.description.is_empty(), "{}: description", entry.name);
        }
    }
}

#[test]
fn every_registered_scenario_round_trips() {
    let scale = test_scale();
    for entry in &CATALOGUE {
        let sc = entry.build(&scale);
        let doc = to_json(&sc);

        let via_json: Scenario = from_json(&to_json_pretty(&sc))
            .unwrap_or_else(|e| panic!("{}: JSON parse: {e}", entry.name));
        assert_eq!(to_json(&via_json), doc, "{}: JSON round trip", entry.name);

        let toml = to_toml(&sc).unwrap_or_else(|e| panic!("{}: TOML emit: {e}", entry.name));
        let via_toml: Scenario =
            from_toml(&toml).unwrap_or_else(|e| panic!("{}: TOML parse: {e}", entry.name));
        assert_eq!(to_json(&via_toml), doc, "{}: TOML round trip", entry.name);

        via_toml
            .validate()
            .unwrap_or_else(|e| panic!("{}: reparsed scenario invalid: {e}", entry.name));
    }
}

#[test]
fn scenario_structures_match_paper_legends() {
    let scale = test_scale();
    let build = |name| lookup(name).unwrap().build(&scale);
    let series_count = |sc: &Scenario| {
        let mut labels: Vec<&str> = Vec::new();
        for p in &sc.points {
            if !labels.contains(&p.series.as_str()) {
                labels.push(&p.series);
            }
        }
        labels.len()
    };

    // fig5: 5 series (UN/BURSTY) + 4 (ADV), 10 loads each.
    let fig5 = build("fig5");
    assert_eq!(series_count(&fig5), 5 + 5 + 4);
    assert_eq!(fig5.points.len(), (5 + 5 + 4) * 10);

    // fig9: 2 single-point reference rows (their split IS the first
    // column) + 4 selection functions over 6 splits.
    let fig9 = build("fig9");
    assert_eq!(series_count(&fig9), 6);
    assert_eq!(fig9.points.len(), 2 + 4 * 6);

    // fig10: 5 private-reservation fractions over 10 loads.
    let fig10 = build("fig10");
    assert_eq!(series_count(&fig10), 5);
    assert_eq!(fig10.points.len(), 50);

    // fig6/fig11: capacity columns, ADV drops the smallest.
    for name in ["fig6", "fig11"] {
        let sc = build(name);
        assert_eq!(sc.points.len(), 5 * 4 + 5 * 4 + 4 * 3, "{name}");
    }

    // tables: pure classification, all four tables, no simulation.
    let tables = build("tables");
    assert!(tables.points.is_empty());
    assert_eq!(tables.classifications.len(), 4);
    assert_eq!(tables.simulation_count(), 0);

    // The scale's seeds propagate into simulation scenarios.
    assert_eq!(fig5.seeds, scale.seeds);
}

/// The `*-paper` trio pins the paper-scale topology shapes regardless of
/// the ambient `Scale` (only windows/seeds follow it): Table V's h = 8
/// Dragonfly, the 16^3 HyperX and the megafly Dragonfly+.
#[test]
fn paper_scenarios_pin_paper_scale_topologies() {
    for (name, routers) in [
        ("dragonfly-paper", 2_064),
        ("hyperx-paper", 4_096),
        ("dfplus-paper", 1_056),
    ] {
        let sc = lookup(name).unwrap().build(&test_scale());
        assert_eq!(sc.points.len(), 2 * 4, "{name}: 2 series x 4 loads");
        for p in &sc.points {
            assert_eq!(p.cfg.topology.num_routers(), routers, "{name}/{}", p.series);
            // The windows do follow the scale, so a laptop run is bounded.
            assert_eq!(p.cfg.warmup, test_scale().warmup, "{name}");
        }
    }
}
