//! Property tests for the topology-aware shard partitioner and the block
//! partitioner under it.
//!
//! Over random Dragonfly / Dragonfly+ / HyperX / flattened-butterfly
//! shapes and shard counts, [`partition_topology`] must produce
//!
//! (a) **a cover** — exactly `shards` contiguous, non-empty, gap-free
//!     ranges covering every router;
//! (b) **alignment** — whenever the topology offers at least as many
//!     alignment units (groups / planes / rows) as shards, every shard
//!     boundary lands on a unit boundary, so no intra-group local link
//!     crosses a cut;
//! (c) **balance** — the heaviest shard (by [`Topology::router_weight`])
//!     matches the exact min-max optimum over unit-aligned contiguous
//!     splits, computed here by dynamic programming.
//!
//! and [`partition_blocks`] must cut every worker range into
//!
//! (d) **a tiling** — contiguous, non-empty blocks covering the range, cut
//!     only on unit multiples;
//! (e) **budgeted, no finer than needed** — a block exceeds the weight
//!     budget only when it lies within a single unit, and no two
//!     neighbours would have fitted together.
//!
//! Both are cut by one cost model, [`cumulative_weights`]: ports +
//! terminals per router.
//!
//! The fixed-shape tests then pin what the production budget does to the
//! shapes the repo benchmark runs: one block per worker (today's path) on
//! every h = 2 / h = 3 workload point, whole-group blocks with λ = the
//! global latency at h = 8, and no subdivision for board-using routings.

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_serde::Value;
use flexvc_sim::shard::{cumulative_weights, partition, partition_blocks, partition_topology};
use flexvc_sim::{ShardedNetwork, SimConfig};
use flexvc_topology::{Dragonfly, DragonflyPlus, HyperX, Topology};
use flexvc_traffic::{Pattern, Workload};
use proptest::prelude::*;

/// A randomly shaped topology, kept small enough for per-case scans.
#[derive(Debug, Clone)]
enum Shape {
    HyperX { dims: Vec<(usize, usize)>, p: usize },
    Dragonfly { h: usize },
    DfPlus { l: usize, s: usize, h: usize },
}

impl Shape {
    fn build(&self) -> Box<dyn Topology> {
        match self {
            Shape::HyperX { dims, p } => Box::new(HyperX::new(dims.clone(), *p)),
            Shape::Dragonfly { h } => Box::new(Dragonfly::balanced(*h)),
            // Unit global multiplicity with `groups = spines + 1` keeps the
            // per-spine global share integral for any (l, s, h).
            Shape::DfPlus { l, s, h } => Box::new(DragonflyPlus::new(*l, *s, *h, 1, s + 1)),
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1usize..=3, 2usize..=4, 1usize..=2, 1usize..=2).prop_map(|(n, s, k, p)| {
            Shape::HyperX {
                dims: vec![(s, k); n],
                p,
            }
        }),
        (2usize..=4, 2usize..=4, 1usize..=2).prop_map(|(s0, s1, p)| Shape::HyperX {
            dims: vec![(s0, 1), (s1, 1)],
            p,
        }),
        (1usize..=3).prop_map(|h| Shape::Dragonfly { h }),
        // Flattened butterflies: square 2-D HyperX up to 5 × 5.
        (2usize..=5, 1usize..=2).prop_map(|(k, p)| Shape::HyperX {
            dims: vec![(k, 1); 2],
            p,
        }),
        (1usize..=4, 2usize..=4, 1usize..=3).prop_map(|(l, s, h)| Shape::DfPlus { l, s, h }),
    ]
}

/// Exact min-max weight over all splits of `weights` into `k` contiguous
/// non-empty segments (O(k·n²) DP — fine at property-test scale).
fn optimal_minmax(weights: &[u64], k: usize) -> u64 {
    let n = weights.len();
    let mut prefix = vec![0u64; n + 1];
    for (i, &w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    // best[j][i] = min-max over splitting the first i units into j segments.
    let mut best = vec![u64::MAX; n + 1];
    for (i, b) in best.iter_mut().enumerate().skip(1) {
        *b = prefix[i];
    }
    for _ in 2..=k {
        let mut next = vec![u64::MAX; n + 1];
        for i in 1..=n {
            for cut in 1..i {
                let cand = best[cut].max(prefix[i] - prefix[cut]);
                if cand < next[i] {
                    next[i] = cand;
                }
            }
        }
        best = next;
    }
    best[n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioner_covers_aligns_and_balances(shape in arb_shape(), shards in 1usize..=6) {
        let topo = shape.build();
        let nr = topo.num_routers();
        let shards = shards.min(nr);
        let w = cumulative_weights(topo.as_ref());
        let ranges = partition_topology(topo.as_ref(), &w, shards);

        // (a) Exactly `shards` contiguous, non-empty ranges covering 0..nr.
        prop_assert_eq!(ranges.len(), shards);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges[shards - 1].end as usize, nr);
        for i in 0..shards {
            prop_assert!(ranges[i].start < ranges[i].end, "empty shard {i}");
            if i > 0 {
                prop_assert_eq!(ranges[i].start, ranges[i - 1].end, "gap before shard {i}");
            }
        }

        // (b) Group/plane alignment whenever the topology has enough units.
        let unit = topo.partition_unit();
        let aligned = unit > 1 && nr.is_multiple_of(unit) && nr / unit >= shards;
        if aligned {
            for r in &ranges {
                prop_assert_eq!(
                    r.start as usize % unit, 0,
                    "shard boundary {} off the {}-router unit grid", r.start, unit
                );
            }
            // Aligned boundaries must never cut an intra-group (local-only
            // in Dragonfly terms) pair: both endpoints of any intra-group
            // link share a range.
            let owner = |r: usize| ranges.iter().position(|rg| rg.contains(&(r as u32))).unwrap();
            for r in 0..nr {
                for p in 0..topo.num_ports() {
                    if let Some((peer, _)) = topo.neighbor(r, p) {
                        if topo.group_of_router(r) == topo.group_of_router(peer) {
                            prop_assert_eq!(owner(r), owner(peer), "intra-group link cut");
                        }
                    }
                }
            }
        }

        // (c) Exact min-max port+terminal balance over the chosen grid.
        let grid = if aligned { unit } else { 1 };
        let units = nr / grid;
        let weights: Vec<u64> = (0..units)
            .map(|u| (u * grid..(u + 1) * grid).map(|r| topo.router_weight(r)).sum())
            .collect();
        let heaviest = ranges
            .iter()
            .map(|rg| {
                rg.clone()
                    .map(|r| topo.router_weight(r as usize))
                    .sum::<u64>()
            })
            .max()
            .unwrap();
        if aligned {
            prop_assert_eq!(
                heaviest,
                optimal_minmax(&weights, shards),
                "aligned partition missed the min-max optimum"
            );
        } else {
            // Fallback is count-balanced, not weight-balanced; it must at
            // least match the plain splitter exactly.
            prop_assert_eq!(ranges, partition(nr, shards));
        }
    }

    #[test]
    fn blocks_tile_align_and_respect_the_budget(
        shape in arb_shape(),
        shards in 1usize..=4,
        budget in 0u64..=1_600,
    ) {
        let topo = shape.build();
        let shards = shards.min(topo.num_routers());
        let unit = topo.partition_unit().max(1) as u32;
        let w = cumulative_weights(topo.as_ref());
        for range in partition_topology(topo.as_ref(), &w, shards) {
            let blocks = partition_blocks(&w, unit as usize, range.clone(), budget);
            // (d) A tiling of the range, cut on unit multiples only.
            prop_assert_eq!(blocks[0].start, range.start);
            prop_assert_eq!(blocks[blocks.len() - 1].end, range.end);
            for (i, b) in blocks.iter().enumerate() {
                prop_assert!(b.start < b.end, "empty block {i}");
                if i > 0 {
                    prop_assert_eq!(b.start, blocks[i - 1].end, "gap before block {i}");
                    prop_assert_eq!(b.start % unit, 0, "block cut off the unit grid");
                }
            }
            // (e) Over budget only within one unit; no needless cut. The
            // weight is summed here router by router, independently of
            // the model's running sums.
            let weight = |b: std::ops::Range<u32>| -> u64 {
                b.map(|r| topo.router_weight(r as usize)).sum()
            };
            for (i, b) in blocks.iter().enumerate() {
                prop_assert!(
                    weight(b.clone()) <= budget || b.start / unit == (b.end - 1) / unit,
                    "block {b:?} is over budget and spans units"
                );
                if i > 0 {
                    prop_assert!(
                        weight(blocks[i - 1].start..b.end) > budget,
                        "blocks {i}-1 and {i} would have fitted together"
                    );
                }
            }
        }
    }
}

/// Every `[points.cfg]` of a workload file of the repo benchmark.
fn workload_configs(name: &str) -> Vec<SimConfig> {
    let path = format!(
        "{}/../../benchmark/workloads/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let root = flexvc_serde::toml::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let points: Vec<Value> = root.field("points").unwrap();
    points
        .iter()
        .map(|p| p.as_map().unwrap().field("cfg").unwrap())
        .collect()
}

fn blocks_per_worker(mut cfg: SimConfig, shards: usize) -> Vec<usize> {
    cfg.shards = shards;
    let net = ShardedNetwork::new(cfg, 0.3, 1).unwrap();
    net.shard_stats().iter().map(|s| s.blocks.len()).collect()
}

/// The h = 2 workloads and `sweep_points` (h = 2 and h = 3) fit the budget
/// whole: one block per worker on every point, so they run exactly as they
/// did before blocks existed — on one worker, as one engine stepped a
/// window at a time.
#[test]
fn small_workload_shapes_stay_one_block_per_worker() {
    let mut points = 0;
    for name in [
        "h2_lowload",
        "h2_saturated",
        "h2_adaptive",
        "flows_qos",
        "sweep_points",
    ] {
        for cfg in workload_configs(name) {
            for shards in [1, 2] {
                assert_eq!(
                    blocks_per_worker(cfg.clone(), shards),
                    vec![1; shards],
                    "{name}: {:?} on {shards} workers",
                    cfg.topology
                );
            }
            points += 1;
        }
    }
    assert!(points >= 70, "only {points} workload points found");
}

/// At h = 8 the production budget cuts every worker range into blocks of
/// whole groups, which sever global links only: λ stays the global latency.
#[test]
fn paper_scale_blocks_are_whole_groups() {
    for name in ["paper_h8", "paper_h8_s2"] {
        for mut cfg in workload_configs(name) {
            let rpg = cfg.topology.build().routers_per_group() as u32;
            for shards in [1, 2] {
                cfg.shards = shards;
                let net = ShardedNetwork::new(cfg.clone(), 0.3, 1).unwrap();
                assert_eq!(net.epoch_cycles(), cfg.global_latency as u64);
                for stat in net.shard_stats() {
                    assert!(stat.blocks.len() > 1, "{name}: h = 8 must sub-block");
                    for b in &stat.blocks {
                        assert_eq!((b.start % rpg, b.end % rpg), (0, 0), "{b:?}");
                    }
                }
            }
        }
    }
}

/// Board users exchange every cycle, so extra blocks would buy nothing:
/// PB and UGAL-G stay one block per worker even at h = 8, where the same
/// shape under MIN is cut into dozens.
#[test]
fn board_routings_are_never_subdivided() {
    for routing in [RoutingMode::Piggyback, RoutingMode::UgalG] {
        let cfg = SimConfig::dragonfly_baseline(8, routing, Workload::oblivious(Pattern::adv1()))
            .with_flexvc(Arrangement::dragonfly(4, 2));
        assert!(cfg.routing.uses_boards());
        for shards in [1, 2] {
            assert_eq!(blocks_per_worker(cfg.clone(), shards), vec![1; shards]);
        }
    }
}
