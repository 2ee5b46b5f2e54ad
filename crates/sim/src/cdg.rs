//! Channel-dependency-graph validation (Dally–Seitz / Duato).
//!
//! Distance-based deadlock avoidance is correct iff every realizable path
//! occupies buffers of strictly increasing *positions* in the master
//! sequence, which makes the buffer-level dependency graph acyclic. This
//! module verifies that property constructively on concrete topologies:
//!
//! * [`check_baseline_routes`] walks every minimal route (plus sampled
//!   Valiant and PAR-divert realizations) and asserts the baseline slot
//!   mapping yields strictly increasing positions — catching any slot
//!   assignment bug in the planners.
//! * [`build_min_cdg`] / [`is_acyclic`] build the explicit buffer-level
//!   dependency graph of minimal routing and check it for cycles; useful
//!   as a template for users adding their own topologies or policies.
//!
//! FlexVC's relaxed rule is validated differently: its *escape network*
//! (moves with strictly increasing positions) is acyclic by construction,
//! and the per-grant invariants are property-tested in `flexvc-core` and
//! debug-asserted in the engine.

use flexvc_core::policy::baseline_vc;
use flexvc_core::{Arrangement, MessageClass, RoutingMode};
use flexvc_topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Walk a route from `src`, returning the master-sequence position of each
/// buffer the packet occupies under the baseline policy.
fn route_positions(
    arr: &Arrangement,
    msg: MessageClass,
    reference: &[flexvc_core::LinkClass],
    route: &[flexvc_topology::RouteHop],
) -> Vec<usize> {
    route
        .iter()
        .map(|hop| {
            let (class, vc) = baseline_vc(arr, msg, reference, hop.slot as usize);
            debug_assert_eq!(class, hop.class);
            arr.position(class, vc).expect("baseline vc exists")
        })
        .collect()
}

fn strictly_increasing(v: &[usize]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

/// Verify that every realizable baseline route occupies strictly increasing
/// positions. Checks all minimal pairs exhaustively and `samples` random
/// Valiant (and, for PAR, divert) realizations.
#[allow(clippy::too_many_arguments)]
pub fn check_baseline_routes(
    topo: &dyn Topology,
    routing: RoutingMode,
    arr: &Arrangement,
    msg: MessageClass,
    samples: usize,
    seed: u64,
) -> Result<(), String> {
    let family = topo.family();
    let reference = routing.reference(family);
    // The baseline only ever routes between traffic endpoints (and
    // through the topology's own Valiant candidates) — on Dragonfly+
    // those are the leaves; on uniformly-populated topologies the list is
    // simply every router, so draws match the historical 0..n ones.
    let endpoints = endpoint_routers(topo);
    let n = endpoints.len();
    // Exhaustive minimal pairs (the escape substrate of every mode).
    if routing == RoutingMode::Min {
        for &s in &endpoints {
            for &d in &endpoints {
                let route = topo.min_route(s, d);
                let pos = route_positions(arr, msg, reference, &route);
                if !strictly_increasing(&pos) {
                    return Err(format!("min route {s}->{d}: positions {pos:?}"));
                }
            }
        }
        return Ok(());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..samples {
        let s = endpoints[rng.gen_range(0..n)];
        let d = endpoints[rng.gen_range(0..n)];
        let via = topo.valiant_via(rng.gen_range(0..topo.valiant_via_count()));
        let plan = match routing {
            RoutingMode::Valiant
            | RoutingMode::Piggyback
            | RoutingMode::UgalL
            | RoutingMode::UgalG => crate::plan::valiant_plan(topo, family, s, via, d),
            RoutingMode::Dal => {
                // Random per-dimension misroute pattern: walk the DAL plan
                // from `s`, diverting each eligible correction pair with
                // probability 1/2 through a random candidate — exactly the
                // replanning the engine performs in transit.
                let mut cur = s;
                let mut plan = crate::plan::dal_plan(topo, s, d);
                let mut route = flexvc_topology::Route::new();
                let mut cands = Vec::new();
                while let Some(next) = plan.next_hop().copied() {
                    if next.slot % 2 == 0
                        && rng.gen_range(0..2u32) == 0
                        && topo.dim_diverts(cur, d, &mut cands)
                        && !cands.is_empty()
                    {
                        let (via2, port) = cands[rng.gen_range(0..cands.len())];
                        plan = crate::plan::dal_divert_plan(
                            topo, port, via2, d, next.slot, next.class,
                        );
                    }
                    let hop = *plan.next_hop().expect("non-empty");
                    route.push(hop);
                    cur = topo.neighbor(cur, hop.port as usize).expect("wired").0;
                    plan.advance();
                }
                let pos = route_positions(arr, msg, reference, &route);
                if !strictly_increasing(&pos) {
                    return Err(format!("DAL {s}->{d}: positions {pos:?}"));
                }
                if cur != d {
                    return Err(format!("DAL {s}->{d}: route ends at {cur}"));
                }
                continue;
            }
            RoutingMode::Par => {
                // A divert happens after the first minimal *local* hop (the
                // engine only evaluates the divert at that point); validate
                // the divert plan from that router. PAR plans carry the
                // remapped slots of `par_min_plan`.
                let first = crate::plan::par_min_plan(topo, family, s, d);
                let Some(h0) = first.remaining().first().copied() else {
                    continue;
                };
                if h0.class != flexvc_core::LinkClass::Local {
                    continue;
                }
                let (divert_router, _) = topo.neighbor(s, h0.port as usize).expect("wired");
                let mut route = vec![h0];
                route.extend(
                    crate::plan::par_divert_plan(topo, family, divert_router, via, d)
                        .remaining()
                        .iter()
                        .copied(),
                );
                let pos = route_positions(arr, msg, reference, &route);
                if !strictly_increasing(&pos) {
                    return Err(format!("PAR divert {s}->{d} via {via}: positions {pos:?}"));
                }
                continue;
            }
            RoutingMode::Min => unreachable!(),
        };
        let pos = route_positions(arr, msg, reference, plan.remaining());
        if !strictly_increasing(&pos) {
            return Err(format!("{routing} {s}->{d} via {via}: positions {pos:?}"));
        }
    }
    Ok(())
}

/// Routers that carry traffic endpoints (have attached nodes), in
/// ascending order: every router on uniformly-populated topologies, the
/// leaves on Dragonfly+. Node ids attach in contiguous blocks, so the
/// per-node router list is already sorted and deduplicates in place.
fn endpoint_routers(topo: &dyn Topology) -> Vec<usize> {
    let mut endpoints: Vec<usize> = (0..topo.num_nodes())
        .map(|node| topo.router_of_node(node))
        .collect();
    endpoints.dedup();
    endpoints
}

/// Buffer identifier: `(router, input port, vc)`.
pub type BufferId = (usize, usize, usize);

/// Build the buffer-level dependency graph of baseline minimal routing:
/// an edge `a -> b` means a packet can occupy buffer `a` while waiting for
/// space in buffer `b`.
pub fn build_min_cdg(
    topo: &dyn Topology,
    arr: &Arrangement,
    msg: MessageClass,
) -> Vec<(BufferId, BufferId)> {
    let reference = RoutingMode::Min.reference(topo.family());
    let mut edges = std::collections::HashSet::new();
    let endpoints = endpoint_routers(topo);
    for &s in &endpoints {
        for &d in &endpoints {
            let route = topo.min_route(s, d);
            let mut bufs: Vec<BufferId> = Vec::with_capacity(route.len());
            let mut cur = s;
            for hop in &route {
                let (next, next_port) = topo.neighbor(cur, hop.port as usize).expect("wired");
                let (_, vc) = baseline_vc(arr, msg, reference, hop.slot as usize);
                bufs.push((next, next_port, vc));
                cur = next;
            }
            for w in bufs.windows(2) {
                edges.insert((w[0], w[1]));
            }
        }
    }
    edges.into_iter().collect()
}

/// Escape-network dependency graph of FlexVC minimal routing on an
/// arrangement — or on a QoS class's sub-arrangement, which is a
/// subsequence of the master reference and so does not follow the
/// baseline slot texture [`build_min_cdg`] assumes. Every minimal route
/// is embedded greedily at strictly increasing positions (the canonical
/// safe embedding whose existence the classifier's `Safe` verdict
/// asserts; greedy-lowest succeeds whenever any embedding does), and
/// consecutive buffers form the edges. Errors if some minimal route does
/// not embed, i.e. the arrangement is not actually MIN-safe.
pub fn build_flexvc_min_cdg(
    topo: &dyn Topology,
    arr: &Arrangement,
) -> Result<Vec<(BufferId, BufferId)>, String> {
    let mut edges = std::collections::HashSet::new();
    let endpoints = endpoint_routers(topo);
    for &s in &endpoints {
        for &d in &endpoints {
            let route = topo.min_route(s, d);
            let mut cur = s;
            let mut prev: Option<usize> = None;
            let mut bufs: Vec<BufferId> = Vec::with_capacity(route.len());
            for hop in &route {
                let start = prev.map_or(0, |p| p + 1);
                let Some(pos) = (start..arr.len()).find(|&p| arr.class_at(p) == hop.class) else {
                    return Err(format!(
                        "min route {s}->{d}: no {:?} position above {prev:?} in {arr}",
                        hop.class
                    ));
                };
                let (next, next_port) = topo.neighbor(cur, hop.port as usize).expect("wired");
                bufs.push((next, next_port, arr.vc_index_at(pos)));
                prev = Some(pos);
                cur = next;
            }
            for w in bufs.windows(2) {
                edges.insert((w[0], w[1]));
            }
        }
    }
    Ok(edges.into_iter().collect())
}

/// Combined buffer-level dependency graph of a class-partitioned QoS
/// configuration under minimal routing (each class's escape substrate).
///
/// Under [`crate::config::ClassVcMap::Partitioned`] the classes own
/// disjoint VC subsets, and strict-priority arbitration never adds a
/// buffer-wait edge *between* classes: a head denied by priority keeps
/// only the buffer it already occupies — in its own partition — and waits
/// for a grant, not for buffer space in the other class. The full
/// dependency graph is therefore exactly the disjoint union of the
/// per-class graphs, encoded here by offsetting bulk's VC ids out of
/// control's id space. Acyclicity of this union is the graph-level
/// statement of the priority-composition proof performed algebraically by
/// `SimConfig::validate`.
pub fn build_qos_min_cdg(
    topo: &dyn Topology,
    control: &Arrangement,
    bulk: &Arrangement,
) -> Result<Vec<(BufferId, BufferId)>, String> {
    // Any offset past the 32-VC ceiling keeps the id spaces disjoint.
    const BULK_VC_OFFSET: usize = 32;
    let mut edges = build_flexvc_min_cdg(topo, control)?;
    edges.extend(build_flexvc_min_cdg(topo, bulk)?.into_iter().map(
        |((ra, pa, va), (rb, pb, vb))| {
            ((ra, pa, va + BULK_VC_OFFSET), (rb, pb, vb + BULK_VC_OFFSET))
        },
    ));
    Ok(edges)
}

/// Kahn's algorithm: is the dependency graph acyclic?
pub fn is_acyclic(edges: &[(BufferId, BufferId)]) -> bool {
    use std::collections::HashMap;
    let mut indeg: HashMap<BufferId, usize> = HashMap::new();
    let mut out: HashMap<BufferId, Vec<BufferId>> = HashMap::new();
    for &(a, b) in edges {
        out.entry(a).or_default().push(b);
        *indeg.entry(b).or_insert(0) += 1;
        indeg.entry(a).or_insert(0);
    }
    let mut queue: Vec<BufferId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&b, _)| b)
        .collect();
    let mut seen = 0;
    while let Some(b) = queue.pop() {
        seen += 1;
        if let Some(succs) = out.get(&b) {
            for &s in succs {
                let e = indeg.get_mut(&s).expect("known node");
                *e -= 1;
                if *e == 0 {
                    queue.push(s);
                }
            }
        }
    }
    seen == indeg.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_topology::{Dragonfly, HyperX};

    #[test]
    fn min_routes_strictly_increase() {
        let topo = Dragonfly::balanced(2);
        let arr = Arrangement::dragonfly_min();
        check_baseline_routes(&topo, RoutingMode::Min, &arr, MessageClass::Request, 0, 1).unwrap();
    }

    #[test]
    fn min_reply_routes_strictly_increase() {
        let topo = Dragonfly::balanced(2);
        let arr = Arrangement::dragonfly_rr((2, 1), (2, 1));
        for msg in [MessageClass::Request, MessageClass::Reply] {
            check_baseline_routes(&topo, RoutingMode::Min, &arr, msg, 0, 1).unwrap();
        }
    }

    #[test]
    fn valiant_routes_strictly_increase() {
        let topo = Dragonfly::balanced(2);
        let arr = Arrangement::dragonfly_val();
        check_baseline_routes(
            &topo,
            RoutingMode::Valiant,
            &arr,
            MessageClass::Request,
            5_000,
            2,
        )
        .unwrap();
    }

    #[test]
    fn par_divert_routes_strictly_increase() {
        let topo = Dragonfly::balanced(2);
        let arr = Arrangement::dragonfly_par();
        check_baseline_routes(
            &topo,
            RoutingMode::Par,
            &arr,
            MessageClass::Request,
            5_000,
            3,
        )
        .unwrap();
    }

    #[test]
    fn generic_valiant_routes_strictly_increase() {
        let topo = HyperX::regular(2, 4, 1);
        let arr = Arrangement::generic(4);
        check_baseline_routes(
            &topo,
            RoutingMode::Valiant,
            &arr,
            MessageClass::Request,
            5_000,
            4,
        )
        .unwrap();
    }

    #[test]
    fn hyperx_valiant_routes_strictly_increase() {
        use flexvc_topology::HyperX;
        let topo = HyperX::regular(3, 3, 1);
        let arr = Arrangement::generic(6);
        check_baseline_routes(
            &topo,
            RoutingMode::Valiant,
            &arr,
            MessageClass::Request,
            5_000,
            6,
        )
        .unwrap();
    }

    #[test]
    fn hyperx_par_routes_strictly_increase() {
        use flexvc_topology::HyperX;
        let topo = HyperX::regular(3, 3, 1);
        let arr = Arrangement::generic(7);
        check_baseline_routes(
            &topo,
            RoutingMode::Par,
            &arr,
            MessageClass::Request,
            5_000,
            7,
        )
        .unwrap();
    }

    #[test]
    fn ugal_routes_strictly_increase() {
        // UGAL's paths are MIN or VAL paths under the VAL reference — the
        // sampled realizations must occupy strictly increasing positions
        // on both topology families.
        let topo = Dragonfly::balanced(2);
        let arr = Arrangement::dragonfly_val();
        for mode in [RoutingMode::UgalL, RoutingMode::UgalG] {
            check_baseline_routes(&topo, mode, &arr, MessageClass::Request, 2_000, 5).unwrap();
        }
        use flexvc_topology::HyperX;
        let hx = HyperX::regular(3, 3, 1);
        let arr = Arrangement::generic(6);
        check_baseline_routes(
            &hx,
            RoutingMode::UgalG,
            &arr,
            MessageClass::Request,
            2_000,
            6,
        )
        .unwrap();
    }

    #[test]
    fn dal_divert_routes_strictly_increase() {
        use flexvc_topology::HyperX;
        // Random misroute patterns on 3-D and mixed-shape HyperX: every
        // realization's baseline positions strictly increase inside the
        // T^6 (resp. T^4) reference.
        let topo = HyperX::regular(3, 3, 1);
        let arr = Arrangement::generic(6);
        check_baseline_routes(
            &topo,
            RoutingMode::Dal,
            &arr,
            MessageClass::Request,
            5_000,
            7,
        )
        .unwrap();
        let mixed = HyperX::new(vec![(4, 2), (3, 1)], 1);
        let arr = Arrangement::generic(4);
        check_baseline_routes(
            &mixed,
            RoutingMode::Dal,
            &arr,
            MessageClass::Request,
            5_000,
            8,
        )
        .unwrap();
    }

    /// Dragonfly+ baseline safety: leaf-to-leaf minimal routes occupy
    /// strictly increasing positions in the `2/1` reference, leaf-via
    /// Valiant/UGAL realizations in the `4/2` one, and the minimal CDG
    /// over the leaf endpoints is acyclic.
    #[test]
    fn dfplus_routes_strictly_increase_and_min_cdg_acyclic() {
        use flexvc_topology::DragonflyPlus;
        let topo = DragonflyPlus::new(2, 2, 1, 1, 5);
        let arr = Arrangement::dragonfly_min();
        check_baseline_routes(&topo, RoutingMode::Min, &arr, MessageClass::Request, 0, 1).unwrap();
        let val = Arrangement::dragonfly_val();
        for mode in [
            RoutingMode::Valiant,
            RoutingMode::Piggyback,
            RoutingMode::UgalL,
            RoutingMode::UgalG,
        ] {
            check_baseline_routes(&topo, mode, &val, MessageClass::Request, 2_000, 9).unwrap();
        }
        let edges = build_min_cdg(&topo, &arr, MessageClass::Request);
        assert!(!edges.is_empty());
        assert!(is_acyclic(&edges), "Dragonfly+ baseline MIN CDG cyclic");
        // Request+reply: both halves stay increasing within their parts.
        let rr = Arrangement::dragonfly_rr((2, 1), (2, 1));
        for msg in [MessageClass::Request, MessageClass::Reply] {
            check_baseline_routes(&topo, RoutingMode::Min, &rr, msg, 0, 1).unwrap();
        }
    }

    #[test]
    fn min_cdg_acyclic_on_hyperx() {
        use flexvc_topology::HyperX;
        let topo = HyperX::regular(3, 2, 1);
        let arr = Arrangement::generic(3);
        let edges = build_min_cdg(&topo, &arr, MessageClass::Request);
        assert!(!edges.is_empty());
        assert!(is_acyclic(&edges));
    }

    #[test]
    fn min_cdg_is_acyclic() {
        let topo = Dragonfly::balanced(2);
        let arr = Arrangement::dragonfly_min();
        let edges = build_min_cdg(&topo, &arr, MessageClass::Request);
        assert!(!edges.is_empty());
        assert!(is_acyclic(&edges), "baseline MIN CDG must be acyclic");
    }

    #[test]
    fn min_cdg_acyclic_on_flatbf() {
        let topo = HyperX::regular(2, 4, 1);
        let arr = Arrangement::generic(2);
        let edges = build_min_cdg(&topo, &arr, MessageClass::Request);
        assert!(is_acyclic(&edges));
    }

    /// Priority preserves CDG acyclicity: over random Dragonfly,
    /// Dragonfly+ and HyperX shapes with random VC budgets and random
    /// control partitions, every partition `SimConfig::validate` accepts
    /// yields per-class sub-arrangements whose combined minimal
    /// dependency graph (the disjoint union — strict priority adds no
    /// cross-class buffer edges) is acyclic, and whose per-class minimal
    /// routes occupy strictly increasing positions.
    #[test]
    fn qos_partition_min_cdg_acyclic_on_random_shapes() {
        use crate::config::{QosConfig, SimConfig};
        use flexvc_core::TrafficClass;
        use flexvc_traffic::{Pattern, Workload};

        let mut rng = SmallRng::seed_from_u64(33);
        let workload = || Workload::oblivious(Pattern::Uniform).with_mix(0.1);
        let mut accepted = 0;
        let mut attempts = 0;
        while accepted < 12 {
            attempts += 1;
            assert!(
                attempts < 2_000,
                "random shapes almost never validate ({accepted}/12 after {attempts})"
            );
            let (base, l, g) = match rng.gen_range(0..3u32) {
                0 => {
                    let h = rng.gen_range(2..4usize);
                    (
                        SimConfig::dragonfly_baseline(h, RoutingMode::Min, workload()),
                        rng.gen_range(2..6usize),
                        rng.gen_range(1..3usize),
                    )
                }
                1 => {
                    let groups = [3, 5][rng.gen_range(0..2usize)];
                    (
                        SimConfig::dfplus_baseline(2, 2, 1, groups, RoutingMode::Min, workload()),
                        rng.gen_range(2..6usize),
                        rng.gen_range(1..3usize),
                    )
                }
                _ => {
                    let n = rng.gen_range(2..4usize);
                    let s = rng.gen_range(2..4usize);
                    // All HyperX links are Local-class: the whole budget
                    // is the local one.
                    (
                        SimConfig::hyperx_baseline(n, s, 1, RoutingMode::Min, workload()),
                        rng.gen_range(2..7usize),
                        0,
                    )
                }
            };
            let arr = if g == 0 {
                Arrangement::generic(l)
            } else {
                Arrangement::dragonfly(l, g)
            };
            let cl = rng.gen_range(0..l + 1);
            let cg = rng.gen_range(0..g + 1);
            let cfg = base
                .with_flexvc(arr)
                .with_qos(QosConfig::partitioned(cl, cg));
            if cfg.validate().is_err() {
                continue;
            }
            accepted += 1;
            let ctrl = cfg.qos_sub_arrangement(TrafficClass::Control).unwrap();
            let bulk = cfg.qos_sub_arrangement(TrafficClass::Bulk).unwrap();
            let topo = cfg.topology.build();
            let edges = build_qos_min_cdg(&*topo, &ctrl, &bulk)
                .unwrap_or_else(|e| panic!("{:?}: {e}", cfg.topology));
            assert!(!edges.is_empty(), "{:?}: degenerate CDG", cfg.topology);
            assert!(
                is_acyclic(&edges),
                "{:?}: partitioned QoS CDG cyclic (control {ctrl}, bulk {bulk})",
                cfg.topology
            );
        }
    }

    #[test]
    fn cycle_detector_detects_cycles() {
        let a = (0, 0, 0);
        let b = (1, 0, 0);
        let c = (2, 0, 0);
        assert!(is_acyclic(&[(a, b), (b, c)]));
        assert!(!is_acyclic(&[(a, b), (b, c), (c, a)]));
    }
}
