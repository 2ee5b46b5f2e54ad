//! Route-safety property tests across random topology shapes.
//!
//! For random HyperX / Dragonfly / flattened-butterfly shapes and random
//! `src → dst` (and Valiant `via`) pairs, every generated MIN and VAL route
//! must be
//!
//! (a) **correct** — walking the ports reaches the destination with
//!     port-class-consistent hops over involutive wiring;
//! (b) **bounded** — within the per-dimension hop budget: MIN takes at most
//!     one hop per dimension (per link class in a Dragonfly), VAL at most
//!     one per dimension per subpath, never exceeding the mode's reference
//!     length;
//! (c) **safe** — its class path embeds as strictly-increasing positions in
//!     the routing mode's *reference arrangement* from position 0, which is
//!     exactly the precondition for the baseline policy (and FlexVC's
//!     escape invariant) to be deadlock-free on the route.

use flexvc_core::{Arrangement, LinkClass, RoutingMode};
use flexvc_topology::validate::{bfs_distances, check_wiring};
use flexvc_topology::{Dragonfly, DragonflyPlus, HyperX, Topology};
use proptest::prelude::*;

/// A randomly shaped topology, kept small enough for per-case BFS.
#[derive(Debug, Clone)]
enum Shape {
    HyperX { dims: Vec<(usize, usize)>, p: usize },
    Dragonfly { h: usize },
}

impl Shape {
    fn build(&self) -> Box<dyn Topology> {
        match self {
            Shape::HyperX { dims, p } => Box::new(HyperX::new(dims.clone(), *p)),
            Shape::Dragonfly { h } => Box::new(Dragonfly::balanced(*h)),
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
        // Mixed-shape HyperX (different sizes per dimension).
        (2usize..=4, 2usize..=4, 1usize..=2).prop_map(|(s0, s1, p)| Shape::HyperX {
            dims: vec![(s0, 1), (s1, 1)],
            p,
        }),
        (1usize..=2).prop_map(|h| Shape::Dragonfly { h }),
        // Flattened butterflies: square 2-D HyperX up to 5 × 5.
        (2usize..=5, 1usize..=2).prop_map(|(k, p)| Shape::HyperX {
            dims: vec![(k, 1); 2],
            p,
        }),
    ]
}

/// Random Dragonfly+ shapes with an integral per-spine global share:
/// `global_mult · (groups − 1)` is kept divisible by `spines` by
/// construction (`groups = spines·k + 1` at unit multiplicity,
/// `groups = spines + 1` at multiplicity 2).
fn arb_dfplus() -> impl Strategy<Value = DragonflyPlus> {
    prop_oneof![
        (1usize..=3, 1usize..=3, 1usize..=2, 1usize..=2)
            .prop_map(|(l, s, h, k)| DragonflyPlus::new(l, s, h, 1, s * k + 1)),
        (2usize..=4, 2usize..=3, 1usize..=2).prop_map(|(l, s, h)| DragonflyPlus::new(
            l,
            s,
            h,
            2,
            s + 1
        )),
    ]
}

/// The routing mode's reference arrangement for the topology family: the
/// master sequence the baseline policy assigns one VC per hop of.
fn reference_arrangement(topo: &dyn Topology, mode: RoutingMode) -> Arrangement {
    Arrangement::new(mode.reference(topo.family()))
}

/// Walk `route` from `from`, asserting port-level consistency; returns the
/// sequence of routers visited (excluding `from`).
fn walk(topo: &dyn Topology, from: usize, route: &flexvc_topology::Route) -> Vec<usize> {
    let mut cur = from;
    let mut visited = Vec::with_capacity(route.len());
    for hop in route {
        assert_eq!(
            topo.port_class(cur, hop.port as usize),
            hop.class,
            "hop class disagrees with the port class"
        );
        let (next, back) = topo
            .neighbor(cur, hop.port as usize)
            .expect("route uses a wired port");
        let (rr, rp) = topo.neighbor(next, back).expect("wiring involutive");
        assert_eq!((rr, rp), (cur, hop.port as usize));
        cur = next;
        visited.push(cur);
    }
    visited
}

/// Per-dimension hop budget of a minimal route: at most one hop per
/// dimension on a HyperX (coordinates change exactly once, in dimension
/// order), at most `diameter` hops anywhere, and exact BFS minimality on
/// generic families.
fn check_min_bounds(shape: &Shape, topo: &dyn Topology, from: usize, to: usize) {
    let route = topo.min_route(from, to);
    assert!(route.len() <= topo.diameter(), "minimal route too long");
    let visited = walk(topo, from, &route);
    assert_eq!(visited.last().copied().unwrap_or(from), to);
    if let Shape::HyperX { dims, .. } = shape {
        let hx = HyperX::new(dims.clone(), 1);
        // Exactly the differing dimensions are fixed, one hop each,
        // ascending (DOR).
        let mut fixed = Vec::new();
        let mut cur = from;
        for next in &visited {
            let changed: Vec<usize> = (0..hx.num_dims())
                .filter(|&d| hx.coord(cur, d) != hx.coord(*next, d))
                .collect();
            assert_eq!(changed.len(), 1, "one dimension per hop");
            fixed.push(changed[0]);
            cur = *next;
        }
        let mut sorted = fixed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, fixed, "dimension-ordered, one hop per dimension");
    }
    if topo.family().generic_diameter().is_some() {
        // Generic families route truly minimally (Dragonfly's hierarchical
        // l-g-l may exceed BFS through third-group shortcuts), with
        // consecutive slots keeping baseline positions aligned with hop
        // indices.
        assert_eq!(route.len(), bfs_distances(topo, from)[to]);
        for (i, hop) in route.iter().enumerate() {
            assert_eq!(hop.slot as usize, i);
        }
    }
}

/// (c): the class path embeds in the mode's reference arrangement from
/// position 0 — the route is *safe*.
fn check_safe(topo: &dyn Topology, mode: RoutingMode, classes: &[LinkClass]) {
    let arr = reference_arrangement(topo, mode);
    assert!(
        classes.len() <= arr.len(),
        "route longer than the {mode} reference"
    );
    assert!(
        arr.embeds(classes, None, (0, arr.len())),
        "classes {classes:?} do not embed in the {mode} reference {}",
        arr.notation()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MIN routes reach, respect hop bounds, and are safe under the MIN
    /// reference (hence under every larger reference too).
    #[test]
    fn min_routes_are_correct_bounded_and_safe(
        shape in arb_shape(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.build();
        check_wiring(&*topo).unwrap();
        let n = topo.num_routers();
        let (from, to) = (pair.0 % n, pair.1 % n);
        check_min_bounds(&shape, &*topo, from, to);
        let classes: Vec<LinkClass> =
            topo.min_route(from, to).iter().map(|h| h.class).collect();
        prop_assert_eq!(topo.min_classes(from, to).as_slice(), &classes[..]);
        check_safe(&*topo, RoutingMode::Min, &classes);
    }

    /// VAL routes (minimal to `via`, then minimal to `dst`) reach, stay
    /// within one-hop-per-dimension per subpath, and are safe under the VAL
    /// reference from position 0.
    #[test]
    fn valiant_routes_are_correct_bounded_and_safe(
        shape in arb_shape(),
        triple in (0usize..10_000, 0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.build();
        let n = topo.num_routers();
        let (from, via, to) = (triple.0 % n, triple.1 % n, triple.2 % n);
        let first = topo.min_route(from, via);
        let second = topo.min_route(via, to);
        // (a) the concatenation reaches dst through via.
        let v1 = walk(&*topo, from, &first);
        prop_assert_eq!(v1.last().copied().unwrap_or(from), via);
        let v2 = walk(&*topo, via, &second);
        prop_assert_eq!(v2.last().copied().unwrap_or(via), to);
        // (b) per-subpath hop bounds: each subpath is a minimal route
        // (checked exhaustively above); the whole detour fits the 2d / 6-hop
        // VAL budget.
        prop_assert!(first.len() + second.len() <= 2 * topo.diameter());
        // (c) the concatenated class path embeds in the VAL reference.
        let classes: Vec<LinkClass> = first
            .iter()
            .chain(second.iter())
            .map(|h| h.class)
            .collect();
        check_safe(&*topo, RoutingMode::Valiant, &classes);
        // And PB shares VAL's reference, so the same path is PB-safe.
        check_safe(&*topo, RoutingMode::Piggyback, &classes);
    }

    /// UGAL routes are MIN or VAL paths under the VAL-sized reference: both
    /// candidate paths of the injection decision embed safely from
    /// position 0 in the UGAL reference arrangement, on every shape.
    #[test]
    fn ugal_candidates_are_safe_under_the_ugal_reference(
        shape in arb_shape(),
        triple in (0usize..10_000, 0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.build();
        let n = topo.num_routers();
        let (from, via, to) = (triple.0 % n, triple.1 % n, triple.2 % n);
        let min: Vec<LinkClass> =
            topo.min_route(from, to).iter().map(|h| h.class).collect();
        let val: Vec<LinkClass> = topo
            .min_route(from, via)
            .iter()
            .chain(topo.min_route(via, to).iter())
            .map(|h| h.class)
            .collect();
        for mode in [RoutingMode::UgalL, RoutingMode::UgalG] {
            check_safe(&*topo, mode, &min);
            check_safe(&*topo, mode, &val);
        }
    }

    /// DAL detours on random HyperX shapes: every misroute pattern (forced
    /// divert at every eligible dimension through a random candidate)
    /// (a) reaches the destination, (b) spends at most 2 hops per
    /// dimension — one misroute plus one correction — and (c) embeds in
    /// the DAL `T^2d` reference from position 0.
    #[test]
    fn dal_detours_are_correct_bounded_and_safe(
        shape in arb_shape(),
        pair in (0usize..10_000, 0usize..10_000),
        picks in proptest::collection::vec(0usize..16, 8..=8),
    ) {
        let Shape::HyperX { dims, p } = &shape else {
            return; // per-dimension structure only
        };
        let topo = HyperX::new(dims.clone(), *p);
        let n = topo.num_routers();
        let (from, to) = (pair.0 % n, pair.1 % n);
        let mut cur = from;
        let mut cands = Vec::new();
        let mut classes = Vec::new();
        let mut per_dim_hops = vec![0usize; topo.num_dims()];
        let mut step = 0usize;
        // Follow DOR, forcing a misroute whenever a candidate exists; the
        // `picks` vector randomizes the intermediate coordinate choice.
        while cur != to {
            let dim = (0..topo.num_dims())
                .find(|&d| topo.coord(cur, d) != topo.coord(to, d))
                .expect("cur != to");
            let can_divert = per_dim_hops[dim] == 0 && topo.dim_diverts(cur, to, &mut cands);
            if can_divert && !cands.is_empty() {
                let (via, port) = cands[picks[step.min(7)] % cands.len()];
                prop_assert_eq!(topo.neighbor(cur, port as usize).unwrap().0, via);
                // The misroute stays inside the dimension.
                for d2 in 0..topo.num_dims() {
                    if d2 != dim {
                        prop_assert_eq!(topo.coord(via, d2), topo.coord(cur, d2));
                    }
                }
                prop_assert!(topo.coord(via, dim) != topo.coord(to, dim));
                cur = via;
                per_dim_hops[dim] += 1;
                classes.push(LinkClass::Local);
            } else {
                // Direct (or correction) hop to the destination coordinate.
                let route = topo.min_route(cur, to);
                let hop = route.first().expect("cur != to");
                cur = topo.neighbor(cur, hop.port as usize).unwrap().0;
                per_dim_hops[dim] += 1;
                prop_assert!(per_dim_hops[dim] <= 2, "dimension {dim} exceeded its pair");
                classes.push(LinkClass::Local);
            }
            step += 1;
            prop_assert!(step <= 2 * topo.num_dims(), "detour exceeded T^2d");
        }
        prop_assert_eq!(cur, to);
        check_safe(&topo, RoutingMode::Dal, &classes);
    }

    /// Dragonfly+ MIN routes over random shapes: leaf-to-leaf minimal
    /// routes reach, stay within the 3-hop hierarchy, and their classes
    /// embed in the MIN reference `L G L` from position 0 with canonical
    /// slots (`up = 0`, `global = 1`, `down = 2`).
    #[test]
    fn dfplus_min_routes_are_correct_bounded_and_safe(
        shape in arb_dfplus(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.clone();
        check_wiring(&topo).unwrap();
        let n_leaves = topo.valiant_via_count(); // leaves are the endpoints
        let (from, to) = (
            topo.valiant_via(pair.0 % n_leaves),
            topo.valiant_via(pair.1 % n_leaves),
        );
        let route = topo.min_route(from, to);
        prop_assert!(route.len() <= topo.diameter());
        let visited = walk(&topo, from, &route);
        prop_assert_eq!(visited.last().copied().unwrap_or(from), to);
        let classes: Vec<LinkClass> = route.iter().map(|h| h.class).collect();
        prop_assert_eq!(topo.min_classes(from, to).as_slice(), &classes[..]);
        // Canonical baseline slots: positions equal slots in `L G L`.
        let arr = Arrangement::dragonfly_min();
        for hop in &route {
            prop_assert_eq!(arr.class_at(hop.slot as usize), hop.class);
        }
        let slots: Vec<u8> = route.iter().map(|h| h.slot).collect();
        prop_assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {:?}", slots);
        check_safe(&topo, RoutingMode::Min, &classes);
    }

    /// Dragonfly+ VAL routes (minimal to a random *leaf* via, then minimal
    /// to the destination leaf) reach and embed in the VAL reference
    /// `L G L L G L` from position 0 — and from every router along the
    /// detour, the minimal escape (which can be the spine-origin
    /// `L L G L`) embeds above the landing position, the invariant
    /// FlexVC's opportunistic hops and reversion rely on.
    #[test]
    fn dfplus_valiant_routes_and_spine_escapes_embed(
        shape in arb_dfplus(),
        triple in (0usize..10_000, 0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.clone();
        let n_leaves = topo.valiant_via_count();
        let (from, via, to) = (
            topo.valiant_via(triple.0 % n_leaves),
            topo.valiant_via(triple.1 % n_leaves),
            topo.valiant_via(triple.2 % n_leaves),
        );
        let first = topo.min_route(from, via);
        let second = topo.min_route(via, to);
        let v1 = walk(&topo, from, &first);
        prop_assert_eq!(v1.last().copied().unwrap_or(from), via);
        let v2 = walk(&topo, via, &second);
        prop_assert_eq!(v2.last().copied().unwrap_or(via), to);
        prop_assert!(first.len() + second.len() <= 6);
        let classes: Vec<LinkClass> = first
            .iter()
            .chain(second.iter())
            .map(|h| h.class)
            .collect();
        check_safe(&topo, RoutingMode::Valiant, &classes);
        check_safe(&topo, RoutingMode::Piggyback, &classes);
        check_safe(&topo, RoutingMode::UgalG, &classes);
        // Escape embedding from every detour router, including the spines
        // the subpaths pass through: after `hops_taken` hops the packet
        // sits at position >= hops_taken - 1, and its minimal continuation
        // must embed strictly above that.
        let arr = reference_arrangement(&topo, RoutingMode::Valiant);
        let mut cur = from;
        let mut hops_taken = 0usize;
        for hop in first.iter().chain(second.iter()) {
            cur = topo.neighbor(cur, hop.port as usize).unwrap().0;
            hops_taken += 1;
            let esc: Vec<LinkClass> =
                topo.min_classes(cur, to).iter().copied().collect();
            prop_assert!(
                arr.embeds(&esc, Some(hops_taken - 1), (0, arr.len())),
                "escape {:?} after {} hops in {}",
                esc,
                hops_taken,
                arr.notation()
            );
        }
    }

    /// Every Dragonfly+ spine-origin minimal continuation toward a leaf is
    /// a subsequence of the worst-case escape `L L G L` — the classifier's
    /// `worst_min` for the family is genuinely worst-case.
    #[test]
    fn dfplus_spine_escapes_stay_within_the_worst_case(
        shape in arb_dfplus(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.clone();
        let n = topo.num_routers();
        let from = pair.0 % n;
        let n_leaves = topo.valiant_via_count();
        let to = topo.valiant_via(pair.1 % n_leaves);
        let classes: Vec<LinkClass> =
            topo.min_classes(from, to).iter().copied().collect();
        let visited = walk(&topo, from, &topo.min_route(from, to));
        prop_assert_eq!(visited.last().copied().unwrap_or(from), to);
        let worst = [
            LinkClass::Local,
            LinkClass::Local,
            LinkClass::Global,
            LinkClass::Local,
        ];
        let mut it = worst.iter();
        prop_assert!(
            classes.iter().all(|c| it.by_ref().any(|w| w == c)),
            "continuation {:?} exceeds the L L G L worst case ({} -> {})",
            classes,
            from,
            to
        );
    }

    /// The minimal continuation from *any* router along a VAL detour embeds
    /// above the worst landing — the escape-path substrate FlexVC's
    /// opportunistic hops rely on (Definition 2's "safe escape exists").
    #[test]
    fn min_escape_embeds_from_every_detour_router(
        shape in arb_shape(),
        triple in (0usize..10_000, 0usize..10_000, 0usize..10_000),
    ) {
        let topo = shape.build();
        let n = topo.num_routers();
        let (from, via, to) = (triple.0 % n, triple.1 % n, triple.2 % n);
        let arr = reference_arrangement(&*topo, RoutingMode::Valiant);
        let mut cur = from;
        let mut hops_taken = 0usize;
        let route = topo.min_route(from, via);
        for hop in route.iter() {
            cur = topo.neighbor(cur, hop.port as usize).unwrap().0;
            hops_taken += 1;
            // After `hops_taken` hops the escape (minimal continuation)
            // embeds after position `hops_taken - 1` — the packet can
            // always fall back to a strictly-increasing minimal path.
            let esc: Vec<LinkClass> =
                topo.min_classes(cur, to).iter().copied().collect();
            prop_assert!(
                arr.embeds(&esc, Some(hops_taken - 1), (0, arr.len())),
                "escape {esc:?} after {hops_taken} hops in {}",
                arr.notation()
            );
        }
    }
}
