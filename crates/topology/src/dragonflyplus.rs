//! Dragonfly+ (Megafly) topology (Shpiner et al., HiPINEB 2017; Flajslik
//! et al.'s Megafly) — the third low-diameter family of the FlexVC
//! evaluation line, alongside Dragonfly and HyperX (cf. "Analysing
//! Mechanisms for Virtual Channel Management in Low-Diameter networks",
//! arXiv:2306.13042).
//!
//! Each group is a **two-level fat tree**: `leaves` leaf routers carry
//! `hosts_per_leaf` terminals each and connect *up* to all `spines` spine
//! routers of the group; spine routers carry the global links. Every pair
//! of groups is joined by exactly `global_mult` global links, spread over
//! the spines — each spine ends up with `global_mult · (groups − 1) /
//! spines` global ports (the shape constraint).
//!
//! ```text
//!   group G                                  group H
//!   spine₀ … spineₛ  ──── global links ────  spine₀ … spineₛ
//!     │  ╲ ╱  │   (mult per group pair)        │  ╲ ╱  │
//!     │  ╱ ╲  │   complete bipartite           │  ╱ ╲  │
//!   leaf₀ … leafₗ   leaf×spine within          leaf₀ … leafₗ
//!    ││     ││      each group                  ││     ││
//!   hosts  hosts                               hosts  hosts
//! ```
//!
//! Minimal inter-group routes are `leaf → spine → (global) → spine → leaf`
//! — the class sequence `local-up, global, local-down`, mapped onto the
//! Dragonfly's `L G L` texture (both local levels share
//! [`LinkClass::Local`]; up/down is implied by direction in the fat tree).
//! Intra-group routes are `leaf → spine → leaf` (`L L`, slots 0 and 2 of
//! the same reference). Valiant detours go through a random **leaf** of a
//! random intermediate group ([`Topology::valiant_via`] restricts the
//! candidate set), so a detour is `L G L | L G L` — exactly the Dragonfly
//! VAL reference and slot map.
//!
//! The family is classified as `NetworkFamily::DragonflyPlus`, *not*
//! `Dragonfly`: its worst-case minimal escape is longer. A detoured packet
//! parked on a spine that has no direct global link to the destination
//! group must descend to a leaf, re-ascend to the spine that owns the
//! link, cross, and descend — `L L G L` — which is what shifts the FlexVC
//! classifier boundaries (see `flexvc_core::classify`).
//!
//! Numbering is group-major with leaves first: group `G` owns routers
//! `G·(leaves+spines) ..`, locals `0..leaves` are leaves, the rest spines.
//! Hosts attach to leaves only; [`Topology::router_of_node`],
//! [`Topology::num_nodes`] and [`Topology::node_base`] are overridden
//! accordingly (node ids stay contiguous per group, which the adversarial
//! traffic generator relies on). Under ADV+1 every node of group `G`
//! sends to group `G+1`, funnelling all minimal traffic onto the
//! `global_mult` links joining the two groups — the bottleneck the
//! adaptive modes exist to avoid.
//!
//! Port layout is uniform across routers (the simulator's flat port-class
//! table requires it): ports `0 .. max(leaves, spines)` form the *local
//! block* (up links on leaves, down links on spines; the excess side of an
//! asymmetric group leaves the tail unwired), and the next
//! `global_mult · (groups − 1) / spines` ports are the *global block*,
//! wired on spines only.

use crate::route::{Route, RouteHop};
use crate::Topology;
use flexvc_core::classify::NetworkFamily;
use flexvc_core::LinkClass;

/// A Dragonfly+ (Megafly) network.
#[derive(Debug, Clone)]
pub struct DragonflyPlus {
    /// Leaf routers per group (hosts attach here).
    leaves: usize,
    /// Spine routers per group (global links attach here).
    spines: usize,
    /// Terminals per leaf router.
    hosts: usize,
    /// Global links per group pair.
    mult: usize,
    /// Number of groups.
    groups: usize,
    /// Global ports per spine: `mult · (groups − 1) / spines`.
    spine_h: usize,
    /// Width of the local port block: `max(leaves, spines)`.
    local_block: usize,
}

impl DragonflyPlus {
    /// Build a Dragonfly+ from per-group wiring parameters. Requires
    /// `leaves ≥ 1`, `spines ≥ 1`, `hosts_per_leaf ≥ 1`, `global_mult ≥ 1`,
    /// `groups ≥ 2`, and `global_mult · (groups − 1)` divisible by
    /// `spines` (each spine gets an equal share of the group's global
    /// links).
    pub fn new(
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
        global_mult: usize,
        groups: usize,
    ) -> Self {
        assert!(leaves >= 1, "at least one leaf router per group");
        assert!(spines >= 1, "at least one spine router per group");
        assert!(hosts_per_leaf >= 1, "at least one host per leaf");
        assert!(global_mult >= 1, "at least one global link per group pair");
        assert!(groups >= 2, "at least two groups");
        let channels = global_mult * (groups - 1);
        assert!(
            channels.is_multiple_of(spines),
            "global_mult * (groups - 1) must be divisible by spines"
        );
        DragonflyPlus {
            leaves,
            spines,
            hosts: hosts_per_leaf,
            mult: global_mult,
            groups,
            spine_h: channels / spines,
            local_block: leaves.max(spines),
        }
    }

    /// Balanced Dragonfly+: `s` leaves, `s` spines, `s` hosts per leaf,
    /// one global link per group pair, and `s² + 1` groups (every spine
    /// port populated — the fully-subscribed analogue of the balanced
    /// Dragonfly). `balanced(2)` is a 20-router / 20-node test network.
    pub fn balanced(s: usize) -> Self {
        Self::new(s, s, s, 1, s * s + 1)
    }

    /// Leaf routers per group.
    #[inline]
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Spine routers per group.
    #[inline]
    pub fn spines(&self) -> usize {
        self.spines
    }

    /// Terminals per leaf router.
    #[inline]
    pub fn hosts_per_leaf(&self) -> usize {
        self.hosts
    }

    /// Global links per group pair.
    #[inline]
    pub fn global_mult(&self) -> usize {
        self.mult
    }

    /// Global ports per spine router.
    #[inline]
    pub fn spine_global_ports(&self) -> usize {
        self.spine_h
    }

    /// Routers per group (`leaves + spines`).
    #[inline]
    fn rpg(&self) -> usize {
        self.leaves + self.spines
    }

    /// Local index of a router within its group (`0..leaves` = leaves).
    #[inline]
    pub fn local_index(&self, router: usize) -> usize {
        router % self.rpg()
    }

    /// Whether a router is a spine (holds global links, no hosts).
    #[inline]
    pub fn is_spine(&self, router: usize) -> bool {
        self.local_index(router) >= self.leaves
    }

    /// Router id of leaf `leaf` of `group`.
    #[inline]
    pub fn leaf_router(&self, group: usize, leaf: usize) -> usize {
        debug_assert!(leaf < self.leaves);
        group * self.rpg() + leaf
    }

    /// Router id of spine `spine` of `group`.
    #[inline]
    pub fn spine_router(&self, group: usize, spine: usize) -> usize {
        debug_assert!(spine < self.spines);
        group * self.rpg() + self.leaves + spine
    }

    /// Destination group of global channel `l` (`0 .. mult·(groups−1)`) of
    /// `group`: channels are blocked by peer group, `mult` copies each.
    #[inline]
    pub fn global_channel_dst(&self, group: usize, l: usize) -> usize {
        let q = l / self.mult;
        debug_assert!(q < self.groups - 1);
        (group + q + 1) % self.groups
    }

    /// Global channel of `group` whose copy `copy` reaches `dst_group`
    /// (requires `dst_group != group`).
    #[inline]
    pub fn channel_to_group(&self, group: usize, dst_group: usize, copy: usize) -> usize {
        debug_assert_ne!(group, dst_group);
        debug_assert!(copy < self.mult);
        let q = (dst_group + self.groups - group - 1) % self.groups;
        debug_assert!(q < self.groups - 1);
        q * self.mult + copy
    }

    /// `(router, port)` pair of global channel `l` within `group`: spines
    /// own `spine_h` consecutive channels each.
    #[inline]
    pub fn channel_endpoint(&self, group: usize, l: usize) -> (usize, usize) {
        let spine = l / self.spine_h;
        let gp = l % self.spine_h;
        (self.spine_router(group, spine), self.local_block + gp)
    }

    /// Deterministic parallel-copy choice for a route between two routers,
    /// spread across the `mult` copies by endpoint pair (0 when `mult = 1`).
    #[inline]
    fn route_copy(&self, from: usize, to: usize) -> usize {
        (from + to) % self.mult
    }

    /// Deterministic intermediate pick (spine for leaf→leaf, leaf for
    /// spine-endpoint detours), spread by endpoint pair.
    #[inline]
    fn route_mid(&self, from: usize, to: usize, n: usize) -> usize {
        (from + to) % n
    }

    /// Append the hops taking `cur` to `target` inside one group, on
    /// consecutive slots.
    fn push_local(&self, cur: usize, target: usize, route: &mut Route) {
        if cur == target {
            return;
        }
        let (cl, tl) = (self.local_index(cur), self.local_index(target));
        match (cl < self.leaves, tl < self.leaves) {
            (true, true) => {
                let via = self.route_mid(cur, target, self.spines);
                push_hop(route, via, LinkClass::Local); // up to spine `via`
                push_hop(route, tl, LinkClass::Local); // down to the target leaf
            }
            // Up port = spine index.
            (true, false) => push_hop(route, tl - self.leaves, LinkClass::Local),
            // Down port = leaf index.
            (false, true) => push_hop(route, tl, LinkClass::Local),
            (false, false) => {
                let via = self.route_mid(cur, target, self.leaves);
                push_hop(route, via, LinkClass::Local); // down to leaf `via`
                push_hop(route, tl - self.leaves, LinkClass::Local); // up to the target spine
            }
        }
    }
}

/// Append a hop on the next consecutive slot.
fn push_hop(route: &mut Route, port: usize, class: LinkClass) {
    let slot = route.len() as u8;
    route.push(RouteHop {
        port: port as u16,
        class,
        slot,
    });
}

impl Topology for DragonflyPlus {
    fn num_routers(&self) -> usize {
        self.groups * self.rpg()
    }

    /// Terminals per *leaf* router; spines carry none (see the node-mapping
    /// overrides below).
    fn nodes_per_router(&self) -> usize {
        self.hosts
    }

    fn num_ports(&self) -> usize {
        self.local_block + self.spine_h
    }

    fn neighbor(&self, router: usize, port: usize) -> Option<(usize, usize)> {
        if port >= self.num_ports() {
            return None;
        }
        let group = router / self.rpg();
        let local = self.local_index(router);
        if local < self.leaves {
            // Leaf: up links to the group's spines; the rest unwired.
            (port < self.spines).then(|| (self.spine_router(group, port), local))
        } else {
            let spine = local - self.leaves;
            if port < self.leaves {
                // Down link to leaf `port`; its up port is the spine index.
                Some((self.leaf_router(group, port), spine))
            } else if port < self.local_block {
                None // asymmetric local block: unwired tail
            } else {
                let l = spine * self.spine_h + (port - self.local_block);
                let dst = self.global_channel_dst(group, l);
                let l_back = self.channel_to_group(dst, group, l % self.mult);
                Some(self.channel_endpoint(dst, l_back))
            }
        }
    }

    fn port_class(&self, _router: usize, port: usize) -> LinkClass {
        if port < self.local_block {
            LinkClass::Local
        } else {
            LinkClass::Global
        }
    }

    /// Hierarchical minimal route. Leaf-to-leaf routes carry the canonical
    /// baseline slots (`up = 0`, `global = 1`, `down = 2`; intra-group
    /// `up = 0`, `down = 2`) — these are the only routes the planner ever
    /// builds (sources, destinations and Valiant intermediates are all
    /// leaves). Routes with a spine endpoint exist for FlexVC escape
    /// queries and reversion mid-detour; they use plain consecutive slots,
    /// which FlexVC ignores (the baseline policy never sees them: it has
    /// no reversion and its plans are leaf-to-leaf).
    fn min_route(&self, from: usize, to: usize) -> Route {
        let mut route = Route::new();
        let (gf, gt) = (self.group_of_router(from), self.group_of_router(to));
        let leaf_pair = !self.is_spine(from) && !self.is_spine(to);
        if gf == gt {
            self.push_local(from, to, &mut route);
            // Leaf → leaf lands on the canonical slots 0 (up) / 2 (down).
            if leaf_pair && route.len() == 2 {
                route[1].slot = 2;
            }
            return route;
        }
        let l = self.channel_to_group(gf, gt, self.route_copy(from, to));
        let (sr, sp) = self.channel_endpoint(gf, l);
        let l_back = self.channel_to_group(gt, gf, l % self.mult);
        let (tr, _) = self.channel_endpoint(gt, l_back);
        self.push_local(from, sr, &mut route);
        push_hop(&mut route, sp, LinkClass::Global);
        self.push_local(tr, to, &mut route);
        // Leaf-to-leaf: exactly up / global / down with canonical slots.
        debug_assert!(!leaf_pair || route.len() == 3);
        route
    }

    /// Hierarchical leaf-to-leaf diameter (hosts attach to leaves only).
    /// Spine-origin minimal *continuations* — FlexVC escape queries — can
    /// take one extra hop (`L L G L`), which the classifier accounts for
    /// through `NetworkFamily::DragonflyPlus`.
    fn diameter(&self) -> usize {
        3
    }

    fn family(&self) -> NetworkFamily {
        NetworkFamily::DragonflyPlus
    }

    fn num_groups(&self) -> usize {
        self.groups
    }

    fn group_of_router(&self, router: usize) -> usize {
        router / self.rpg()
    }

    // --- node mapping: hosts attach to leaves only ---------------------

    fn num_nodes(&self) -> usize {
        self.groups * self.leaves * self.hosts
    }

    fn router_of_node(&self, node: usize) -> usize {
        let per_group = self.leaves * self.hosts;
        let group = node / per_group;
        let leaf = (node % per_group) / self.hosts;
        self.leaf_router(group, leaf)
    }

    fn node_base(&self, router: usize) -> usize {
        let group = router / self.rpg();
        let local = self.local_index(router).min(self.leaves);
        (group * self.leaves + local) * self.hosts
    }

    // --- Valiant intermediates: leaves only ----------------------------

    /// Valiant detours go through leaves only, so a detour is
    /// `up-global-down | up-global-down` — the Dragonfly `L G L | L G L`
    /// reference and slot map. Admitting spines would stretch the
    /// reference past `T²·3` (a spine-to-leaf minimal route can take four
    /// hops).
    fn valiant_via_count(&self) -> usize {
        self.groups * self.leaves
    }

    fn valiant_via(&self, draw: usize) -> usize {
        self.leaf_router(draw / self.leaves, draw % self.leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{bfs_distances, check_connected, check_wiring};
    use flexvc_core::seq;

    fn small() -> DragonflyPlus {
        DragonflyPlus::balanced(2) // 5 groups × (2+2) routers, 20 nodes
    }

    fn shapes() -> Vec<DragonflyPlus> {
        vec![
            DragonflyPlus::balanced(2),
            DragonflyPlus::balanced(3),
            DragonflyPlus::new(4, 4, 2, 1, 9),
            DragonflyPlus::new(3, 2, 1, 2, 5), // mult 2: 2·4/2 = 4 ports/spine
            DragonflyPlus::new(2, 4, 1, 1, 5), // more spines than leaves
            DragonflyPlus::new(4, 2, 2, 1, 5), // more leaves than spines
        ]
    }

    #[test]
    fn balanced_dimensions() {
        let t = small();
        assert_eq!(t.num_routers(), 20);
        assert_eq!(t.num_nodes(), 20);
        assert_eq!(t.num_groups(), 5);
        assert_eq!(t.routers_per_group(), 4);
        assert_eq!(t.spine_global_ports(), 2); // s² channels over s spines
        assert_eq!(t.num_ports(), 2 + 2);
        assert_eq!(t.diameter(), 3);
        assert_eq!(t.family(), NetworkFamily::DragonflyPlus);

        let wide = DragonflyPlus::new(4, 4, 2, 1, 9);
        assert_eq!(wide.num_routers(), 72);
        assert_eq!(wide.num_nodes(), 72);
        assert_eq!(wide.spine_global_ports(), 2);
        assert_eq!(wide.num_ports(), 4 + 2);
    }

    #[test]
    fn wiring_checks_pass_across_shapes() {
        for t in shapes() {
            check_wiring(&t).unwrap_or_else(|e| {
                panic!("{}/{}/{}: {e}", t.leaves(), t.spines(), t.num_groups())
            });
            check_connected(&t).unwrap_or_else(|e| {
                panic!("{}/{}/{}: {e}", t.leaves(), t.spines(), t.num_groups())
            });
        }
    }

    #[test]
    fn port_classes_are_uniform_and_split_local_global() {
        for t in shapes() {
            for r in 0..t.num_routers() {
                for p in 0..t.num_ports() {
                    let want = if p < t.local_block {
                        LinkClass::Local
                    } else {
                        LinkClass::Global
                    };
                    assert_eq!(t.port_class(r, p), want);
                    // Classes are a function of the port alone (the
                    // simulator builds one flat table from router 0).
                    assert_eq!(t.port_class(r, p), t.port_class(0, p));
                }
            }
        }
    }

    #[allow(clippy::needless_range_loop)] // g1/g2 index the count matrix
    #[test]
    fn every_group_pair_has_exactly_mult_global_links() {
        for t in shapes() {
            let g = t.num_groups();
            let mut count = vec![vec![0usize; g]; g];
            for r in 0..t.num_routers() {
                for port in t.local_block..t.num_ports() {
                    if let Some((nr, _)) = t.neighbor(r, port) {
                        count[t.group_of_router(r)][t.group_of_router(nr)] += 1;
                    }
                }
            }
            for g1 in 0..g {
                for g2 in 0..g {
                    let want = if g1 == g2 { 0 } else { t.global_mult() };
                    assert_eq!(count[g1][g2], want, "groups {g1}->{g2}");
                }
            }
        }
    }

    #[test]
    fn local_wiring_is_complete_bipartite() {
        let t = DragonflyPlus::new(4, 2, 1, 1, 5);
        for g in 0..t.num_groups() {
            for leaf in 0..t.leaves() {
                let r = t.leaf_router(g, leaf);
                for s in 0..t.spines() {
                    let (nr, np) = t.neighbor(r, s).expect("up link wired");
                    assert_eq!(nr, t.spine_router(g, s));
                    assert_eq!(np, leaf);
                }
                // Ports past the spine count are unwired on leaves.
                for p in t.spines()..t.num_ports() {
                    assert_eq!(t.neighbor(r, p), None);
                }
            }
        }
    }

    /// Leaf-to-leaf minimal routes: `up` (slot 0), `global` (slot 1),
    /// `down` (slot 2) across groups; `up` (0), `down` (2) within one.
    #[test]
    fn leaf_min_routes_are_canonical() {
        for t in shapes() {
            let dist_cache: Vec<Vec<usize>> =
                (0..t.num_routers()).map(|r| bfs_distances(&t, r)).collect();
            for gf in 0..t.num_groups() {
                for lf in 0..t.leaves() {
                    let from = t.leaf_router(gf, lf);
                    for gt in 0..t.num_groups() {
                        for lt in 0..t.leaves() {
                            let to = t.leaf_router(gt, lt);
                            let route = t.min_route(from, to);
                            let mut cur = from;
                            for hop in &route {
                                assert_eq!(t.port_class(cur, hop.port as usize), hop.class);
                                cur = t.neighbor(cur, hop.port as usize).expect("wired").0;
                            }
                            assert_eq!(cur, to, "route {from}->{to}");
                            let slots: Vec<u8> = route.iter().map(|h| h.slot).collect();
                            if from == to {
                                assert!(route.is_empty());
                            } else if gf == gt {
                                assert_eq!(route.len(), 2);
                                assert_eq!(slots, vec![0, 2]);
                                assert!(route.iter().all(|h| h.class == LinkClass::Local));
                            } else {
                                assert_eq!(route.len(), 3);
                                assert_eq!(slots, vec![0, 1, 2]);
                                let classes: Vec<LinkClass> =
                                    route.iter().map(|h| h.class).collect();
                                assert_eq!(classes, seq!(L G L).to_vec());
                            }
                            // Hierarchical routes are true shortest paths
                            // between leaves.
                            assert_eq!(route.len(), dist_cache[from][to], "{from}->{to}");
                            assert_eq!(t.min_classes(from, to).len(), route.len());
                        }
                    }
                }
            }
        }
    }

    /// Spine-endpoint routes (the FlexVC escape substrate): they reach,
    /// agree with `min_classes`, and every spine-to-leaf continuation is a
    /// subsequence of the worst-case escape `L L G L`.
    #[test]
    fn spine_escapes_reach_and_stay_within_the_worst_case() {
        let worst = seq!(L L G L);
        let embeds = |classes: &[LinkClass]| {
            let mut it = worst.iter();
            classes.iter().all(|c| it.by_ref().any(|w| w == c))
        };
        for t in shapes() {
            for r in 0..t.num_routers() {
                if !t.is_spine(r) {
                    continue;
                }
                for g in 0..t.num_groups() {
                    for leaf in 0..t.leaves() {
                        let to = t.leaf_router(g, leaf);
                        let route = t.min_route(r, to);
                        let mut cur = r;
                        for hop in &route {
                            assert_eq!(t.port_class(cur, hop.port as usize), hop.class);
                            cur = t.neighbor(cur, hop.port as usize).expect("wired").0;
                        }
                        assert_eq!(cur, to);
                        let classes: Vec<LinkClass> = route.iter().map(|h| h.class).collect();
                        assert_eq!(t.min_classes(r, to).as_slice(), &classes[..]);
                        assert!(
                            embeds(&classes),
                            "escape {classes:?} exceeds L L G L for {r}->{to}"
                        );
                        // Slots strictly increase (plan-capacity sanity).
                        let slots: Vec<u8> = route.iter().map(|h| h.slot).collect();
                        assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn spine_to_spine_routes_reach() {
        let t = DragonflyPlus::new(3, 2, 1, 2, 5);
        for from in 0..t.num_routers() {
            for to in 0..t.num_routers() {
                if !(t.is_spine(from) && t.is_spine(to)) {
                    continue;
                }
                let route = t.min_route(from, to);
                let mut cur = from;
                for hop in &route {
                    cur = t.neighbor(cur, hop.port as usize).expect("wired").0;
                }
                assert_eq!(cur, to);
                assert!(route.len() <= 5, "spine route {from}->{to} too long");
                assert_eq!(t.min_classes(from, to).len(), route.len());
            }
        }
    }

    #[test]
    fn node_mapping_covers_leaves_only() {
        for t in shapes() {
            assert_eq!(
                t.num_nodes(),
                t.num_groups() * t.leaves() * t.hosts_per_leaf()
            );
            for n in 0..t.num_nodes() {
                let r = t.router_of_node(n);
                assert!(!t.is_spine(r), "node {n} mapped to spine {r}");
                let base = t.node_base(r);
                assert!(base <= n && n < base + t.nodes_per_router());
                assert_eq!(t.group_of_node(n), t.group_of_router(r));
            }
            // Node ids are contiguous per group (the adversarial pattern's
            // NodeSpace assumes group-major node blocks).
            let per_group = t.leaves() * t.hosts_per_leaf();
            for n in 0..t.num_nodes() {
                assert_eq!(t.group_of_node(n), n / per_group);
            }
        }
    }

    #[test]
    fn valiant_vias_are_uniform_over_leaves() {
        for t in shapes() {
            assert_eq!(t.valiant_via_count(), t.num_groups() * t.leaves());
            let mut seen = std::collections::HashSet::new();
            for draw in 0..t.valiant_via_count() {
                let via = t.valiant_via(draw);
                assert!(!t.is_spine(via), "draw {draw} mapped to spine {via}");
                assert!(seen.insert(via), "draw {draw} repeats router {via}");
            }
        }
    }

    #[test]
    fn adv_plus_one_funnels_through_mult_channels() {
        for t in [small(), DragonflyPlus::new(3, 2, 1, 2, 5)] {
            let mut links = std::collections::HashSet::new();
            for lf in 0..t.leaves() {
                let from = t.leaf_router(0, lf);
                for lt in 0..t.leaves() {
                    let to = t.leaf_router(1, lt);
                    let mut cur = from;
                    for hop in t.min_route(from, to) {
                        if hop.class == LinkClass::Global {
                            links.insert((cur, hop.port));
                        }
                        cur = t.neighbor(cur, hop.port as usize).unwrap().0;
                    }
                }
            }
            assert!(
                links.len() <= t.global_mult(),
                "ADV+1 used {} links, expected <= mult = {}",
                links.len(),
                t.global_mult()
            );
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_global_share_rejected() {
        let _ = DragonflyPlus::new(2, 3, 1, 1, 5); // 4 channels / 3 spines
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn single_group_rejected() {
        let _ = DragonflyPlus::new(2, 2, 1, 1, 1);
    }
}
