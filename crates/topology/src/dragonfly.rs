//! Canonical Dragonfly topology (Kim, Dally, Scott, Abts — ISCA 2008).
//!
//! Parameters `(p, a, h)`: `p` terminals per router, `a` routers per group
//! (fully connected), `h` global links per router. A *balanced* Dragonfly
//! uses `a = 2h`, `p = h`; with `g = a·h + 1` groups every pair of groups is
//! joined by exactly one global link. The paper's Table V instance is the
//! balanced `h = 8` Dragonfly: 31-port routers (15 local + 8 global + 8
//! terminals), 16 routers per group, 129 groups, 2,064 routers and 16,512
//! nodes.
//!
//! Port layout per router: ports `0 .. a-2` are local (one per other router
//! of the group), ports `a-1 .. a-1+h` are global.
//!
//! Two global wiring arrangements are provided. Both connect group `G`'s
//! `ℓ`-th global channel (`ℓ = local_index·h + global_port`) to a distinct
//! other group and are involutive at the channel level:
//!
//! * [`GlobalArrangement::Consecutive`]: `dst = (G + ℓ + 1) mod g`
//! * [`GlobalArrangement::Palmtree`]:    `dst = (G − ℓ − 1) mod g`
//!
//! Under the adversarial pattern ADV+1 every node of group `G` sends to
//! group `G+1`; all minimal traffic then funnels through the single global
//! link joining the two groups — the bottleneck Valiant routing exists to
//! avoid.

use crate::route::{ClassPath, Route, RouteHop};
use crate::Topology;
use flexvc_core::classify::NetworkFamily;
use flexvc_core::LinkClass;

/// Global link wiring pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalArrangement {
    /// `dst = (G + ℓ + 1) mod g` — ADV+1 saturates channel `ℓ = 0`.
    Consecutive,
    /// `dst = (G − ℓ − 1) mod g` — ADV+1 saturates channel `ℓ = a·h − 1`.
    #[default]
    Palmtree,
}

/// A canonical Dragonfly network.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    /// Terminals per router.
    pub p: usize,
    /// Routers per group.
    pub a: usize,
    /// Global links per router.
    pub h: usize,
    /// Number of groups.
    pub g: usize,
    arrangement: GlobalArrangement,
}

impl Dragonfly {
    /// Build a Dragonfly with explicit parameters. `g` may be at most
    /// `a·h + 1`; smaller values leave some global ports unwired.
    pub fn new(p: usize, a: usize, h: usize, g: usize, arrangement: GlobalArrangement) -> Self {
        assert!(p >= 1 && a >= 2 && h >= 1, "degenerate dragonfly");
        assert!(g >= 2 && g <= a * h + 1, "g must be in 2..=a*h+1");
        Dragonfly {
            p,
            a,
            h,
            g,
            arrangement,
        }
    }

    /// Balanced Dragonfly: `p = h`, `a = 2h`, `g = a·h + 1` (the paper's
    /// configuration family; `h = 8` reproduces Table V exactly).
    pub fn balanced(h: usize) -> Self {
        Self::new(h, 2 * h, h, 2 * h * h + 1, GlobalArrangement::default())
    }

    /// Balanced Dragonfly with an explicit wiring arrangement.
    pub fn balanced_with(h: usize, arrangement: GlobalArrangement) -> Self {
        Self::new(h, 2 * h, h, 2 * h * h + 1, arrangement)
    }

    /// Local index of a router within its group.
    #[inline]
    pub fn local_index(&self, router: usize) -> usize {
        router % self.a
    }

    /// Router id from `(group, local_index)`.
    #[inline]
    pub fn router_id(&self, group: usize, local: usize) -> usize {
        group * self.a + local
    }

    /// First global port number.
    #[inline]
    fn global_port_base(&self) -> usize {
        self.a - 1
    }

    /// Local port on `from` leading to local router `to_local` of the same
    /// group.
    #[inline]
    pub fn local_port(&self, from_local: usize, to_local: usize) -> usize {
        debug_assert_ne!(from_local, to_local);
        if to_local < from_local {
            to_local
        } else {
            to_local - 1
        }
    }

    /// Destination group of global channel `l` (`0 ..= a·h − 1`) of group
    /// `group`, or `None` if the channel is unwired (`g < a·h + 1`).
    pub fn global_channel_dst(&self, group: usize, l: usize) -> Option<usize> {
        let dst = match self.arrangement {
            GlobalArrangement::Consecutive => (group + l + 1) % self.g,
            GlobalArrangement::Palmtree => (group + self.g - (l + 1) % self.g) % self.g,
        };
        // Channels that would wrap onto the group itself are unwired.
        if l >= self.g - 1 {
            return None;
        }
        debug_assert_ne!(dst, group);
        Some(dst)
    }

    /// Global channel of `group` that reaches `dst_group` (requires
    /// `dst_group != group`); `None` when the groups are not directly
    /// connected (only possible in truncated instances).
    pub fn channel_to_group(&self, group: usize, dst_group: usize) -> Option<usize> {
        debug_assert_ne!(group, dst_group);
        let l = match self.arrangement {
            GlobalArrangement::Consecutive => (dst_group + self.g - group - 1) % self.g,
            GlobalArrangement::Palmtree => (group + self.g - dst_group - 1) % self.g,
        };
        (l < self.g - 1 && l < self.a * self.h).then_some(l)
    }

    /// `(router, port)` pair of global channel `l` within `group`.
    #[inline]
    pub fn channel_endpoint(&self, group: usize, l: usize) -> (usize, usize) {
        let local = l / self.h;
        let gp = l % self.h;
        (self.router_id(group, local), self.global_port_base() + gp)
    }

    /// The `(router, port)` in `group` whose global link reaches
    /// `dst_group`, plus the entry `(router, port)` on the far side.
    pub fn global_hop(
        &self,
        group: usize,
        dst_group: usize,
    ) -> Option<((usize, usize), (usize, usize))> {
        let l = self.channel_to_group(group, dst_group)?;
        let src = self.channel_endpoint(group, l);
        let l_back = self.channel_to_group(dst_group, group)?;
        let dst = self.channel_endpoint(dst_group, l_back);
        Some((src, dst))
    }
}

impl Topology for Dragonfly {
    fn num_routers(&self) -> usize {
        self.g * self.a
    }

    fn nodes_per_router(&self) -> usize {
        self.p
    }

    fn num_ports(&self) -> usize {
        (self.a - 1) + self.h
    }

    fn neighbor(&self, router: usize, port: usize) -> Option<(usize, usize)> {
        let group = self.group_of_router(router);
        let local = self.local_index(router);
        if port < self.a - 1 {
            // Local link within the group's complete graph.
            let to_local = if port < local { port } else { port + 1 };
            let back = self.local_port(to_local, local);
            Some((self.router_id(group, to_local), back))
        } else {
            let gp = port - self.global_port_base();
            debug_assert!(gp < self.h);
            let l = local * self.h + gp;
            let dst_group = self.global_channel_dst(group, l)?;
            let l_back = self.channel_to_group(dst_group, group)?;
            let (r, p) = self.channel_endpoint(dst_group, l_back);
            Some((r, p))
        }
    }

    fn port_class(&self, _router: usize, port: usize) -> LinkClass {
        if port < self.a - 1 {
            LinkClass::Local
        } else {
            LinkClass::Global
        }
    }

    /// Minimal route with baseline slots `l0 g1 l2` (single-local-hop paths
    /// use slot 0 by convention).
    fn min_route(&self, from: usize, to: usize) -> Route {
        let mut route = Route::new();
        if from == to {
            return route;
        }
        let (gf, gt) = (self.group_of_router(from), self.group_of_router(to));
        if gf == gt {
            route.push(RouteHop {
                port: self.local_port(self.local_index(from), self.local_index(to)) as u16,
                class: LinkClass::Local,
                slot: 0,
            });
            return route;
        }
        let ((ra, pa), (rb, _)) = self
            .global_hop(gf, gt)
            .expect("full dragonflies connect every pair of groups");
        let mut cur = from;
        if cur != ra {
            route.push(RouteHop {
                port: self.local_port(self.local_index(cur), self.local_index(ra)) as u16,
                class: LinkClass::Local,
                slot: 0,
            });
            cur = ra;
        }
        debug_assert_eq!(cur, ra);
        route.push(RouteHop {
            port: pa as u16,
            class: LinkClass::Global,
            slot: 1,
        });
        cur = rb;
        if cur != to {
            route.push(RouteHop {
                port: self.local_port(self.local_index(cur), self.local_index(to)) as u16,
                class: LinkClass::Local,
                slot: 2,
            });
        }
        route
    }

    // Hand-written: deriving it from `min_route` slowed the h = 2 FlexVC lookahead kernels 2–4 %.
    fn min_classes(&self, from: usize, to: usize) -> ClassPath {
        let mut path = ClassPath::new();
        if from == to {
            return path;
        }
        let (gf, gt) = (self.group_of_router(from), self.group_of_router(to));
        if gf == gt {
            path.push(LinkClass::Local);
            return path;
        }
        let ((ra, _), (rb, _)) = self
            .global_hop(gf, gt)
            .expect("full dragonflies connect every pair of groups");
        if from != ra {
            path.push(LinkClass::Local);
        }
        path.push(LinkClass::Global);
        if rb != to {
            path.push(LinkClass::Local);
        }
        path
    }

    fn diameter(&self) -> usize {
        3
    }

    fn family(&self) -> NetworkFamily {
        NetworkFamily::Dragonfly
    }

    fn num_groups(&self) -> usize {
        self.g
    }

    fn group_of_router(&self, router: usize) -> usize {
        router / self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{bfs_distances, check_wiring};

    fn small() -> Dragonfly {
        Dragonfly::balanced(2) // p=2 a=4 h=2 g=9: 36 routers, 72 nodes
    }

    #[test]
    fn table_v_dimensions() {
        let d = Dragonfly::balanced(8);
        assert_eq!(d.num_routers(), 2064);
        assert_eq!(d.num_nodes(), 16512);
        assert_eq!(d.num_groups(), 129);
        assert_eq!(d.routers_per_group(), 16);
        assert_eq!(d.num_ports(), 15 + 8); // + 8 terminals = 31 ports
    }

    #[test]
    fn wiring_is_involutive_both_arrangements() {
        for arr in [GlobalArrangement::Consecutive, GlobalArrangement::Palmtree] {
            let d = Dragonfly::balanced_with(2, arr);
            check_wiring(&d).expect("wiring must be a clean involution");
        }
    }

    #[allow(clippy::needless_range_loop)] // g1/g2 index the count matrix
    #[test]
    fn every_group_pair_has_exactly_one_global_link() {
        let d = small();
        let mut count = vec![vec![0usize; d.g]; d.g];
        for r in 0..d.num_routers() {
            for port in d.a - 1..d.num_ports() {
                if let Some((nr, _)) = d.neighbor(r, port) {
                    count[d.group_of_router(r)][d.group_of_router(nr)] += 1;
                }
            }
        }
        for g1 in 0..d.g {
            for g2 in 0..d.g {
                let want = usize::from(g1 != g2);
                assert_eq!(count[g1][g2], want, "groups {g1}->{g2}");
            }
        }
    }

    #[test]
    fn local_links_form_complete_graph() {
        let d = small();
        for g in 0..d.g {
            for i in 0..d.a {
                let r = d.router_id(g, i);
                let mut seen = vec![false; d.a];
                for port in 0..d.a - 1 {
                    let (nr, _) = d.neighbor(r, port).unwrap();
                    assert_eq!(d.group_of_router(nr), g);
                    seen[d.local_index(nr)] = true;
                }
                let others = (0..d.a).filter(|&j| j != i).all(|j| seen[j]);
                assert!(others, "router {r} must reach all group peers");
            }
        }
    }

    #[test]
    fn min_route_reaches_destination() {
        let d = small();
        for from in 0..d.num_routers() {
            for to in 0..d.num_routers() {
                let route = d.min_route(from, to);
                let mut cur = from;
                for hop in &route {
                    let (nr, _) = d.neighbor(cur, hop.port as usize).expect("wired");
                    assert_eq!(d.port_class(cur, hop.port as usize), hop.class);
                    cur = nr;
                }
                assert_eq!(cur, to, "route {from}->{to}");
                assert!(route.len() <= 3);
            }
        }
    }

    /// Hierarchical l-g-l routing is minimal *within the hierarchy*; the
    /// underlying graph can contain shorter g-g shortcuts through third
    /// groups, which Dragonfly routing deliberately ignores.
    #[allow(clippy::needless_range_loop)] // `to` indexes the BFS distance table
    #[test]
    fn min_route_bounds_bfs_distance() {
        let d = small();
        for from in (0..d.num_routers()).step_by(5) {
            let dist = bfs_distances(&d, from);
            for to in 0..d.num_routers() {
                let len = d.min_route(from, to).len();
                assert!(len >= dist[to], "route {from}->{to} shorter than BFS?");
                assert!(len <= 3, "hierarchical route {from}->{to} too long");
                if d.group_of_router(from) == d.group_of_router(to) {
                    assert_eq!(len, dist[to], "intra-group routes are minimal");
                }
            }
        }
    }

    #[test]
    fn min_classes_agree_with_min_route() {
        let d = small();
        for from in 0..d.num_routers() {
            for to in 0..d.num_routers() {
                let route = d.min_route(from, to);
                let classes: Vec<_> = route.iter().map(|h| h.class).collect();
                assert_eq!(d.min_classes(from, to).as_slice(), &classes[..]);
            }
        }
    }

    #[test]
    fn diameter_is_three() {
        let d = small();
        let max = (0..d.num_routers())
            .map(|r| *bfs_distances(&d, r).iter().max().unwrap())
            .max()
            .unwrap();
        assert_eq!(max, 3);
    }

    #[test]
    fn baseline_slots_follow_reference() {
        let d = small();
        // Pick a pair in different groups with distinct end routers.
        let from = d.router_id(0, 1);
        let to = d.router_id(3, 2);
        let route = d.min_route(from, to);
        let slots: Vec<u8> = route.iter().map(|h| h.slot).collect();
        match route.len() {
            3 => assert_eq!(slots, vec![0, 1, 2]),
            2 => assert!(slots == vec![1, 2] || slots == vec![0, 1]),
            1 => assert!(slots == vec![0] || slots == vec![1]),
            _ => {}
        }
    }

    #[test]
    fn adv_plus_one_funnels_through_one_channel() {
        // All minimal routes from group 0 to group 1 share one global link.
        let d = small();
        let mut global_links = std::collections::HashSet::new();
        for i in 0..d.a {
            let from = d.router_id(0, i);
            for j in 0..d.a {
                let to = d.router_id(1, j);
                for hop in d.min_route(from, to) {
                    if hop.class == LinkClass::Global {
                        // Identify the link by its source (router, port).
                        // All paths must use the same one.
                        let mut cur = from;
                        for h2 in d.min_route(from, to) {
                            if h2.class == LinkClass::Global {
                                global_links.insert((cur, h2.port));
                                break;
                            }
                            cur = d.neighbor(cur, h2.port as usize).unwrap().0;
                        }
                    }
                }
            }
        }
        assert_eq!(global_links.len(), 1, "ADV+1 bottleneck must be unique");
    }

    #[test]
    fn group_helpers() {
        let d = small();
        assert_eq!(d.group_of_node(0), 0);
        assert_eq!(d.group_of_node(d.num_nodes() - 1), d.g - 1);
        assert_eq!(d.router_of_node(3), 1);
        assert_eq!(d.min_distance(0, 0), 0);
    }
}
