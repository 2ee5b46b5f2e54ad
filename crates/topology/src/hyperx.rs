//! HyperX: the `n`-dimensional generalization of the flattened butterfly
//! (Ahn, Binkert, Davis, McLaren, Schreiber — SC 2009).
//!
//! Routers form an `S_0 × S_1 × … × S_{n-1}` lattice; within every
//! dimension each router connects to *all* routers sharing its other
//! coordinates, with a per-dimension link multiplicity `K_d` (parallel
//! links per peer pair, the bandwidth knob of the HyperX design space).
//! Minimal distance equals the number of differing coordinates, so the
//! diameter is `n` and every minimal route is dimension-ordered (DOR,
//! dimension 0 first) here — the deterministic order keeps baseline
//! reference-path slots well-defined (in the 2-D flattened butterfly,
//! the row hop comes first).
//!
//! Following the paper's generic-network abstraction all links share the
//! single class [`LinkClass::Local`] and deadlock avoidance is purely
//! distance-based: the classification family is
//! [`NetworkFamily::generic`]`(n)`, whose reference sequences are `T^n`
//! (MIN), `T^2n` (VAL/PB) and `T^(2n+1)` (PAR).
//!
//! The 2-D HyperX with unit multiplicity is the `k × k` flattened
//! butterfly, the paper's generic diameter-2 network.
//!
//! Groups (the unit of adversarial displacement) are the hyperplanes of
//! the last dimension: `ADV+1` sends every node of slice `X_{n-1} = i` to
//! the slice `i + 1`, funnelling all minimal inter-slice traffic onto the
//! single last-dimension link of each router pair — the DAL-style
//! bottleneck Valiant routing spreads.

use crate::route::{Route, RouteHop};
use crate::Topology;
use flexvc_core::classify::NetworkFamily;
use flexvc_core::LinkClass;

/// Maximum supported dimensionality: the PAR reference path `T^(2n+1)` must
/// fit a path's [`MAX_HOPS`](crate::MAX_HOPS) capacity, so `n ≤ 3`.
/// Re-exported from the reference-sequence source of truth in
/// `flexvc_core::routing`.
pub const MAX_DIMS: usize = flexvc_core::routing::MAX_GENERIC_DIAMETER;
// The PAR reference of the widest HyperX, `2n + 1` hops, fits a path.
const _: () = assert!(2 * MAX_DIMS < crate::MAX_HOPS);

/// An `n`-dimensional HyperX with per-dimension shape `(s, k)` —
/// `s` routers along the dimension, `k` parallel links per peer pair —
/// and `p` terminals per router.
#[derive(Debug, Clone)]
pub struct HyperX {
    /// Per-dimension `(s, k)`: size and link multiplicity.
    dims: Vec<(usize, usize)>,
    /// Terminals per router.
    p: usize,
    /// Router-id stride of each dimension (dimension 0 varies fastest).
    strides: Vec<usize>,
    /// First port index of each dimension's port block.
    port_base: Vec<usize>,
    /// Total network ports per router.
    ports: usize,
    /// Total routers.
    routers: usize,
}

impl HyperX {
    /// Build a HyperX from per-dimension `(s, k)` pairs with `p` terminals
    /// per router. Requires `1 ..= 3` dimensions, `s ≥ 2`, `k ≥ 1`, `p ≥ 1`.
    pub fn new(dims: Vec<(usize, usize)>, p: usize) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_DIMS,
            "HyperX supports 1..=3 dimensions"
        );
        assert!(p >= 1, "at least one terminal per router");
        for &(s, k) in &dims {
            assert!(s >= 2, "each dimension needs at least 2 routers");
            assert!(k >= 1, "link multiplicity must be at least 1");
        }
        let mut strides = Vec::with_capacity(dims.len());
        let mut port_base = Vec::with_capacity(dims.len());
        let (mut stride, mut base) = (1usize, 0usize);
        for &(s, k) in &dims {
            strides.push(stride);
            port_base.push(base);
            stride *= s;
            base += k * (s - 1);
        }
        HyperX {
            dims,
            p,
            strides,
            port_base,
            ports: base,
            routers: stride,
        }
    }

    /// Regular HyperX: `n` dimensions of `s` routers each, unit link
    /// multiplicity, `p` terminals per router.
    pub fn regular(n: usize, s: usize, p: usize) -> Self {
        Self::new(vec![(s, 1); n], p)
    }

    /// Number of dimensions (equals the diameter).
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension `(s, k)` shape.
    #[inline]
    pub fn dims(&self) -> &[(usize, usize)] {
        &self.dims
    }

    /// Coordinate of a router along `dim`.
    #[inline]
    pub fn coord(&self, router: usize, dim: usize) -> usize {
        (router / self.strides[dim]) % self.dims[dim].0
    }

    /// All coordinates of a router, dimension 0 first.
    pub fn coords(&self, router: usize) -> Vec<usize> {
        (0..self.num_dims())
            .map(|d| self.coord(router, d))
            .collect()
    }

    /// Router id from coordinates (dimension 0 first).
    pub fn router_at(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.num_dims());
        coords.iter().zip(&self.strides).map(|(&c, &s)| c * s).sum()
    }

    /// Port on a router at coordinate `from_c` of `dim` leading to the peer
    /// at `to_c`, over parallel copy `copy` (`0 .. k`).
    #[inline]
    fn peer_port(&self, dim: usize, from_c: usize, to_c: usize, copy: usize) -> usize {
        debug_assert_ne!(from_c, to_c);
        let (s, k) = self.dims[dim];
        debug_assert!(copy < k);
        let j = if to_c < from_c { to_c } else { to_c - 1 };
        self.port_base[dim] + copy * (s - 1) + j
    }

    /// Parallel-link copy a route between `from` and `to` uses in `dim`:
    /// deterministic, spread across the `k` copies by endpoint pair, and 0
    /// whenever `k = 1`.
    #[inline]
    fn route_copy(&self, dim: usize, from: usize, to: usize) -> usize {
        (from + to) % self.dims[dim].1
    }
}

impl Topology for HyperX {
    fn num_routers(&self) -> usize {
        self.routers
    }

    fn nodes_per_router(&self) -> usize {
        self.p
    }

    fn num_ports(&self) -> usize {
        self.ports
    }

    fn neighbor(&self, router: usize, port: usize) -> Option<(usize, usize)> {
        if port >= self.ports {
            return None;
        }
        // Which dimension's port block does `port` fall into?
        let dim = self.port_base.iter().rposition(|&b| b <= port)?;
        let (s, _) = self.dims[dim];
        let q = port - self.port_base[dim];
        let (copy, j) = (q / (s - 1), q % (s - 1));
        let c = self.coord(router, dim);
        let to_c = if j < c { j } else { j + 1 };
        let peer =
            (router as isize + (to_c as isize - c as isize) * self.strides[dim] as isize) as usize;
        Some((peer, self.peer_port(dim, to_c, c, copy)))
    }

    fn port_class(&self, _router: usize, _port: usize) -> LinkClass {
        LinkClass::Local // generic network: single class
    }

    /// Dimension-ordered minimal route (dimension 0 first, so row then
    /// column in 2-D) with consecutive baseline slots.
    fn min_route(&self, from: usize, to: usize) -> Route {
        let mut route = Route::new();
        if from == to {
            return route;
        }
        let mut slot = 0;
        for dim in 0..self.num_dims() {
            let (c1, c2) = (self.coord(from, dim), self.coord(to, dim));
            if c1 != c2 {
                let copy = self.route_copy(dim, from, to);
                route.push(RouteHop {
                    port: self.peer_port(dim, c1, c2, copy) as u16,
                    class: LinkClass::Local,
                    slot,
                });
                slot += 1;
            }
        }
        route
    }

    fn diameter(&self) -> usize {
        self.num_dims()
    }

    fn family(&self) -> NetworkFamily {
        NetworkFamily::generic(self.num_dims())
    }

    /// Hyperplanes of the last dimension play the role of groups for
    /// adversarial displacement (rows in the 2-D flattened butterfly).
    fn num_groups(&self) -> usize {
        self.dims[self.num_dims() - 1].0
    }

    fn group_of_router(&self, router: usize) -> usize {
        router / self.strides[self.num_dims() - 1]
    }

    /// Direct enumeration of the `k` parallel copies of a port's link: same
    /// dimension, same peer offset `j`, every copy index.
    fn parallel_ports(&self, _router: usize, port: usize, out: &mut Vec<u16>) {
        out.clear();
        if port >= self.ports {
            return;
        }
        let Some(dim) = self.port_base.iter().rposition(|&b| b <= port) else {
            return;
        };
        let (s, k) = self.dims[dim];
        let j = (port - self.port_base[dim]) % (s - 1);
        for copy in 0..k {
            out.push((self.port_base[dim] + copy * (s - 1) + j) as u16);
        }
    }

    /// DAL divert candidates: intermediate coordinates of the first
    /// differing dimension (DOR order), each one misroute hop away with a
    /// single correction hop remaining in that dimension.
    fn dim_diverts(&self, from: usize, to: usize, out: &mut Vec<(usize, u16)>) -> bool {
        out.clear();
        let Some(dim) = (0..self.num_dims()).find(|&d| self.coord(from, d) != self.coord(to, d))
        else {
            return false;
        };
        let (s, _) = self.dims[dim];
        let (from_c, to_c) = (self.coord(from, dim), self.coord(to, dim));
        for via_c in 0..s {
            if via_c == from_c || via_c == to_c {
                continue;
            }
            let via = (from as isize
                + (via_c as isize - from_c as isize) * self.strides[dim] as isize)
                as usize;
            let copy = self.route_copy(dim, from, via);
            out.push((via, self.peer_port(dim, from_c, via_c, copy) as u16));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{bfs_distances, check_connected, check_wiring, compute_diameter};

    #[test]
    fn dimensions_and_ports() {
        let t = HyperX::regular(3, 3, 2);
        assert_eq!(t.num_routers(), 27);
        assert_eq!(t.num_nodes(), 54);
        assert_eq!(t.num_ports(), 3 * 2);
        assert_eq!(t.num_groups(), 3);
        assert_eq!(t.routers_per_group(), 9);
        assert_eq!(t.diameter(), 3);
        assert_eq!(t.family(), NetworkFamily::generic(3));

        let mixed = HyperX::new(vec![(4, 1), (2, 3)], 1);
        assert_eq!(mixed.num_routers(), 8);
        assert_eq!(mixed.num_ports(), 3 + 3); // 1·(4−1) + 3·(2−1)
        assert_eq!(mixed.num_groups(), 2);
    }

    #[test]
    fn coords_roundtrip() {
        let t = HyperX::new(vec![(3, 1), (4, 2), (2, 1)], 1);
        for r in 0..t.num_routers() {
            assert_eq!(t.router_at(&t.coords(r)), r);
        }
    }

    #[test]
    fn wiring_checks_pass_across_shapes() {
        for t in [
            HyperX::regular(1, 5, 1),
            HyperX::regular(2, 4, 2),
            HyperX::regular(3, 3, 1),
            HyperX::new(vec![(3, 2), (4, 1)], 1),
            HyperX::new(vec![(2, 1), (3, 1), (4, 1)], 2),
        ] {
            check_wiring(&t).unwrap_or_else(|e| panic!("{:?}: {e}", t.dims()));
            check_connected(&t).unwrap_or_else(|e| panic!("{:?}: {e}", t.dims()));
            assert_eq!(compute_diameter(&t), t.num_dims(), "{:?}", t.dims());
        }
    }

    #[allow(clippy::needless_range_loop)] // `to` indexes the BFS distance table
    #[test]
    fn min_route_is_dor_and_minimal() {
        let t = HyperX::regular(3, 3, 1);
        for from in 0..t.num_routers() {
            let dist = bfs_distances(&t, from);
            for to in 0..t.num_routers() {
                let route = t.min_route(from, to);
                // Reaches the destination.
                let mut cur = from;
                let mut last_dim = None;
                for hop in &route {
                    let before = t.coords(cur);
                    let (next, _) = t.neighbor(cur, hop.port as usize).expect("wired");
                    let after = t.coords(next);
                    // Exactly one coordinate changes per hop, in ascending
                    // dimension order (DOR).
                    let changed: Vec<usize> = (0..t.num_dims())
                        .filter(|&d| before[d] != after[d])
                        .collect();
                    assert_eq!(changed.len(), 1);
                    assert!(last_dim < Some(changed[0]), "dimension order violated");
                    last_dim = Some(changed[0]);
                    cur = next;
                }
                assert_eq!(cur, to, "route {from}->{to}");
                // Minimal: length equals the BFS distance (= Hamming
                // distance over coordinates).
                assert_eq!(route.len(), dist[to]);
                assert_eq!(t.min_classes(from, to).len(), route.len());
                // Consecutive slots.
                for (i, hop) in route.iter().enumerate() {
                    assert_eq!(hop.slot as usize, i);
                }
            }
        }
    }

    #[test]
    fn multiplicity_adds_parallel_links() {
        let t = HyperX::new(vec![(3, 2)], 1);
        // Router 0 has 2 copies of links to routers 1 and 2.
        let mut peers = std::collections::HashMap::new();
        for port in 0..t.num_ports() {
            let (peer, _) = t.neighbor(0, port).unwrap();
            *peers.entry(peer).or_insert(0usize) += 1;
        }
        assert_eq!(peers.get(&1), Some(&2));
        assert_eq!(peers.get(&2), Some(&2));
        // Routes still resolve and reach over some copy.
        let route = t.min_route(0, 2);
        assert_eq!(route.len(), 1);
        assert_eq!(t.neighbor(0, route[0].port as usize).unwrap().0, 2);
    }

    #[test]
    fn adversarial_slices_share_one_link_per_router_pair() {
        // ADV+1 on a 2-D HyperX: all minimal traffic from slice g to g+1
        // crosses last-dimension links only.
        let t = HyperX::regular(2, 3, 1);
        for r in 0..3 {
            // Routers of slice 0 (y = 0) are 0..3.
            let from = r;
            for to in 3..6 {
                let route = t.min_route(from, to);
                let last = route.last().unwrap();
                // The final hop always changes the last dimension.
                let (next, _) = {
                    let mut cur = from;
                    for hop in &route[..route.len() - 1] {
                        cur = t.neighbor(cur, hop.port as usize).unwrap().0;
                    }
                    t.neighbor(cur, last.port as usize).unwrap()
                };
                assert_eq!(next, to);
                assert_eq!(t.group_of_router(to), 1);
            }
        }
    }

    /// The override must agree with the trait's default scan on every
    /// (router, port): same copies, same order.
    #[test]
    fn parallel_ports_match_default_scan() {
        for t in [
            HyperX::new(vec![(3, 2)], 1),
            HyperX::new(vec![(4, 2), (3, 1)], 1),
            HyperX::new(vec![(2, 1), (3, 3), (2, 2)], 1),
        ] {
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            for r in 0..t.num_routers() {
                for port in 0..t.num_ports() {
                    t.parallel_ports(r, port, &mut fast);
                    // The trait-provided scan, invoked through a shim that
                    // has no override.
                    struct Shim<'a>(&'a HyperX);
                    impl Topology for Shim<'_> {
                        fn num_routers(&self) -> usize {
                            self.0.num_routers()
                        }
                        fn nodes_per_router(&self) -> usize {
                            self.0.nodes_per_router()
                        }
                        fn num_ports(&self) -> usize {
                            self.0.num_ports()
                        }
                        fn neighbor(&self, r: usize, p: usize) -> Option<(usize, usize)> {
                            self.0.neighbor(r, p)
                        }
                        fn port_class(&self, r: usize, p: usize) -> LinkClass {
                            self.0.port_class(r, p)
                        }
                        fn min_route(&self, a: usize, b: usize) -> Route {
                            self.0.min_route(a, b)
                        }
                        fn diameter(&self) -> usize {
                            self.0.diameter()
                        }
                        fn family(&self) -> NetworkFamily {
                            self.0.family()
                        }
                        fn num_groups(&self) -> usize {
                            self.0.num_groups()
                        }
                        fn group_of_router(&self, r: usize) -> usize {
                            self.0.group_of_router(r)
                        }
                    }
                    Shim(&t).parallel_ports(r, port, &mut slow);
                    assert_eq!(fast, slow, "router {r} port {port} dims {:?}", t.dims());
                    assert!(fast.contains(&(port as u16)), "own port always a copy");
                }
            }
        }
    }

    #[test]
    fn dim_diverts_enumerate_intermediate_coords() {
        let t = HyperX::new(vec![(4, 1), (3, 1)], 1);
        let mut out = Vec::new();
        // from (0,0) to (2,1): first differing dimension is 0 with s = 4,
        // so the candidates are coordinates {1, 3}.
        let from = t.router_at(&[0, 0]);
        let to = t.router_at(&[2, 1]);
        assert!(t.dim_diverts(from, to, &mut out));
        let vias: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(vias, vec![t.router_at(&[1, 0]), t.router_at(&[3, 0])]);
        for &(via, port) in &out {
            // The port leads to the via router, and one hop fixes the rest
            // of the dimension.
            assert_eq!(t.neighbor(from, port as usize).unwrap().0, via);
            assert_ne!(t.coord(via, 0), t.coord(to, 0));
            assert_eq!(t.min_route(via, to).len(), 2); // fix dim 0, then dim 1
        }
        // Same coordinates in every dimension: no candidates.
        assert!(!t.dim_diverts(from, from, &mut out));
        assert!(out.is_empty());
        // A dimension of size 2 has no intermediate coordinate.
        let t2 = HyperX::regular(1, 2, 1);
        assert!(t2.dim_diverts(0, 1, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "1..=3 dimensions")]
    fn too_many_dims_rejected() {
        let _ = HyperX::regular(4, 2, 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 routers")]
    fn degenerate_dim_rejected() {
        let _ = HyperX::new(vec![(1, 1)], 1);
    }
}
