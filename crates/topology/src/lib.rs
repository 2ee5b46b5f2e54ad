//! # flexvc-topology — low-diameter network topologies
//!
//! Concrete topologies used by the FlexVC evaluation:
//!
//! * [`Dragonfly`] — the canonical Dragonfly of Kim et al. (ISCA 2008):
//!   groups of `a` fully-connected routers, `h` global links per router,
//!   `p` terminals per router, every pair of groups joined by exactly one
//!   global link when `g = a·h + 1`. This is the paper's evaluation
//!   platform (Table V uses the balanced `h = 8` instance with 2,064
//!   routers and 16,512 nodes).
//! * [`HyperX`] — the `n`-dimensional generalization of the flattened
//!   butterfly (all-to-all wiring per dimension, per-dimension link
//!   multiplicity, dimension-ordered minimal routes): a generic
//!   diameter-`n` network (single link class, no traversal-order
//!   restriction). Its 2-D unit-multiplicity instance,
//!   [`HyperX::regular`]`(2, k, p)`, is the `k × k` flattened butterfly —
//!   the paper's generic diameter-2 network of Figures 1/3 and
//!   Tables I/II.
//! * [`DragonflyPlus`] — Dragonfly+ / Megafly: groups are two-level fat
//!   trees (leaf routers with the hosts, spine routers with the global
//!   links), minimal routes are `leaf → spine → global → spine → leaf`,
//!   and Valiant detours go through a random leaf of an intermediate
//!   group. Completes the paper-line trio of low-diameter families
//!   (cf. arXiv:2306.13042).
//!
//! All topologies implement the [`Topology`] trait consumed by the
//! simulator: port-level adjacency, link classes, minimal route
//! computation (with baseline reference-path slots) and the group
//! structure needed by adversarial traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dragonfly;
pub mod dragonflyplus;
pub mod hyperx;
pub mod route;
pub mod serde_impls;
pub mod validate;

pub use dragonfly::{Dragonfly, GlobalArrangement};
pub use dragonflyplus::DragonflyPlus;
pub use hyperx::HyperX;
pub use route::{offset_slots, ClassPath, Route, RouteHop, MAX_HOPS};

use flexvc_core::classify::NetworkFamily;
use flexvc_core::LinkClass;

/// Port-level view of a network topology.
///
/// Routers are numbered `0..num_routers()`; each has `num_ports()` network
/// ports (injection/ejection channels are modelled by the simulator, not the
/// topology). Nodes (terminals) are numbered `0..num_nodes()` and attach in
/// blocks of `nodes_per_router()`.
pub trait Topology: Send + Sync {
    /// Number of routers.
    fn num_routers(&self) -> usize;

    /// Terminals attached to each router (`p` in Dragonfly notation).
    fn nodes_per_router(&self) -> usize;

    /// Network (inter-router) ports per router.
    fn num_ports(&self) -> usize;

    /// Remote end of a port: `(router, their_port)`, or `None` if the port
    /// is unwired (possible in truncated Dragonflies).
    fn neighbor(&self, router: usize, port: usize) -> Option<(usize, usize)>;

    /// Link class of a port.
    fn port_class(&self, router: usize, port: usize) -> LinkClass;

    /// Minimal route between two routers, annotated with baseline
    /// reference-path slots. Empty when `from == to`.
    fn min_route(&self, from: usize, to: usize) -> Route;

    /// Network diameter in hops.
    fn diameter(&self) -> usize;

    /// Classification family (link-class restrictions or generic).
    fn family(&self) -> NetworkFamily;

    /// Number of groups (Dragonfly) or rows (FB); the unit of adversarial
    /// traffic displacement.
    fn num_groups(&self) -> usize;

    /// Group of a router.
    fn group_of_router(&self, router: usize) -> usize;

    // ------------------------------------------------------------------
    // Provided methods
    // ------------------------------------------------------------------

    /// Total number of terminals. The default assumes every router carries
    /// [`Topology::nodes_per_router`] terminals; topologies whose hosts
    /// attach to a subset of routers (Dragonfly+ leaves) override this
    /// together with [`Topology::router_of_node`] and
    /// [`Topology::node_base`].
    fn num_nodes(&self) -> usize {
        self.num_routers() * self.nodes_per_router()
    }

    /// Router a node attaches to.
    fn router_of_node(&self, node: usize) -> usize {
        node / self.nodes_per_router()
    }

    /// First node id attached to `router`. Nodes attach in contiguous
    /// blocks, so a router's terminals are
    /// `node_base(r) .. node_base(r) + nodes_per_router()` (hostless
    /// routers — Dragonfly+ spines — return the boundary where their block
    /// would sit; the simulator never enumerates nodes for them because no
    /// node maps back to such a router).
    fn node_base(&self, router: usize) -> usize {
        router * self.nodes_per_router()
    }

    /// Group of a node.
    fn group_of_node(&self, node: usize) -> usize {
        self.group_of_router(self.router_of_node(node))
    }

    /// Routers per group.
    fn routers_per_group(&self) -> usize {
        self.num_routers() / self.num_groups()
    }

    /// Natural shard-alignment block: the number of consecutive router ids
    /// forming one topological unit — a Dragonfly/Dragonfly+ group, a
    /// HyperX last-dimension hyperplane. Every
    /// built-in topology numbers routers group-major, so unit `u` covers
    /// routers `u * partition_unit() .. (u + 1) * partition_unit()` and a
    /// router partition whose boundaries land on unit boundaries never
    /// cuts an intra-group (local) link. Returns 1 (no useful alignment)
    /// when the group structure does not tile the router range.
    ///
    /// Contract: when this returns `unit > 1`, `group_of_router(r)` must
    /// equal `r / unit` for every router — override if group ids are not
    /// contiguous ranges.
    fn partition_unit(&self) -> usize {
        let rpg = self.routers_per_group();
        if rpg > 0 && rpg * self.num_groups() == self.num_routers() {
            rpg
        } else {
            1
        }
    }

    /// Load-balance weight of a router for shard partitioning. Per-cycle
    /// simulation work scales with a router's port count (links,
    /// allocation, credit machinery) plus its attached terminals
    /// (generation and ejection), not with the router count alone:
    /// Dragonfly+ spines carry full port fan-out but zero hosts, so a
    /// count-balanced split systematically overloads leaf-heavy shards.
    fn router_weight(&self, router: usize) -> u64 {
        let next = if router + 1 == self.num_routers() {
            self.num_nodes()
        } else {
            self.node_base(router + 1)
        };
        (self.num_ports() + next.saturating_sub(self.node_base(router))) as u64
    }

    /// Which link classes cross a router partition (`owner[r]` = shard of
    /// router `r`): `(any Local link cut, any Global link cut)`. Drives
    /// the sharded engine's epoch length — the minimum latency over cut
    /// link classes lower-bounds how far in the future any cross-shard
    /// effect can land, so shards may free-run that many cycles between
    /// exchanges.
    fn cut_link_classes(&self, owner: &[u32]) -> (bool, bool) {
        let (mut local, mut global) = (false, false);
        for r in 0..self.num_routers() {
            for p in 0..self.num_ports() {
                let Some((peer, _)) = self.neighbor(r, p) else {
                    continue;
                };
                if owner[r] != owner[peer] {
                    match self.port_class(r, p) {
                        LinkClass::Local => local = true,
                        LinkClass::Global => global = true,
                    }
                    if local && global {
                        return (true, true);
                    }
                }
            }
        }
        (local, global)
    }

    /// Link classes of the minimal route: the FlexVC escape path the
    /// simulator's lookahead asks for from every router along a plan.
    /// Derived from [`Topology::min_route`], so the two cannot disagree.
    /// Only the Dragonfly overrides it, skipping the port arithmetic: its
    /// h = 2 FlexVC kernels ran 2–4 % slower with the derived version.
    fn min_classes(&self, from: usize, to: usize) -> ClassPath {
        self.min_route(from, to).iter().map(|h| h.class).collect()
    }

    /// Minimal distance in hops between two routers.
    fn min_distance(&self, from: usize, to: usize) -> usize {
        self.min_classes(from, to).len()
    }

    /// Parallel-copy ports: every port of `router` wired to the same
    /// neighbor as `port` (including `port` itself), in ascending port
    /// order, written into `out` (cleared first). This is the `k > 1` link
    /// multiplicity enumeration adaptive copy selection chooses over. The
    /// default scans all ports; topologies with structured port blocks
    /// (HyperX) override with a direct computation.
    fn parallel_ports(&self, router: usize, port: usize, out: &mut Vec<u16>) {
        out.clear();
        let Some((peer, _)) = self.neighbor(router, port) else {
            return;
        };
        for p in 0..self.num_ports() {
            if self.neighbor(router, p).map(|(r, _)| r) == Some(peer) {
                out.push(p as u16);
            }
        }
    }

    /// Number of candidate intermediate routers for Valiant-style detours.
    /// The default admits every router; topologies whose reference
    /// sequences only cover detours through traffic endpoints (Dragonfly+
    /// restricts intermediates to *leaf* routers so the detour stays
    /// `up-global-down | up-global-down`) override this together with
    /// [`Topology::valiant_via`].
    fn valiant_via_count(&self) -> usize {
        self.num_routers()
    }

    /// Map a uniform draw in `0..valiant_via_count()` to the detour router
    /// it denotes. The identity by default; overriding topologies keep the
    /// mapping uniform over their candidate set so Valiant stays unbiased.
    fn valiant_via(&self, draw: usize) -> usize {
        draw
    }

    /// Per-dimension divert candidates for dimensionally-adaptive (DAL)
    /// routing: for the *first dimension* in which `from` and `to` differ,
    /// push one `(via_router, port_to_via)` per intermediate coordinate of
    /// that dimension (skipping `from`'s and `to`'s own coordinates) into
    /// `out` (cleared first) and return `true`. A misroute to any candidate
    /// still fixes the dimension with one further hop (`via → to`'s
    /// coordinate), so a DAL detour costs exactly one extra hop per
    /// diverted dimension. Returns `false` when the topology has no
    /// per-dimension structure (the default) or `from == to`.
    fn dim_diverts(&self, from: usize, to: usize, out: &mut Vec<(usize, u16)>) -> bool {
        let _ = (from, to);
        out.clear();
        false
    }
}
