//! Path planning: the per-hop routing-decision layer.
//!
//! This module is the simulator half of the `RoutePolicy` pipeline: the
//! pure decision rules live in `flexvc_core::decision`; here they are bound
//! to a concrete topology and the engine's sensed state. One object —
//! [`RoutePolicy`] — owns *every* routing decision of a simulation:
//!
//! * **injection planning** ([`RoutePolicy::plan_injection`]): MIN / VAL
//!   plans, PB's board-vetoed credit choice, UGAL-L/G's hop-weighted
//!   comparison and DAL's first-dimension decision, all evaluated when a
//!   packet reaches the head of its injection queue (fresh congestion
//!   state);
//! * **in-transit decisions** ([`RoutePolicy::transit_update`]): PAR's
//!   one-shot divert after the first minimal hop, DAL's per-dimension
//!   misroutes at every router, and adaptive parallel-copy (`k > 1`)
//!   re-selection.
//!
//! The engine calls exactly these two entry points — `plan_injection`
//! from the route-planning phase, `transit_update` from head evaluation
//! (only when [`RoutePolicy::decides_in_transit`]) — and nothing else; it
//! no longer contains routing-mode special cases. Congestion reaches the
//! policy only through [`SenseView`], the simulator's implementation of
//! [`flexvc_core::decision::SensedState`] over credit mirrors and
//! piggyback boards (see that module's docs for the exact contract the
//! view upholds). Valiant intermediates are drawn through
//! [`Topology::valiant_via`], which restricts the candidate set on
//! topologies whose references only cover endpoint detours (Dragonfly+
//! leaves) and is the identity elsewhere.
//!
//! Plans carry the *reference-path slots* used by the baseline
//! distance-based policy. FlexVC ignores slots entirely; it derives allowed
//! VCs from the remaining class sequence (see `flexvc-core`).
//!
//! Slot layout per routing mode:
//!
//! * MIN: `l0 g1 l2` (Dragonfly) / `t0 t1` (diameter-2). Dragonfly+
//!   shares the Dragonfly layout with `up = l0`, `global = g1`,
//!   `down = l2` (intra-group routes take `l0`/`l2` of the same
//!   reference).
//! * VAL `l0 g1 l2 | l3 g4 l5`: first subpath uses MIN slots, second is
//!   offset by the diameter-dependent reference length (3 / 2). PB and
//!   UGAL-L/G plan whole MIN or VAL paths and share this layout;
//!   Dragonfly+ detours (leaf vias only) land on it verbatim.
//! * PAR `l0 | l1 g2 l3 l4 g5 l6`: first minimal hop at slot 0; a
//!   non-diverted continuation maps its global to slot 2 and final local to
//!   slot 3; a diverted path offsets the Valiant subpaths by +1 and +4
//!   (+1/+3 for diameter-2).
//! * DAL `t0 t1 | t2 t3 | …`: each dimension correction owns a *pair* of
//!   slots — the direct hop takes the even slot, a misroute takes the even
//!   slot and its correction the odd one — so any divert pattern yields
//!   strictly increasing slots within the `T^2d` reference.

use crate::bank::{Occupancy, MAX_VCS};
use crate::config::SimConfig;
use crate::packet::{Packet, PlannedPath};
use crate::sensing::GroupBoard;
use flexvc_core::classify::NetworkFamily;
use flexvc_core::decision::{
    choose_nonminimal, dal_divert_choice, least_occupied, ugal_choice, PathChoice, SensedState,
};
use flexvc_core::{LinkClass, MessageClass, RoutingMode};
use flexvc_topology::{offset_slots, Route, RouteHop, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Minimal plan with plain MIN slots.
pub fn min_plan(topo: &dyn Topology, from: usize, to: usize) -> PlannedPath {
    PlannedPath::from_route(&topo.min_route(from, to))
}

/// Draw a Valiant intermediate router: uniform over the topology's
/// candidate set ([`Topology::valiant_via`] — every router for
/// Dragonfly/HyperX, leaves only on Dragonfly+ so the
/// detour reference stays `L G L | L G L`). One `gen_range` call either
/// way, preserving the pre-refactor draw order on existing topologies.
fn draw_via(topo: &dyn Topology, rng: &mut SmallRng) -> usize {
    topo.valiant_via(rng.gen_range(0..topo.valiant_via_count()))
}

/// Valiant plan `from → via → to`; degenerate `via` choices (on the minimal
/// path endpoints) fall back to plain concatenation of the sub-routes.
pub fn valiant_plan(
    topo: &dyn Topology,
    family: NetworkFamily,
    from: usize,
    via: usize,
    to: usize,
) -> PlannedPath {
    let offset = second_subpath_offset(family);
    let mut first = topo.min_route(from, via);
    let mut second = topo.min_route(via, to);
    offset_slots(&mut second, offset);
    first.extend(second);
    PlannedPath::from_route(&first)
}

/// PAR plan used at injection: a minimal route whose slots leave room for a
/// later divert (`l0 g2 l3` in the Dragonfly reference).
pub fn par_min_plan(
    topo: &dyn Topology,
    family: NetworkFamily,
    from: usize,
    to: usize,
) -> PlannedPath {
    let mut route = topo.min_route(from, to);
    remap_par_min_slots(&mut route, family);
    PlannedPath::from_route(&route)
}

/// PAR divert plan adopted in-transit at `divert` (after the first minimal
/// hop): Valiant via `via` with subpath slots offset by +1 and the
/// reference length + 1.
pub fn par_divert_plan(
    topo: &dyn Topology,
    family: NetworkFamily,
    divert: usize,
    via: usize,
    to: usize,
) -> PlannedPath {
    let mut first = topo.min_route(divert, via);
    offset_slots(&mut first, 1);
    let mut second = topo.min_route(via, to);
    offset_slots(&mut second, second_subpath_offset(family) + 1);
    first.extend(second);
    PlannedPath::from_route(&first)
}

/// DAL plan used at injection: the DOR minimal route with each hop on the
/// *even* slot of its correction pair (`t0 t2 t4 …`), leaving the odd slot
/// of every pair free for an in-transit misroute.
pub fn dal_plan(topo: &dyn Topology, from: usize, to: usize) -> PlannedPath {
    let mut route = topo.min_route(from, to);
    for (i, hop) in route.iter_mut().enumerate() {
        hop.slot = (2 * i) as u8;
    }
    PlannedPath::from_route(&route)
}

/// DAL divert plan adopted when the correction pair starting at `base_slot`
/// misroutes: the misroute hop keeps the even slot, its correction takes
/// the odd one, and every later dimension keeps its own pair.
pub fn dal_divert_plan(
    topo: &dyn Topology,
    via_port: u16,
    via: usize,
    to: usize,
    base_slot: u8,
    class: LinkClass,
) -> PlannedPath {
    let mut route = Route::new();
    route.push(RouteHop {
        port: via_port,
        class,
        slot: base_slot,
    });
    let rest = topo.min_route(via, to);
    for (i, h) in rest.iter().enumerate() {
        let slot = if i == 0 {
            base_slot + 1
        } else {
            base_slot + 2 * i as u8
        };
        route.push(RouteHop {
            port: h.port,
            class: h.class,
            slot,
        });
    }
    PlannedPath::from_route(&route)
}

/// Offset of the second Valiant subpath in the reference sequence: the
/// length of the minimal reference (3 for Dragonfly, the diameter `d` for
/// generic networks).
fn second_subpath_offset(family: NetworkFamily) -> u8 {
    match family.generic_diameter() {
        None => 3,
        Some(d) => d as u8,
    }
}

/// Remap MIN slots into the PAR reference (`l0 l1 g2 l3 l4 g5 l6` in a
/// Dragonfly, `t0 t2 t3 … td` in a generic `T^(2d+1)` reference): the first
/// hop keeps slot 0; later hops shift past the divert slot.
fn remap_par_min_slots(route: &mut Route, family: NetworkFamily) {
    match family.generic_diameter() {
        None => {
            for hop in route.iter_mut() {
                hop.slot = match (hop.class, hop.slot) {
                    (LinkClass::Local, 0) => 0,
                    (LinkClass::Global, 1) => 2,
                    (LinkClass::Local, 2) => 3,
                    _ => hop.slot,
                };
            }
        }
        Some(_) => {
            // T^(2d+1) reference: keep slot 0, shift every later hop past
            // the divert slot 1.
            for hop in route.iter_mut() {
                if hop.slot >= 1 {
                    hop.slot += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sensed state
// ---------------------------------------------------------------------------

/// The engine's congestion view at one router, handed to the decision
/// layer: credit mirrors of the router's output ports, the per-group
/// piggyback boards, and the wiring needed to walk a minimal route to its
/// first sensed channel. `W` is the per-VC width of the mirrors.
pub struct SenseView<'a, const W: usize = MAX_VCS> {
    /// Credit mirrors of the deciding router's network output ports.
    pub out_credit: &'a [Occupancy<W>],
    /// Per-group saturation boards (empty unless the mode publishes them).
    pub boards: &'a [GroupBoard],
    /// Ports whose occupancy the sensing phase publishes.
    pub sense_ports: &'a [usize],
    /// `true` when every network port is sensed (single-class topologies).
    pub sense_all: bool,
    /// FlexVC-minCred: measure only minimally-routed occupancy.
    pub min_cred: bool,
    /// Flat adjacency of the whole network (`r*pp + port`).
    pub adj: &'a [Option<(u32, u16)>],
    /// Class per port index.
    pub port_class: &'a [LinkClass],
}

impl<const W: usize> SenseView<'_, W> {
    /// Raw total occupancy of an output port (PAR's divert metric, which
    /// predates minCred and always reads the full counter).
    #[inline]
    pub fn port_total(&self, port: u16) -> u32 {
        self.out_credit[port as usize].total()
    }

    /// Walk `min_route` from `r` to the first sensed channel (the first
    /// global hop in a Dragonfly; the very first hop on single-class
    /// topologies) and read its piggybacked saturation flag — PB's
    /// decision input. `false` when no boards are published.
    pub fn min_path_saturated(
        &self,
        topo: &dyn Topology,
        r: usize,
        min_route: &Route,
        class: MessageClass,
    ) -> bool {
        self.walk_saturation(topo, r, min_route, class, false)
    }

    /// Walk the *whole* minimal route and OR the saturation flags of every
    /// sensed channel along it — UGAL-G's globally-informed veto. Unlike
    /// PB's first-channel read, this sees congestion on any later hop
    /// (e.g. the adversarial last-dimension link of a HyperX, invisible to
    /// local credit at the source).
    pub fn min_path_saturated_any(
        &self,
        topo: &dyn Topology,
        r: usize,
        min_route: &Route,
        class: MessageClass,
    ) -> bool {
        self.walk_saturation(topo, r, min_route, class, true)
    }

    fn walk_saturation(
        &self,
        topo: &dyn Topology,
        r: usize,
        min_route: &Route,
        class: MessageClass,
        whole_path: bool,
    ) -> bool {
        if self.boards.is_empty() {
            return false;
        }
        let pp = topo.num_ports();
        let rpg = topo.routers_per_group();
        let mut cur = r;
        for hop in min_route {
            if self.sense_all || self.port_class[hop.port as usize] == LinkClass::Global {
                let group = topo.group_of_router(cur);
                let local = cur - group * rpg;
                // With all ports sensed the offset is the port itself;
                // only Dragonfly global ports need the lookup.
                let gp_off = if self.sense_all {
                    hop.port as usize
                } else {
                    self.sense_ports
                        .iter()
                        .position(|&g| g == hop.port as usize)
                        .expect("sense port")
                };
                let sat = self.remote_saturated(group, local, gp_off, class);
                if sat || !whole_path {
                    return sat;
                }
            }
            cur = self.adj[cur * pp + hop.port as usize].expect("wired").0 as usize;
        }
        false
    }
}

impl<const W: usize> SensedState for SenseView<'_, W> {
    /// Sensed occupancy after the configured credit metric (minCred splits
    /// min/non-min accounting, plain mode reads the total).
    fn port_occupancy(&self, port: u16) -> u32 {
        let occ = &self.out_credit[port as usize];
        if self.min_cred {
            occ.split_total().min_occupancy()
        } else {
            occ.total()
        }
    }

    fn remote_saturated(
        &self,
        group: usize,
        router_local: usize,
        channel: usize,
        class: MessageClass,
    ) -> bool {
        if self.boards.is_empty() {
            return false;
        }
        self.boards[group].read(router_local, channel, class)
    }
}

// ---------------------------------------------------------------------------
// RoutePolicy
// ---------------------------------------------------------------------------

/// The per-simulation routing-decision pipeline: one object per
/// [`crate::Network`], constructed from the configuration, consulted at
/// injection planning and (for in-transit modes) at every head evaluation.
pub struct RoutePolicy {
    mode: RoutingMode,
    family: NetworkFamily,
    /// UGAL/PB/DAL threshold `T` in phits.
    threshold_phits: u32,
    /// Route parallel `k > 1` copies by sensed occupancy instead of the
    /// endpoint hash.
    adaptive_copies: bool,
    /// DAL divert-candidate scratch.
    diverts: Vec<(usize, u16)>,
    /// Parallel-copy scratch.
    copies: Vec<u16>,
}

impl RoutePolicy {
    /// Build the policy for a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        RoutePolicy {
            mode: cfg.routing,
            family: cfg.topology.family(),
            threshold_phits: cfg.sensing.threshold * cfg.packet_size,
            adaptive_copies: cfg.adaptive_copies,
            diverts: Vec::new(),
            copies: Vec::new(),
        }
    }

    /// Whether head evaluations must consult [`RoutePolicy::transit_update`]
    /// (PAR's divert, DAL's per-dimension misroutes, adaptive copy
    /// re-selection).
    pub fn decides_in_transit(&self) -> bool {
        self.mode.decides_in_transit() || self.adaptive_copies
    }

    /// Plan a packet's route at injection. Returns the plan and whether it
    /// is minimal. Decisions consume congestion exclusively through
    /// `sense`; random draws (Valiant intermediates) come from the
    /// deciding router's RNG, preserving the pre-refactor draw order.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_injection<const W: usize>(
        &mut self,
        topo: &dyn Topology,
        sense: &SenseView<'_, W>,
        rng: &mut SmallRng,
        r: usize,
        dst_r: usize,
        class: MessageClass,
    ) -> (PlannedPath, bool) {
        if dst_r == r {
            return (PlannedPath::empty(), true);
        }
        let (mut plan, min_routed) = match self.mode {
            RoutingMode::Min => (min_plan(topo, r, dst_r), true),
            RoutingMode::Valiant => {
                let via = draw_via(topo, rng);
                (valiant_plan(topo, self.family, r, via, dst_r), false)
            }
            RoutingMode::Par => (par_min_plan(topo, self.family, r, dst_r), true),
            RoutingMode::Piggyback => {
                let min_route = topo.min_route(r, dst_r);
                // Same-group destinations route minimally.
                if topo.group_of_router(r) == topo.group_of_router(dst_r) {
                    return (PlannedPath::from_route(&min_route), true);
                }
                let sat = sense.min_path_saturated(topo, r, &min_route, class);
                let q_min = sense.port_occupancy(min_route[0].port);
                let via = draw_via(topo, rng);
                let val = valiant_plan(topo, self.family, r, via, dst_r);
                let q_val = val
                    .next_hop()
                    .map(|h| sense.port_occupancy(h.port))
                    .unwrap_or(u32::MAX);
                if choose_nonminimal(sat, q_min, q_val, self.threshold_phits)
                    && val.next_hop().is_some()
                {
                    (val, false)
                } else {
                    (PlannedPath::from_route(&min_route), true)
                }
            }
            RoutingMode::UgalL | RoutingMode::UgalG => {
                let min_route = topo.min_route(r, dst_r);
                // UGAL-G feeds the piggybacked saturation veto into the
                // comparison — over the *whole* minimal path, so remote
                // hot spots invisible to local credit trigger the detour;
                // UGAL-L is purely local.
                let sat = self.mode == RoutingMode::UgalG
                    && sense.min_path_saturated_any(topo, r, &min_route, class);
                let q_min = sense.port_occupancy(min_route[0].port);
                let via = draw_via(topo, rng);
                let val = valiant_plan(topo, self.family, r, via, dst_r);
                let q_val = val
                    .next_hop()
                    .map(|h| sense.port_occupancy(h.port))
                    .unwrap_or(u32::MAX);
                let nonmin = ugal_choice(
                    sat,
                    q_min,
                    min_route.len(),
                    q_val,
                    val.remaining_len(),
                    self.threshold_phits,
                ) == PathChoice::NonMinimal;
                if nonmin && val.next_hop().is_some() {
                    (val, false)
                } else {
                    (PlannedPath::from_route(&min_route), true)
                }
            }
            RoutingMode::Dal => {
                // DOR plan on even slots; the source router immediately
                // evaluates the first dimension's misroute with fresh
                // credit state (later dimensions decide in transit).
                let mut plan = dal_plan(topo, r, dst_r);
                let diverted = self.maybe_dal_divert(topo, sense, r, dst_r, &mut plan);
                (plan, !diverted)
            }
        };
        if self.adaptive_copies {
            self.repick_copy(topo, sense, r, &mut plan);
        }
        (plan, min_routed)
    }

    /// In-transit decision point, invoked once per head evaluation by the
    /// engine when [`RoutePolicy::decides_in_transit`]: PAR's one-shot
    /// divert (its own `par_evaluated` latch keeps it idempotent), DAL's
    /// per-dimension misroute and adaptive copy re-selection (latched by
    /// `Packet::hop_decided`, cleared on every buffer entry).
    ///
    /// Returns whether this call latched a decision (`hop_decided` or
    /// `par_evaluated` flipped). Every later call on the same head in the
    /// same buffer reads and draws nothing: it returns `false` untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn transit_update<const W: usize>(
        &mut self,
        topo: &dyn Topology,
        sense: &SenseView<'_, W>,
        rng: &mut SmallRng,
        r: usize,
        head: &mut Packet,
        is_injection: bool,
        in_class: LinkClass,
    ) -> bool {
        let par_latched = self.mode == RoutingMode::Par
            && !is_injection
            && self.maybe_par_divert(topo, sense, rng, r, head, in_class);
        if head.hop_decided {
            return par_latched;
        }
        head.hop_decided = true;
        if self.mode == RoutingMode::Dal && !is_injection && head.planned && !head.plan.is_done() {
            let dst_r = head.dst_router as usize;
            let mut plan = head.plan;
            if self.maybe_dal_divert(topo, sense, r, dst_r, &mut plan) {
                head.plan = plan;
                head.min_routed = false;
                head.derouted = true;
                head.flex_opts = None;
            }
        }
        if self.adaptive_copies && head.planned {
            let mut plan = head.plan;
            if self.repick_copy(topo, sense, r, &mut plan) {
                head.plan = plan;
                head.flex_opts = None;
            }
        }
        true
    }

    /// PAR: after the first minimal hop, decide whether to divert to a
    /// Valiant path based on local congestion toward the next minimal hop.
    /// Diverts exactly at the classic decision point: after one minimal
    /// *local* hop in the source group, before committing to the global hop
    /// (the divert slots l1.. lie between l0 and g2 in the reference;
    /// diverting after a global hop would descend positions). Returns
    /// whether the head was evaluated (and latched) by this call.
    fn maybe_par_divert<const W: usize>(
        &mut self,
        topo: &dyn Topology,
        sense: &SenseView<'_, W>,
        rng: &mut SmallRng,
        r: usize,
        head: &mut Packet,
        in_class: LinkClass,
    ) -> bool {
        if head.par_evaluated
            || !head.min_routed
            || head.hops != 1
            || head.plan.is_done()
            || in_class != LinkClass::Local
            || head.plan.next_hop().map(|h| h.class) != Some(LinkClass::Global)
        {
            return false;
        }
        head.par_evaluated = true;
        let dst_r = head.dst_router as usize;
        let next = *head.plan.next_hop().expect("plan not done");
        let q_min = sense.port_total(next.port);
        let via = draw_via(topo, rng);
        let divert = par_divert_plan(topo, self.family, r, via, dst_r);
        let Some(first) = divert.next_hop() else {
            return true;
        };
        let q_val = sense.port_total(first.port);
        if choose_nonminimal(false, q_min, q_val, self.threshold_phits) {
            head.plan = divert;
            head.min_routed = false;
            head.derouted = true;
            head.flex_opts = None;
        }
        true
    }

    /// DAL: misroute the plan's next correction pair through the
    /// least-occupied intermediate coordinate when the direct hop is
    /// congested enough. Only fresh-dimension hops (even slots) are
    /// eligible — a correction hop (odd slot) is committed, which bounds
    /// the detour to one misroute per dimension.
    fn maybe_dal_divert<const W: usize>(
        &mut self,
        topo: &dyn Topology,
        sense: &SenseView<'_, W>,
        r: usize,
        dst_r: usize,
        plan: &mut PlannedPath,
    ) -> bool {
        let Some(next) = plan.next_hop().copied() else {
            return false;
        };
        if next.slot % 2 != 0 {
            return false;
        }
        if !topo.dim_diverts(r, dst_r, &mut self.diverts) || self.diverts.is_empty() {
            return false;
        }
        let q_min = sense.port_occupancy(next.port);
        // Deterministic JSQ over the candidate ports (first-appearance
        // tie-break), shared with adaptive copy selection.
        self.copies.clear();
        self.copies.extend(self.diverts.iter().map(|&(_, p)| p));
        let (port, q_div) = least_occupied(sense, &self.copies).expect("non-empty candidates");
        let via = self
            .diverts
            .iter()
            .find(|&&(_, p)| p == port)
            .expect("port came from the candidate list")
            .0;
        if !dal_divert_choice(q_min, q_div, self.threshold_phits) {
            return false;
        }
        *plan = dal_divert_plan(topo, port, via, dst_r, next.slot, next.class);
        true
    }

    /// Adaptive `k > 1` copy selection: re-route the plan's next hop over
    /// the least-occupied parallel copy of its link (deterministic JSQ,
    /// ties to the lowest port). Returns whether the port changed.
    fn repick_copy<const W: usize>(
        &mut self,
        topo: &dyn Topology,
        sense: &SenseView<'_, W>,
        r: usize,
        plan: &mut PlannedPath,
    ) -> bool {
        let Some(hop) = plan.next_hop().copied() else {
            return false;
        };
        topo.parallel_ports(r, hop.port as usize, &mut self.copies);
        if self.copies.len() <= 1 {
            return false;
        }
        match least_occupied(sense, &self.copies) {
            Some((best, _)) if best != hop.port => {
                plan.set_next_port(best);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_topology::{Dragonfly, HyperX};

    #[test]
    fn valiant_plan_slots_are_offset() {
        let d = Dragonfly::balanced(2);
        // Pick src/via/dst in three different groups for a full 6-hop path.
        let from = d.router_id(0, 1);
        let via = d.router_id(4, 2);
        let to = d.router_id(7, 3);
        let plan = valiant_plan(&d, NetworkFamily::Dragonfly, from, via, to);
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        // Strictly increasing slots guarantee baseline deadlock-freedom.
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {slots:?}");
        assert!(plan.remaining_len() <= 6);
        // Second-subpath slots are >= 3.
        let n_first = d.min_route(from, via).len();
        for (i, h) in plan.remaining().iter().enumerate() {
            if i >= n_first {
                assert!(h.slot >= 3, "second subpath slot {}", h.slot);
            } else {
                assert!(h.slot < 3);
            }
        }
    }

    #[test]
    fn valiant_degenerate_via_is_minimal() {
        let d = Dragonfly::balanced(2);
        let from = d.router_id(0, 0);
        let to = d.router_id(2, 1);
        let plan = valiant_plan(&d, NetworkFamily::Dragonfly, from, from, to);
        assert_eq!(plan.remaining_len(), d.min_route(from, to).len());
    }

    #[test]
    fn par_min_slots_leave_divert_room() {
        let d = Dragonfly::balanced(2);
        let from = d.router_id(0, 1);
        let to = d.router_id(5, 2);
        let plan = par_min_plan(&d, NetworkFamily::Dragonfly, from, to);
        for h in plan.remaining() {
            match h.class {
                LinkClass::Global => assert_eq!(h.slot, 2),
                LinkClass::Local => assert!(h.slot == 0 || h.slot == 3),
            }
        }
    }

    #[test]
    fn par_divert_slots_fit_reference() {
        let d = Dragonfly::balanced(2);
        let divert = d.router_id(0, 2);
        let via = d.router_id(3, 1);
        let to = d.router_id(6, 0);
        let plan = par_divert_plan(&d, NetworkFamily::Dragonfly, divert, via, to);
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {slots:?}");
        // All diverted slots live past the first minimal hop (slot >= 1)
        // and within the 7-slot PAR reference.
        assert!(
            slots.iter().all(|&s| (1..7).contains(&s)),
            "slots {slots:?}"
        );
    }

    #[test]
    fn diameter3_hyperx_plans() {
        use flexvc_topology::HyperX;
        let t = HyperX::regular(3, 3, 1);
        let fam = NetworkFamily::generic(3);
        // Valiant slots strictly increase with the second subpath >= d = 3.
        let plan = valiant_plan(&t, fam, 0, 13, 26);
        assert!(plan.remaining_len() <= 6);
        let n_first = t.min_route(0, 13).len();
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {slots:?}");
        for (i, h) in plan.remaining().iter().enumerate() {
            if i >= n_first {
                assert!(h.slot >= 3, "second subpath slot {}", h.slot);
            } else {
                assert!(h.slot < 3);
            }
        }
        // PAR MIN slots leave room at slot 1 for the divert.
        let pm = par_min_plan(&t, fam, 0, 26);
        let slots: Vec<u8> = pm.remaining().iter().map(|h| h.slot).collect();
        assert_eq!(slots, vec![0, 2, 3]);
        // PAR divert slots stay inside the T^7 reference and increase.
        let pd = par_divert_plan(&t, fam, 1, 13, 26);
        let slots: Vec<u8> = pd.remaining().iter().map(|h| h.slot).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {slots:?}");
        assert!(
            slots.iter().all(|&s| (1..7).contains(&s)),
            "slots {slots:?}"
        );
    }

    #[test]
    fn diameter2_plans() {
        let t = HyperX::regular(2, 4, 1);
        let plan = valiant_plan(&t, NetworkFamily::Diameter2, 0, 10, 15);
        assert!(plan.remaining_len() <= 4);
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {slots:?}");
        let pm = par_min_plan(&t, NetworkFamily::Diameter2, 0, 15);
        let slots: Vec<u8> = pm.remaining().iter().map(|h| h.slot).collect();
        assert_eq!(slots, vec![0, 2]);
    }

    #[test]
    fn dal_plan_uses_even_slots() {
        use flexvc_topology::HyperX;
        let t = HyperX::regular(3, 3, 1);
        // 0 -> 26 differs in all three dimensions.
        let plan = dal_plan(&t, 0, 26);
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        assert_eq!(slots, vec![0, 2, 4]);
        // A partial-distance pair still pairs up from slot 0.
        let plan = dal_plan(&t, 0, 2);
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        assert_eq!(slots, vec![0]);
    }

    #[test]
    fn dal_divert_plan_fills_correction_pairs() {
        use flexvc_topology::HyperX;
        let t = HyperX::regular(3, 3, 1);
        // Divert the first dimension of 0 -> 26 through coordinate 2's
        // router (id 2), then fix the remaining dimensions.
        let mut cands = Vec::new();
        assert!(t.dim_diverts(0, 26, &mut cands));
        let (via, port) = cands[0];
        let plan = dal_divert_plan(&t, port, via, 26, 0, LinkClass::Local);
        let slots: Vec<u8> = plan.remaining().iter().map(|h| h.slot).collect();
        // Misroute 0, correction 1, later dimensions on their even slots.
        assert_eq!(slots, vec![0, 1, 2, 4]);
        assert!(slots.iter().all(|&s| s < 6), "inside the T^6 reference");
        // The path reaches the destination.
        let mut cur = 0usize;
        for h in plan.remaining() {
            cur = t.neighbor(cur, h.port as usize).expect("wired").0;
        }
        assert_eq!(cur, 26);
    }

    /// Every divert pattern yields strictly increasing slots inside T^2d:
    /// simulate the worst case (all dimensions misrouted in sequence).
    #[test]
    fn dal_all_dims_misrouted_stays_in_reference() {
        use flexvc_topology::HyperX;
        let t = HyperX::regular(3, 3, 1);
        let (from, to) = (0usize, 26usize);
        let mut cur = from;
        let mut plan = dal_plan(&t, from, to);
        let mut slots = Vec::new();
        let mut cands = Vec::new();
        let mut hops = 0;
        while let Some(next) = plan.next_hop().copied() {
            if next.slot % 2 == 0 && t.dim_diverts(cur, to, &mut cands) && !cands.is_empty() {
                // Force the misroute at every opportunity.
                let (via, port) = cands[0];
                plan = dal_divert_plan(&t, port, via, to, next.slot, next.class);
            }
            let hop = *plan.next_hop().expect("non-empty");
            slots.push(hop.slot);
            cur = t.neighbor(cur, hop.port as usize).expect("wired").0;
            plan.advance();
            hops += 1;
            assert!(hops <= 6, "detour exceeded the T^6 reference");
        }
        assert_eq!(cur, to);
        assert_eq!(hops, 6, "every dimension misrouted once");
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots {slots:?}");
        assert_eq!(slots, vec![0, 1, 2, 3, 4, 5]);
    }
}
