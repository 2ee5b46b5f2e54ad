//! Packets and planned paths.

use crate::bank::bounded_growth;
use flexvc_core::{CreditClass, HopVcs, MessageClass, TrafficClass};
use flexvc_topology::{Route, RouteHop};
use flexvc_traffic::FlowTag;

/// A packet's planned path: the route it follows and how far along it
/// the packet is. Inline and `Copy`, like every path.
#[derive(Debug, Clone, Copy)]
pub struct PlannedPath {
    route: Route,
    next: u8,
}

impl PlannedPath {
    /// Empty plan (packet already at its destination router).
    pub fn empty() -> Self {
        Self::from_route(&Route::new())
    }

    /// Follow a computed route from its first hop.
    pub fn from_route(route: &Route) -> Self {
        PlannedPath {
            route: *route,
            next: 0,
        }
    }

    /// Remaining hops (including the next one).
    pub fn remaining(&self) -> &[RouteHop] {
        &self.route[self.next as usize..]
    }

    /// Next hop, if any.
    pub fn next_hop(&self) -> Option<&RouteHop> {
        self.remaining().first()
    }

    /// Number of remaining hops.
    pub fn remaining_len(&self) -> usize {
        self.route.len() - self.next as usize
    }

    /// `true` when no hops remain.
    pub fn is_done(&self) -> bool {
        self.remaining_len() == 0
    }

    /// Advance past the next hop (called when a hop is granted).
    pub fn advance(&mut self) {
        debug_assert!(!self.is_done());
        self.next += 1;
    }

    /// Redirect the next hop over a parallel copy of its link (adaptive
    /// `k > 1` copy selection): same neighbor, same class and slot, a
    /// different physical port.
    pub fn set_next_port(&mut self, port: u16) {
        debug_assert!(!self.is_done(), "no next hop to redirect");
        self.route[self.next as usize].port = port;
    }
}

/// A packet in flight. The engine writes it once into its packet arena at
/// injection and updates it in place at every hop; its queues hold only
/// a 32-bit handle. Flow identity lives in the arena's per-slot side
/// table rather than here, so synthetic workloads do not carry flow tags.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id (monotonic per simulation).
    pub id: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Destination router (cached).
    pub dst_router: u32,
    /// Message class (request/reply).
    pub class: MessageClass,
    /// QoS traffic class (control/bulk) assigned by the workload layer;
    /// drives priority arbitration and per-class metrics.
    pub tclass: TrafficClass,
    /// Size in phits.
    pub size: u32,
    /// Generation cycle (latency baseline; reply creation time for replies).
    pub gen_cycle: u64,
    /// Cycle the head phit arrived in the current buffer (cut-through
    /// eligibility).
    pub head_arrival: u64,
    /// Cycle the tail phit arrives in the current buffer.
    pub tail_arrival: u64,
    /// Position of the current buffer in the master sequence (`None` while
    /// in an injection queue).
    pub position: Option<u16>,
    /// Remaining planned path.
    pub plan: PlannedPath,
    /// Live routing-type header flag used by minCred credit accounting:
    /// `false` while following a non-minimal plan, and back to `true` after
    /// a reversion (the remaining path *is* minimal, and sensing must see
    /// the packet's occupancy on the minimal channels it now uses).
    pub min_routed: bool,
    /// `true` if the packet ever adopted a non-minimal plan (statistics:
    /// the misroute fraction counts detours even after reversion).
    pub derouted: bool,
    /// Credit class under which the packet entered its *current* buffer;
    /// releases must use this class even if `min_routed` changed since
    /// (PAR diverts packets while they sit in a buffer).
    pub buffered_class: CreditClass,
    /// Whether the routing decision has been made (plans are computed when
    /// the packet reaches the head of its injection queue, so adaptive
    /// decisions use fresh congestion state).
    pub planned: bool,
    /// PAR: the in-transit divert decision was already evaluated.
    pub par_evaluated: bool,
    /// The per-router transit decision (DAL misroute, adaptive copy
    /// re-selection) already ran for the packet's current buffer; cleared
    /// on every buffer entry alongside the lookahead cache.
    pub hop_decided: bool,
    /// Cached FlexVC lookahead options for the packet's current
    /// (buffer, plan) state. The options are a pure function of the
    /// arrangement, message class, buffer position, and the (fixed) plan
    /// with its escapes, so a head blocked across many allocation rounds
    /// reuses them instead of re-running the lookahead embedding. `None`
    /// means "not computed"; the cache is cleared whenever the packet
    /// enters a new buffer or its plan is replaced.
    pub flex_opts: Option<Option<HopVcs>>,
    /// Consecutive allocation evaluations this head has been blocked on an
    /// opportunistic hop (reversion triggers past the configured patience).
    pub opp_blocked: u32,
    /// Total hops traversed (statistics).
    pub hops: u16,
    /// Times the packet reverted from an opportunistic plan (statistics).
    pub reverts: u16,
}

// Arena bytes scale with the packet's size.
const _: () = assert!(std::mem::size_of::<Packet>() <= 128);

impl Packet {
    /// Credit class for minCred accounting.
    pub fn credit_class(&self) -> CreditClass {
        if self.min_routed {
            CreditClass::MinRouted
        } else {
            CreditClass::NonMinRouted
        }
    }

    /// Current position as the policy layer's `Pos`.
    pub fn pos(&self) -> Option<usize> {
        self.position.map(|p| p as usize)
    }

    /// Enter a new buffer: stamp the credit class its release must match
    /// (even if `min_routed` changes while buffered), and drop the cached
    /// lookahead and the per-router transit decision, which belong to the
    /// previous position.
    pub fn enter_buffer(&mut self) {
        self.buffered_class = self.credit_class();
        self.flex_opts = None;
        self.hop_decided = false;
    }
}

/// A packet's slot in its engine's [`Arena`]: what bank FIFOs, output
/// queues and link pipelines hold instead of the packet itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle(u32);

/// One engine instance's packets: a contiguous slab plus a free list, and
/// — only when the workload has flows — a per-slot flow-tag side table.
///
/// A packet is written once at injection (or when a boundary event moves
/// it in from another block) and freed at ejection (or when it leaves for
/// another block). The slab is demand-sized like every queue: it starts
/// empty and doubles up to `bound`, the sum of the bounds of the queues
/// that can hold a handle, so it costs what the live packets need.
#[derive(Debug)]
pub(crate) struct Arena {
    slots: Vec<Packet>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Flow tag per slot (`None` without flows: the table is never built).
    flows: Option<Vec<Option<FlowTag>>>,
    /// Most packets the owning engine can hold at once (growth bound).
    bound: usize,
}

impl Arena {
    /// An empty arena for at most `bound` live packets, with a flow-tag
    /// table when `flows` is set.
    pub fn new(bound: usize, flows: bool) -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            flows: flows.then(Vec::new),
            bound,
        }
    }

    /// Store `pkt` (and its flow tag) in a free slot.
    pub fn insert(&mut self, pkt: Packet, flow: Option<FlowTag>) -> Handle {
        debug_assert!(
            flow.is_none() || self.flows.is_some(),
            "flow tag without flows"
        );
        if let Some(s) = self.free.pop() {
            self.slots[s as usize] = pkt;
            if let Some(tags) = &mut self.flows {
                tags[s as usize] = flow;
            }
            return Handle(s);
        }
        let s = u32::try_from(self.slots.len()).expect("arena past 2^32 packets");
        if s as usize == self.slots.capacity() {
            let grow = bounded_growth(s as usize, self.bound);
            self.slots.reserve_exact(grow);
            if let Some(tags) = &mut self.flows {
                tags.reserve_exact(grow);
            }
        }
        self.slots.push(pkt);
        if let Some(tags) = &mut self.flows {
            tags.push(flow);
        }
        Handle(s)
    }

    /// Free `h`'s slot, returning its flow tag. The packet's fields stay
    /// readable through `h` until the next [`Arena::insert`].
    pub fn free(&mut self, h: Handle) -> Option<FlowTag> {
        debug_assert!(self.free.len() < self.slots.len(), "double free");
        self.free.push(h.0);
        self.flows
            .as_mut()
            .and_then(|tags| tags[h.0 as usize].take())
    }

    /// Move the packet and its flow tag out (it leaves for another block).
    pub fn take(&mut self, h: Handle) -> (Packet, Option<FlowTag>) {
        let pkt = self.slots[h.0 as usize].clone();
        (pkt, self.free(h))
    }

    /// Packets currently stored.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Packet slots currently allocated (never more than the bound).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Most packets the arena can hold at once.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Grow the slab (and the flow table) to the bound now.
    pub fn reserve_bound(&mut self) {
        self.slots.reserve_exact(self.bound - self.slots.len());
        if let Some(tags) = &mut self.flows {
            tags.reserve_exact(self.bound - tags.len());
        }
    }
}

impl std::ops::Index<Handle> for Arena {
    type Output = Packet;
    #[inline]
    fn index(&self, h: Handle) -> &Packet {
        &self.slots[h.0 as usize]
    }
}

impl std::ops::IndexMut<Handle> for Arena {
    #[inline]
    fn index_mut(&mut self, h: Handle) -> &mut Packet {
        &mut self.slots[h.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_core::LinkClass;
    use flexvc_topology::MAX_HOPS;

    fn hop(port: u16, slot: u8) -> RouteHop {
        RouteHop {
            port,
            class: LinkClass::Local,
            slot,
        }
    }

    #[test]
    fn planned_path_lifecycle() {
        let route: Route = [hop(1, 0), hop(2, 1), hop(3, 2)].into_iter().collect();
        let mut p = PlannedPath::from_route(&route);
        assert_eq!(p.remaining_len(), 3);
        assert_eq!(p.next_hop().unwrap().port, 1);
        p.advance();
        assert_eq!(p.next_hop().unwrap().port, 2);
        p.set_next_port(7);
        assert_eq!(p.remaining()[0].port, 7);
        assert_eq!(p.remaining_len(), 2);
        p.advance();
        p.advance();
        assert!(p.is_done());
        assert!(p.next_hop().is_none());
    }

    #[test]
    fn empty_plan_is_done() {
        assert!(PlannedPath::empty().is_done());
        assert_eq!(PlannedPath::empty().remaining_len(), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn oversized_route_rejected() {
        let _: Route = (0..=MAX_HOPS as u16).map(|i| hop(i, 0)).collect();
    }

    #[test]
    fn credit_class_follows_min_flag() {
        let mut pkt = Packet {
            id: 0,
            src: 0,
            dst: 1,
            dst_router: 0,
            class: MessageClass::Request,
            tclass: TrafficClass::Bulk,
            size: 8,
            gen_cycle: 0,
            head_arrival: 0,
            tail_arrival: 7,
            position: None,
            plan: PlannedPath::empty(),
            min_routed: true,
            derouted: false,
            buffered_class: CreditClass::MinRouted,
            planned: true,
            par_evaluated: false,
            hop_decided: false,
            flex_opts: None,
            opp_blocked: 0,
            hops: 0,
            reverts: 0,
        };
        assert_eq!(pkt.credit_class(), CreditClass::MinRouted);
        pkt.min_routed = false;
        assert_eq!(pkt.credit_class(), CreditClass::NonMinRouted);
        assert_eq!(pkt.pos(), None);
    }
}
