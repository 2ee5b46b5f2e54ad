//! Link timing, and a stand-alone directed link pipeline.
//!
//! Phits serialize at one per cycle; a packet transmitted from cycle `t0`
//! delivers its head at `t0 + latency` and its tail at
//! `t0 + latency + size − 1` (`arrival_window`). Credits flow on the
//! reverse direction with the same latency.
//!
//! The engine keeps no per-link queues: a packet or credit on a wire is an
//! entry of its arrival or credit timing wheel. [`LinkState`] is the same
//! timing as a pair of per-link FIFOs, kept as the stand-alone pipeline
//! the benchmark's `sim.link.*` probes time.

use crate::bank::bounded_growth;
use crate::packet::Packet;
use flexvc_core::{CreditClass, TrafficClass};
use std::collections::VecDeque;

/// A packet in flight on a link (or what stands for it).
#[derive(Debug, Clone)]
pub struct InFlight<T = Packet> {
    /// The packet (or its handle).
    pub packet: T,
    /// Destination VC at the receiving input port.
    pub vc: u8,
    /// Cycle the head phit arrives downstream.
    pub head_arrival: u64,
    /// Cycle the tail phit arrives downstream.
    pub tail_arrival: u64,
}

/// A credit message returning upstream.
#[derive(Debug, Clone, Copy)]
pub struct CreditMsg {
    /// Arrival cycle at the upstream router.
    pub arrival: u64,
    /// VC whose space is released.
    pub vc: u8,
    /// Phits released.
    pub phits: u32,
    /// Routing type of the released packet (minCred flag).
    pub class: CreditClass,
    /// QoS class of the released packet (per-class occupancy accounting
    /// for the dynamic buffer repartitioner).
    pub tclass: TrafficClass,
}

/// State of one directed link (plus its reverse credit flow).
///
/// Both pipelines are demand-sized: they start empty and double up to the
/// window given at construction, so an idle link costs only this record.
#[derive(Debug)]
pub struct LinkState<T = Packet> {
    /// Packets in flight, ordered by arrival.
    packets: VecDeque<InFlight<T>>,
    /// Credits in flight on the reverse direction, ordered by arrival.
    credits: VecDeque<CreditMsg>,
    /// The link is serializing a packet until this cycle (exclusive).
    busy_until: u64,
    /// Most entries either pipeline can hold at once (growth bound).
    window: usize,
}

impl<T> Default for LinkState<T> {
    /// A link whose pipelines are bounded only by what the caller sends.
    fn default() -> Self {
        Self::with_capacity(usize::MAX)
    }
}

/// Head and tail arrival cycles downstream of a `size`-phit packet that
/// starts serializing at `now` on a link of `latency` cycles.
#[inline]
pub(crate) fn arrival_window(now: u64, latency: u32, size: u32) -> (u64, u64) {
    let head = now + latency as u64;
    (head, head + size as u64 - 1)
}

/// Append to a demand-sized queue bounded by `window` entries (see
/// [`bounded_growth`]).
#[inline]
pub(crate) fn push_bounded<T>(q: &mut VecDeque<T>, window: usize, item: T) {
    if q.len() == q.capacity() {
        q.reserve_exact(bounded_growth(q.len(), window));
    }
    q.push_back(item);
}

impl LinkState<Packet> {
    /// Begin transmitting `packet` at cycle `now` toward input VC `vc`
    /// downstream. Returns the tail-arrival cycle.
    pub fn transmit(&mut self, now: u64, latency: u32, vc: u8, packet: Packet) -> u64 {
        let flight = self.launch(now, latency, vc, packet.size, packet);
        let tail_arrival = flight.tail_arrival;
        self.receive_flight(flight);
        tail_arrival
    }
}

impl<T> LinkState<T> {
    /// A link whose packet and credit pipelines each hold at most
    /// `in_flight` entries (≈ latency / serialization time, per link
    /// class). Nothing is allocated until traffic flows.
    pub fn with_capacity(in_flight: usize) -> Self {
        LinkState {
            packets: VecDeque::new(),
            credits: VecDeque::new(),
            busy_until: 0,
            window: in_flight,
        }
    }

    /// Begin serializing a `size`-phit packet at cycle `now` toward input
    /// VC `vc` downstream, and return its in-flight record *without*
    /// queueing it ([`LinkState::transmit`] hands it straight to
    /// [`LinkState::receive_flight`]).
    pub fn launch(&mut self, now: u64, latency: u32, vc: u8, size: u32, packet: T) -> InFlight<T> {
        debug_assert!(self.busy_until <= now, "link already serializing");
        self.busy_until = now + size as u64;
        let (head_arrival, tail_arrival) = arrival_window(now, latency, size);
        InFlight {
            packet,
            vc,
            head_arrival,
            tail_arrival,
        }
    }

    /// Enqueue an in-flight record produced by [`LinkState::launch`]. Each
    /// link has a single transmitter, so a back-push keeps the queue
    /// arrival-sorted.
    pub fn receive_flight(&mut self, flight: InFlight<T>) {
        debug_assert!(
            self.packets
                .back()
                .is_none_or(|f| f.head_arrival <= flight.head_arrival),
            "boundary packets must arrive in order per link"
        );
        push_bounded(&mut self.packets, self.window, flight);
    }

    /// Enqueue a credit arriving at cycle `arrival` (what
    /// [`LinkState::send_credit`] does). Credit departures on one link are
    /// monotonic: they all originate from the single downstream input port
    /// fed by this link, whose serialization completes each transfer (and
    /// thus departs its credit) after the previous one. A plain back-push
    /// therefore keeps the queue arrival-sorted.
    pub fn receive_credit(
        &mut self,
        arrival: u64,
        vc: u8,
        phits: u32,
        class: CreditClass,
        tclass: TrafficClass,
    ) {
        debug_assert!(
            self.credits.back().is_none_or(|c| c.arrival <= arrival),
            "credit departures must be monotonic per link"
        );
        let msg = CreditMsg {
            arrival,
            vc,
            phits,
            class,
            tclass,
        };
        push_bounded(&mut self.credits, self.window, msg);
    }

    /// Pop the next packet whose head has arrived by `now`.
    pub fn pop_arrived(&mut self, now: u64) -> Option<InFlight<T>> {
        if self.packets.front().is_some_and(|f| f.head_arrival <= now) {
            self.packets.pop_front()
        } else {
            None
        }
    }

    /// Queue a credit return departing at `departs`, arriving after
    /// `latency`.
    pub fn send_credit(
        &mut self,
        departs: u64,
        latency: u32,
        vc: u8,
        phits: u32,
        class: CreditClass,
        tclass: TrafficClass,
    ) {
        self.receive_credit(departs + latency as u64, vc, phits, class, tclass);
    }

    /// Pop the next credit arrived by `now`.
    pub fn pop_credit(&mut self, now: u64) -> Option<CreditMsg> {
        if self.credits.front().is_some_and(|c| c.arrival <= now) {
            self.credits.pop_front()
        } else {
            None
        }
    }

    /// Whether the link can start a new serialization at `now`.
    pub fn is_free(&self, now: u64) -> bool {
        self.busy_until <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PlannedPath;
    use flexvc_core::MessageClass;

    fn pkt(id: u64, size: u32) -> Packet {
        Packet {
            id,
            src: 0,
            dst: 1,
            dst_router: 0,
            class: MessageClass::Request,
            tclass: TrafficClass::Bulk,
            size,
            gen_cycle: 0,
            head_arrival: 0,
            tail_arrival: 0,
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
        }
    }

    #[test]
    fn transmit_timing() {
        let mut link = LinkState::default();
        assert!(link.is_free(0));
        let tail = link.transmit(10, 100, 0, pkt(1, 8));
        assert_eq!(tail, 10 + 100 + 7);
        assert!(!link.is_free(10));
        assert!(!link.is_free(17));
        assert!(link.is_free(18)); // 8 phits serialized
        assert!(link.pop_arrived(109).is_none());
        let f = link.pop_arrived(110).unwrap();
        assert_eq!(f.packet.id, 1);
        assert_eq!(f.head_arrival, 110);
        assert_eq!(f.tail_arrival, 117);
    }

    #[test]
    fn packets_arrive_in_order() {
        let mut link = LinkState::default();
        link.transmit(0, 10, 0, pkt(1, 8));
        link.transmit(8, 10, 1, pkt(2, 8));
        assert_eq!(link.pop_arrived(10).unwrap().packet.id, 1);
        assert!(link.pop_arrived(17).is_none());
        assert_eq!(link.pop_arrived(18).unwrap().packet.id, 2);
    }

    #[test]
    fn credits_pop_in_arrival_order() {
        let mut link: LinkState = LinkState::default();
        link.send_credit(5, 10, 0, 8, CreditClass::NonMinRouted, TrafficClass::Bulk);
        link.send_credit(20, 10, 1, 8, CreditClass::MinRouted, TrafficClass::Control);
        assert!(link.pop_credit(14).is_none());
        assert_eq!(link.pop_credit(15).unwrap().vc, 0);
        assert!(link.pop_credit(29).is_none());
        assert_eq!(link.pop_credit(30).unwrap().vc, 1);
        assert!(link.pop_credit(100).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotonic")]
    fn out_of_order_credit_departure_is_a_bug() {
        let mut link: LinkState = LinkState::default();
        link.send_credit(20, 10, 1, 8, CreditClass::MinRouted, TrafficClass::Bulk);
        link.send_credit(5, 10, 0, 8, CreditClass::NonMinRouted, TrafficClass::Bulk);
    }

    #[test]
    fn pipelines_are_demand_sized_and_bounded() {
        let mut link = LinkState::with_capacity(3);
        assert_eq!(
            (link.packets.capacity(), link.credits.capacity()),
            (0, 0),
            "nothing allocated before traffic"
        );
        for i in 0..3u64 {
            link.transmit(i * 8, 100, 0, pkt(i, 8));
            link.send_credit(i, 100, 0, 8, CreditClass::MinRouted, TrafficClass::Bulk);
        }
        assert_eq!(link.packets.capacity(), 3);
        assert_eq!(link.credits.capacity(), 3);
    }
}
