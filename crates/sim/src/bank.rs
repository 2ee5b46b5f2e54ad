//! Input buffer banks and their upstream credit mirrors.
//!
//! The same [`Occupancy`] accounting is used for the physical bank at the
//! downstream router and for the credit counters at the upstream router, so
//! the two views can never disagree about whether a packet fits — the
//! essential property of credit-based flow control.
//!
//! Two organizations are modelled (paper §II, Fig. 2):
//!
//! * **Statically partitioned** — every VC owns a private FIFO of fixed
//!   capacity.
//! * **DAMQ** — the port's memory is a shared pool with a per-VC private
//!   reservation. A VC may always use its reservation; beyond it, phits
//!   consume the shared pool. With 0% private reservation a single VC can
//!   absorb the whole port and deadlock the network (Fig. 10); the paper's
//!   reference DAMQ reserves 75% privately.

use crate::packet::Packet;
use flexvc_core::{CreditClass, SplitOccupancy};

/// Most VCs one port class (request + reply) or one injection queue may
/// carry. [`SimConfig::validate`](crate::SimConfig::validate) rejects
/// larger arrangements, and the engine's 16-bit VC masks rely on it.
///
/// It is also the default width of the inline per-VC arrays of
/// [`Occupancy`] and [`BufferBank`]. The engine instantiates them at the
/// narrowest of 4, 8 and 16 that covers the configuration's widest port,
/// so an arrangement of 4 VCs per port stores 4-entry arrays.
pub const MAX_VCS: usize = 16;

/// Capacity a demand-sized queue holding `len` entries at full capacity
/// grows by: doubling from one entry, never past `bound`. A queue already
/// at its bound is an accounting bug upstream (the credit and occupancy
/// checks admit no more than the bound), caught here in debug builds.
#[inline]
pub(crate) fn bounded_growth(len: usize, bound: usize) -> usize {
    debug_assert!(len < bound, "queue of {len} grows past its bound {bound}");
    (len * 2).clamp(1, bound.max(len + 1)) - len
}

/// Pure occupancy accounting for one port's VCs (static or DAMQ), with
/// per-VC state for at most `W` VCs.
#[derive(Debug, Clone)]
pub struct Occupancy<const W: usize = MAX_VCS> {
    /// Phits resident per VC, split by routing type (minCred); a VC's
    /// occupancy is the split's total.
    split: [SplitOccupancy; W],
    /// Number of VCs in use.
    vcs: u8,
    /// Private reservation of every VC (the per-VC capacity of a static
    /// bank).
    resv: u32,
    /// Shared pool capacity (0 for static banks).
    shared_cap: u32,
}

impl<const W: usize> Occupancy<W> {
    /// Statically partitioned: `vcs` private FIFOs of `per_vc` phits.
    pub fn new_static(vcs: usize, per_vc: u32) -> Self {
        assert!(vcs <= W, "{vcs} VCs exceed MAX_VCS or the width W = {W}");
        Occupancy {
            split: [SplitOccupancy::new(); W],
            vcs: vcs as u8,
            resv: per_vc,
            shared_cap: 0,
        }
    }

    /// DAMQ: total port memory `total`, of which `private_per_vc` phits are
    /// reserved for each of the `vcs` VCs and the remainder is shared.
    pub fn new_damq(vcs: usize, total: u32, private_per_vc: u32) -> Self {
        let reserved = private_per_vc * vcs as u32;
        assert!(
            reserved <= total,
            "private reservation {reserved} exceeds port memory {total}"
        );
        Occupancy {
            shared_cap: total - reserved,
            ..Self::new_static(vcs, private_per_vc)
        }
    }

    /// Number of VCs.
    pub fn vcs(&self) -> usize {
        self.vcs as usize
    }

    /// Phits of VC `vc` beyond its private reservation (its shared-pool use).
    fn overflow(&self, vc: usize) -> u32 {
        self.occupancy(vc).saturating_sub(self.resv)
    }

    /// Shared-pool phits currently in use.
    fn shared_used(&self) -> u32 {
        (0..self.vcs()).map(|v| self.overflow(v)).sum()
    }

    /// Can `size` phits enter VC `vc` right now?
    pub fn can_accept(&self, vc: usize, size: u32) -> bool {
        // Static banks (no shared pool) keep every VC within its
        // reservation, so the shared-overflow scan reduces to one
        // comparison — this is the allocator's hottest check.
        let new_occ = self.occupancy(vc) + size;
        if self.shared_cap == 0 {
            return new_occ <= self.resv;
        }
        let others = self.shared_used() - self.overflow(vc);
        others + new_occ.saturating_sub(self.resv) <= self.shared_cap
    }

    /// Free space available to VC `vc` (private headroom plus remaining
    /// shared pool) — the JSQ metric.
    pub fn free_for(&self, vc: usize) -> u32 {
        let private_head = self.resv.saturating_sub(self.occupancy(vc));
        if self.shared_cap == 0 {
            return private_head;
        }
        private_head + self.shared_cap - self.shared_used()
    }

    /// Record `size` phits entering VC `vc`.
    pub fn add(&mut self, vc: usize, size: u32, class: CreditClass) {
        debug_assert!(self.can_accept(vc, size), "overflow on VC {vc}");
        self.split[vc].add(class, size);
    }

    /// Record `size` phits leaving VC `vc`.
    pub fn remove(&mut self, vc: usize, size: u32, class: CreditClass) {
        self.split[vc].remove(class, size);
    }

    /// Phits resident in VC `vc`.
    #[inline]
    pub fn occupancy(&self, vc: usize) -> u32 {
        debug_assert!(vc < self.vcs());
        self.split[vc].total()
    }

    /// Total phits resident in the port.
    pub fn total(&self) -> u32 {
        self.split_total().total()
    }

    /// Min/non-min split of VC `vc` (minCred sensing).
    pub fn split(&self, vc: usize) -> &SplitOccupancy {
        &self.split[vc]
    }

    /// Aggregated min/non-min split over the whole port.
    pub fn split_total(&self) -> SplitOccupancy {
        let mut s = SplitOccupancy::new();
        for v in &self.split[..self.vcs()] {
            s.merge(v);
        }
        s
    }
}

/// Sentinel for "no slot" in the intrusive FIFO links.
const NIL: u32 = u32::MAX;

/// One slab entry: a queued entry and its FIFO successor, or a free slot
/// chained to the next free one.
#[derive(Debug)]
struct Slot<T> {
    entry: Option<T>,
    next: u32,
}

/// A physical input bank: occupancy accounting plus per-VC FIFOs of
/// entries (packets by default, 32-bit handles into its packet arena in
/// the engine) for at most `W` VCs.
///
/// The FIFOs share one index-based slab per bank (entries with intrusive
/// `next` links, per-VC head/tail cursors stored inline) instead of a
/// `Vec<VecDeque<T>>`: pushes and pops are O(1) slot relinks, freed
/// slots are recycled through an intrusive free list, and the whole bank is
/// one record plus one heap block. The slab is demand-sized: it starts
/// empty and doubles up to the packet bound given at construction, so a
/// bank costs what its traffic needs and never more than its worst case.
#[derive(Debug)]
pub struct BufferBank<T = Packet, const W: usize = MAX_VCS> {
    /// Occupancy view (identical accounting to the upstream mirror).
    pub occ: Occupancy<W>,
    /// Entry slab; `entry == None` marks a free slot.
    slots: Vec<Slot<T>>,
    /// Head of the free-slot chain.
    free: u32,
    /// Per-VC FIFO head slot.
    head: [u32; W],
    /// Per-VC FIFO tail slot.
    tail: [u32; W],
    /// Total queued entries (hot-path skip test for the allocator).
    total: u32,
    /// Most packets the bank can hold at once (slab growth bound).
    bound: u32,
}

impl<const W: usize> BufferBank<Packet, W> {
    /// Enqueue an arriving packet into VC `vc` (space was guaranteed by the
    /// upstream credit check), entering it into the buffer (see
    /// [`Packet::enter_buffer`]) so the eventual release matches this add.
    pub fn push(&mut self, vc: usize, mut pkt: Packet) {
        pkt.enter_buffer();
        self.enqueue(vc, pkt.size, pkt.buffered_class, pkt);
    }
}

impl<T, const W: usize> BufferBank<T, W> {
    /// Build a bank around an occupancy model, its slab bounded only by
    /// what the occupancy admits.
    pub fn new(occ: Occupancy<W>) -> Self {
        Self::with_packet_capacity(occ, NIL as usize)
    }

    /// Build a bank that holds at most `packets` resident packets (the
    /// engine passes the port capacity in packets). Nothing is allocated
    /// until packets arrive; the slab then grows geometrically up to
    /// `packets` slots.
    pub fn with_packet_capacity(occ: Occupancy<W>, packets: usize) -> Self {
        BufferBank {
            occ,
            slots: Vec::new(),
            free: NIL,
            head: [NIL; W],
            tail: [NIL; W],
            total: 0,
            bound: packets.min(NIL as usize) as u32,
        }
    }

    /// Queue `entry`, a packet of `size` phits entering under credit class
    /// `class`, at the tail of VC `vc` and account its phits.
    pub fn enqueue(&mut self, vc: usize, size: u32, class: CreditClass, entry: T) {
        self.occ.add(vc, size, class);
        let slot = Slot {
            entry: Some(entry),
            next: NIL,
        };
        let s = if self.free != NIL {
            let s = self.free;
            let old = &mut self.slots[s as usize];
            self.free = old.next;
            *old = slot;
            s
        } else {
            let s = self.slots.len();
            if s == self.slots.capacity() {
                self.slots
                    .reserve_exact(bounded_growth(s, self.bound as usize));
            }
            self.slots.push(slot);
            s as u32
        };
        if self.tail[vc] == NIL {
            self.head[vc] = s;
        } else {
            self.slots[self.tail[vc] as usize].next = s;
        }
        self.tail[vc] = s;
        self.total += 1;
    }

    /// Head entry of VC `vc`.
    pub fn head(&self, vc: usize) -> Option<&T> {
        match self.head[vc] {
            NIL => None,
            s => self.slots[s as usize].entry.as_ref(),
        }
    }

    /// Dequeue the head of VC `vc`. Occupancy is *not* released here — the
    /// phits drain over the transfer duration; the caller schedules the
    /// release at transfer completion.
    pub fn pop(&mut self, vc: usize) -> T {
        let s = self.head[vc];
        assert_ne!(s, NIL, "pop on empty VC");
        let slot = &mut self.slots[s as usize];
        self.head[vc] = slot.next;
        if self.head[vc] == NIL {
            self.tail[vc] = NIL;
        }
        self.total -= 1;
        slot.next = self.free;
        self.free = s;
        slot.entry.take().expect("occupied slot")
    }

    /// Release `size` phits of VC `vc` after the transfer completes.
    pub fn release(&mut self, vc: usize, size: u32, class: CreditClass) {
        self.occ.remove(vc, size, class);
    }

    /// Number of VCs.
    pub fn vcs(&self) -> usize {
        self.occ.vcs()
    }

    /// Whether VC `vc` holds no packet (the active-set engine's skip test).
    pub fn vc_is_empty(&self, vc: usize) -> bool {
        self.head[vc] == NIL
    }

    /// Total queued packets across VCs (O(1); the allocator's port-level
    /// skip test).
    pub fn queued_packets(&self) -> usize {
        self.total as usize
    }

    /// Slab slots currently allocated (never more than [`Self::bound`]).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Most packets the bank can hold at once.
    pub(crate) fn bound(&self) -> usize {
        self.bound as usize
    }

    /// Grow the slab to its bound now (what the engine preallocated before
    /// queues became demand-sized; growth is unobservable in results, and
    /// tests use this to prove it).
    pub(crate) fn reserve_bound(&mut self) {
        self.slots.reserve_exact(self.bound() - self.slots.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CreditClass::*;

    #[test]
    fn static_bank_private_capacity() {
        let mut o: Occupancy = Occupancy::new_static(2, 32);
        assert!(o.can_accept(0, 32));
        assert!(!o.can_accept(0, 33));
        o.add(0, 32, MinRouted);
        assert!(!o.can_accept(0, 8));
        assert!(o.can_accept(1, 32), "VC1 unaffected by VC0 fill");
        assert_eq!(o.free_for(0), 0);
        assert_eq!(o.free_for(1), 32);
        o.remove(0, 8, MinRouted);
        assert!(o.can_accept(0, 8));
        assert_eq!(o.total(), 24);
    }

    #[test]
    fn damq_shares_pool() {
        // 2 VCs, 64 total, 16 private each => 32 shared.
        let mut o: Occupancy = Occupancy::new_damq(2, 64, 16);
        // VC0 can take its 16 private + all 32 shared.
        assert!(o.can_accept(0, 48));
        assert!(!o.can_accept(0, 49));
        o.add(0, 48, MinRouted);
        // VC1 still has its private 16, but no shared.
        assert!(o.can_accept(1, 16));
        assert!(!o.can_accept(1, 17));
        assert_eq!(o.free_for(1), 16);
    }

    #[test]
    fn damq_zero_private_lets_one_vc_hog_everything() {
        let mut o: Occupancy = Occupancy::new_damq(2, 64, 0);
        o.add(0, 64, NonMinRouted);
        // The pathological state behind Fig. 10's deadlock:
        assert!(!o.can_accept(1, 8));
        assert_eq!(o.free_for(1), 0);
    }

    #[test]
    fn damq_full_private_equals_static() {
        let damq: Occupancy = Occupancy::new_damq(2, 64, 32);
        let stat: Occupancy = Occupancy::new_static(2, 32);
        for vc in 0..2 {
            for size in [1, 8, 32, 33] {
                assert_eq!(damq.can_accept(vc, size), stat.can_accept(vc, size));
            }
            assert_eq!(damq.free_for(vc), stat.free_for(vc));
        }
    }

    #[test]
    fn mincred_split_tracks_classes() {
        let mut o: Occupancy = Occupancy::new_static(1, 64);
        o.add(0, 8, MinRouted);
        o.add(0, 16, NonMinRouted);
        assert_eq!(o.split(0).min_occupancy(), 8);
        assert_eq!(o.split(0).nonmin_occupancy(), 16);
        assert_eq!(o.split_total().total(), 24);
        o.remove(0, 8, NonMinRouted);
        assert_eq!(o.split(0).nonmin_occupancy(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds port memory")]
    fn damq_overreservation_rejected() {
        let _: Occupancy = Occupancy::new_damq(4, 64, 32);
    }

    fn mk_packet(id: u64, size: u32) -> Packet {
        use crate::packet::PlannedPath;
        Packet {
            id,
            src: 0,
            dst: 1,
            dst_router: 0,
            class: flexvc_core::MessageClass::Request,
            tclass: flexvc_core::TrafficClass::Bulk,
            size,
            gen_cycle: 0,
            head_arrival: 0,
            tail_arrival: size as u64 - 1,
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
    fn bank_push_pop_release() {
        let mut bank: BufferBank = BufferBank::new(Occupancy::new_static(2, 32));
        bank.push(0, mk_packet(1, 8));
        bank.push(0, mk_packet(2, 8));
        assert_eq!(bank.head(0).unwrap().id, 1);
        assert_eq!(bank.occ.occupancy(0), 16);
        let p = bank.pop(0);
        assert_eq!(p.id, 1);
        // Occupancy stays until the transfer completes.
        assert_eq!(bank.occ.occupancy(0), 16);
        bank.release(0, 8, MinRouted);
        assert_eq!(bank.occ.occupancy(0), 8);
        assert_eq!(bank.head(0).unwrap().id, 2);
        assert_eq!(bank.queued_packets(), 1);
        assert!(!bank.vc_is_empty(0));
        assert!(bank.vc_is_empty(1));
    }

    #[test]
    fn slab_interleaves_vcs_and_recycles_slots() {
        // Two VCs share one slab; FIFO order per VC must survive arbitrary
        // interleaving and slot reuse.
        let mut bank: BufferBank =
            BufferBank::with_packet_capacity(Occupancy::new_static(2, 64), 8);
        for round in 0u64..50 {
            bank.push(0, mk_packet(round * 10 + 1, 8));
            bank.push(1, mk_packet(round * 10 + 2, 8));
            bank.push(0, mk_packet(round * 10 + 3, 8));
            assert_eq!(bank.head(0).unwrap().id, round * 10 + 1);
            assert_eq!(bank.head(1).unwrap().id, round * 10 + 2);
            assert_eq!(bank.pop(0).id, round * 10 + 1);
            assert_eq!(bank.pop(0).id, round * 10 + 3);
            assert_eq!(bank.pop(1).id, round * 10 + 2);
            bank.release(0, 16, MinRouted);
            bank.release(1, 8, MinRouted);
            assert_eq!(bank.queued_packets(), 0);
            assert!(bank.head(0).is_none() && bank.head(1).is_none());
        }
        // The slab never grew past the peak resident count.
        assert!(bank.slots.len() <= 3, "slab grew: {}", bank.slots.len());
    }

    #[test]
    fn slab_is_demand_sized_and_bounded() {
        let mut bank: BufferBank =
            BufferBank::with_packet_capacity(Occupancy::new_static(1, 48), 6);
        assert_eq!(bank.capacity(), 0, "nothing allocated before traffic");
        let mut seen = vec![];
        for id in 0..6 {
            bank.push(0, mk_packet(id, 8));
            seen.push(bank.capacity());
        }
        // Doubling from one slot, clamped at the bound.
        assert_eq!(seen, [1, 2, 4, 4, 6, 6]);
        for id in 0..6 {
            assert_eq!(bank.pop(0).id, id);
        }
        bank.reserve_bound();
        assert_eq!(bank.capacity(), bank.bound());
    }

    #[test]
    #[should_panic(expected = "exceed MAX_VCS")]
    fn more_than_max_vcs_rejected() {
        let _: Occupancy = Occupancy::new_static(MAX_VCS + 1, 32);
    }

    #[test]
    #[should_panic(expected = "pop on empty VC")]
    fn pop_empty_vc_panics() {
        let mut bank: BufferBank = BufferBank::new(Occupancy::new_static(1, 32));
        let _ = bank.pop(0);
    }
}
