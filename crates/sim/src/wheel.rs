//! The engine's timing wheel: a calendar queue of events due at a cycle.

use crate::bank::bounded_growth;

/// Most cycles ahead an engine wheel may have to reach. A wheel holds one
/// slot per cycle of horizon, so configurations past this are rejected by
/// [`SimConfig::validate`](crate::SimConfig::validate) instead of
/// allocating gigabytes of slots.
pub(crate) const MAX_WHEEL_HORIZON: u64 = 1 << 20;

/// A power-of-two timing wheel mapping future cycles to the events due
/// then. Slots are reused (taken, drained, put back) so the steady state
/// allocates nothing. Events may be scheduled at most [`Wheel::reach`] =
/// `len - 1` cycles ahead — `now + len` would hash to the slot being
/// drained — and the engine sizes each wheel from its worst-case event
/// horizon at construction. Each slot is demand-sized: it starts empty and
/// doubles up to the most events one cycle can hold.
#[derive(Debug)]
pub(crate) struct Wheel<T> {
    slots: Vec<Vec<T>>,
    mask: u64,
    /// Most events due in one cycle (slot growth bound).
    slot_bound: usize,
}

impl<T> Wheel<T> {
    /// A wheel that can hold events at least `horizon - 1` cycles ahead,
    /// at most `slot_bound` of them due in the same cycle.
    pub(crate) fn new(horizon: u64, slot_bound: usize) -> Self {
        let n = horizon.max(4).next_power_of_two();
        Wheel {
            slots: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
            slot_bound,
        }
    }

    /// The farthest offset from `now` an event may be scheduled at.
    #[inline]
    pub(crate) fn reach(&self) -> u64 {
        self.mask
    }

    /// Schedule an event for cycle `at` (clamped to `now + 1`: an event
    /// created during cycle `now` is observable at the next matching phase
    /// at the earliest, exactly like the original per-cycle sweep).
    #[inline]
    pub(crate) fn schedule(&mut self, now: u64, at: u64, ev: T) {
        let at = at.max(now + 1);
        debug_assert!(at - now <= self.mask, "event beyond wheel horizon");
        let slot = &mut self.slots[(at & self.mask) as usize];
        if slot.len() == slot.capacity() {
            slot.reserve_exact(bounded_growth(slot.len(), self.slot_bound));
        }
        slot.push(ev);
    }

    /// Take the slot due at `now` (return it with [`Wheel::put_back`]).
    #[inline]
    pub(crate) fn take(&mut self, now: u64) -> Vec<T> {
        std::mem::take(&mut self.slots[(now & self.mask) as usize])
    }

    /// Return a drained slot buffer, keeping its capacity.
    #[inline]
    pub(crate) fn put_back(&mut self, now: u64, mut slot: Vec<T>) {
        slot.clear();
        self.slots[(now & self.mask) as usize] = slot;
    }

    /// Events scheduled and not yet taken.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Grow every slot to the slot bound now.
    pub(crate) fn reserve_bound(&mut self) {
        for slot in &mut self.slots {
            slot.reserve_exact(self.slot_bound - slot.len());
        }
    }

    /// The most by which a slot's capacity exceeds the slot bound.
    pub(crate) fn overshoot(&self) -> usize {
        let cap = self.slots.iter().map(Vec::capacity).max().unwrap_or(0);
        cap.saturating_sub(self.slot_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event at the wheel's reach — scheduled while the current slot is
    /// taken out for draining — lands in its own slot and is delivered at
    /// exactly that cycle.
    #[test]
    fn the_last_legal_offset_is_delivered() {
        let mut wheel: Wheel<u32> = Wheel::new(100, usize::MAX);
        let now = 1_000;
        let draining = wheel.take(now);
        wheel.schedule(now, now + wheel.reach(), 7);
        wheel.put_back(now, draining);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.take(now + wheel.reach()), vec![7]);
    }

    /// A slot doubles from empty up to the slot bound and never past it;
    /// pre-growing fills every slot to exactly the bound.
    #[test]
    fn slots_grow_on_demand_up_to_their_bound() {
        let mut wheel: Wheel<u32> = Wheel::new(8, 3);
        for ev in 0..3 {
            wheel.schedule(0, 5, ev);
        }
        assert_eq!(wheel.slots[5].capacity(), 3);
        assert_eq!(wheel.overshoot(), 0);
        wheel.reserve_bound();
        assert!(wheel.slots.iter().all(|s| s.capacity() == 3));
        assert_eq!(wheel.take(5), vec![0, 1, 2]);
    }

    /// One cycle further hashes to the slot being drained, where a
    /// `put_back` would silently drop it: debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event beyond wheel horizon")]
    fn one_past_the_reach_panics() {
        let mut wheel: Wheel<u32> = Wheel::new(100, usize::MAX);
        wheel.schedule(1_000, 1_000 + wheel.reach() + 1, 7);
    }
}
