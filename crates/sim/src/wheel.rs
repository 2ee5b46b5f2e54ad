//! The engine's timing wheel: a calendar queue of events due at a cycle.

/// Most cycles ahead an engine wheel may have to reach. A wheel holds one
/// slot per cycle of horizon, so configurations past this are rejected by
/// [`SimConfig::validate`](crate::SimConfig::validate) instead of
/// allocating gigabytes of slots.
pub(crate) const MAX_WHEEL_HORIZON: u64 = 1 << 20;

/// A power-of-two timing wheel mapping future cycles to ids with an event
/// due. Slots are reused (taken, drained, put back) so the steady state
/// allocates nothing. Events may be scheduled at most [`Wheel::reach`] =
/// `len - 1` cycles ahead — `now + len` would hash to the slot being
/// drained — and the engine sizes each wheel from its worst-case event
/// horizon at construction.
#[derive(Debug)]
pub(crate) struct Wheel<T> {
    slots: Vec<Vec<T>>,
    mask: u64,
}

impl<T> Wheel<T> {
    /// A wheel that can hold events at least `horizon - 1` cycles ahead.
    pub(crate) fn new(horizon: u64) -> Self {
        let n = horizon.max(4).next_power_of_two();
        Wheel {
            slots: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
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
        self.slots[(at & self.mask) as usize].push(ev);
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
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
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
        let mut wheel: Wheel<u32> = Wheel::new(100);
        let now = 1_000;
        let draining = wheel.take(now);
        wheel.schedule(now, now + wheel.reach(), 7);
        wheel.put_back(now, draining);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.take(now + wheel.reach()), vec![7]);
    }

    /// One cycle further hashes to the slot being drained, where a
    /// `put_back` would silently drop it: debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event beyond wheel horizon")]
    fn one_past_the_reach_panics() {
        let mut wheel: Wheel<u32> = Wheel::new(100);
        wheel.schedule(1_000, 1_000 + wheel.reach() + 1, 7);
    }
}
