//! Route representations shared by topologies and the simulator.
//!
//! Every path — a port-level route, a class sequence, a packet's planned
//! path — is one [`HopSeq`]: an inline, `Copy` sequence of at most
//! [`MAX_HOPS`] entries, so asking the topology for a route never touches
//! the heap.

use flexvc_core::LinkClass;

/// Capacity of every path: the longest reference sequence a plan can
/// follow (the PAR reference `T^(2n+1)` of a 3-D HyperX has 7 hops).
pub const MAX_HOPS: usize = 8;

/// One hop of a computed route.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteHop {
    /// Output port at the current router.
    pub port: u16,
    /// Link class of that port.
    pub class: LinkClass,
    /// Baseline reference-path slot (position within the routing mode's
    /// reference sequence) used by the distance-based policy. FlexVC
    /// ignores it.
    pub slot: u8,
}

/// A fixed-capacity inline sequence of at most [`MAX_HOPS`] entries.
/// Derefs to a slice; pushing past capacity panics.
#[derive(Clone, Copy)]
pub struct HopSeq<T> {
    len: u8,
    items: [T; MAX_HOPS],
}

/// A computed route: the sequence of hops from a source router to a
/// destination router.
pub type Route = HopSeq<RouteHop>;

/// The link classes of a path, without ports.
pub type ClassPath = HopSeq<LinkClass>;

impl<T: Copy + Default> HopSeq<T> {
    /// Empty sequence.
    pub fn new() -> Self {
        HopSeq {
            len: 0,
            items: [T::default(); MAX_HOPS],
        }
    }
}

impl<T: Copy> HopSeq<T> {
    /// Append an entry (panics beyond [`MAX_HOPS`]).
    #[inline]
    pub fn push(&mut self, item: T) {
        assert!((self.len as usize) < MAX_HOPS, "hop sequence overflow");
        self.items[self.len as usize] = item;
        self.len += 1;
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T: Copy + Default> Default for HopSeq<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> std::ops::Deref for HopSeq<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> std::ops::DerefMut for HopSeq<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for HopSeq<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + PartialEq> PartialEq for HopSeq<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq> Eq for HopSeq<T> {}

impl<T: Copy> Extend<T> for HopSeq<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for HopSeq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut seq = Self::new();
        seq.extend(iter);
        seq
    }
}

impl<T: Copy> IntoIterator for HopSeq<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, MAX_HOPS>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

impl<'a, T: Copy> IntoIterator for &'a HopSeq<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy> IntoIterator for &'a mut HopSeq<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// Offset every slot of a route (used to shift the second Valiant subpath
/// into the `l3 g4 l5` half of the reference sequence).
pub fn offset_slots(route: &mut Route, offset: u8) {
    for hop in route {
        hop.slot += offset;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_core::seq;

    #[test]
    fn classpath_roundtrip() {
        let p: ClassPath = seq!(L G L).into_iter().collect();
        assert_eq!(p.len(), 3);
        assert_eq!(p.as_slice(), &seq!(L G L));
        assert!(!p.is_empty());
        assert!(ClassPath::new().is_empty());
        assert_eq!(p.into_iter().collect::<Vec<_>>(), seq!(L G L).to_vec());
    }

    #[test]
    fn classpath_deref_and_collect() {
        let mut p: ClassPath = seq!(G L).into_iter().collect();
        assert_eq!(&p[..], &seq!(G L));
        p.extend(seq!(L));
        assert_eq!(p, seq!(G L L).into_iter().collect());
        // Equality reads only the live prefix.
        assert_ne!(p, ClassPath::new());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn classpath_overflow() {
        let mut p = ClassPath::new();
        for _ in 0..=MAX_HOPS {
            p.push(LinkClass::Local);
        }
    }

    #[test]
    fn offset_slots_shifts() {
        let mut r: Route = [(1, LinkClass::Local, 0), (2, LinkClass::Global, 1)]
            .into_iter()
            .map(|(port, class, slot)| RouteHop { port, class, slot })
            .collect();
        offset_slots(&mut r, 3);
        assert_eq!(r[0].slot, 3);
        assert_eq!(r[1].slot, 4);
    }
}
