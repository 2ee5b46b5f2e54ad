//! Link and buffer classes, message classes.
//!
//! Low-diameter topologies restrict the order in which link *classes* are
//! traversed (paper §II, "Routing or link-type restrictions"): Dragonfly
//! minimal paths follow `local – global – local`, flattened butterflies
//! traverse dimensions in DOR order, orthogonal fat trees go up then down.
//! Deadlock-avoidance resources (VCs) are therefore dimensioned *per class*.
//!
//! Networks without such restrictions (the paper's "generic diameter-2"
//! network, e.g. a Slim Fly) use the single class [`LinkClass::Local`].

/// The class of a link or of an input-buffer bank.
///
/// `flexvc-core` is topology-agnostic; only the *sequence* of classes along a
/// path matters. Two classes cover every topology discussed in the paper:
/// Dragonfly local/global links, flattened-butterfly X/Y dimensions
/// (mapped to `Local`/`Global`), and single-class diameter-2 networks
/// (everything `Local`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkClass {
    /// Intra-group (Dragonfly) links, first dimension (FB), or the single
    /// class of a generic network.
    #[default]
    Local,
    /// Inter-group (Dragonfly) links or second dimension (FB).
    Global,
}

impl LinkClass {
    /// Number of distinct classes handled by the model.
    pub const COUNT: usize = 2;

    /// Dense index for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LinkClass::Local => 0,
            LinkClass::Global => 1,
        }
    }

    /// Inverse of [`LinkClass::index`].
    #[inline]
    pub fn from_index(i: usize) -> LinkClass {
        match i {
            0 => LinkClass::Local,
            1 => LinkClass::Global,
            _ => panic!("invalid LinkClass index {i}"),
        }
    }

    /// One-letter label used in arrangement notation (`L G L L G L`).
    #[inline]
    pub fn letter(self) -> char {
        match self {
            LinkClass::Local => 'L',
            LinkClass::Global => 'G',
        }
    }
}

impl std::fmt::Display for LinkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Message class for protocol-deadlock avoidance (paper §II, §III-B).
///
/// Destination nodes consume requests and produce replies; replies must never
/// be blocked (transitively) behind requests or the request/reply dependency
/// becomes circular. The classic solution doubles the VC set into two virtual
/// networks. FlexVC instead concatenates the request and reply reference
/// sequences into one unified sequence: requests are confined to the request
/// prefix, while replies may *safely* use reply VCs and *opportunistically*
/// borrow request VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MessageClass {
    /// A request, or any packet of single-class (non-reactive) traffic.
    #[default]
    Request,
    /// A reply generated in response to a consumed request.
    Reply,
}

impl MessageClass {
    /// Dense index (request = 0, reply = 1) for per-class counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MessageClass::Request => 0,
            MessageClass::Reply => 1,
        }
    }
}

/// Quality-of-service traffic class of a packet (orthogonal to
/// [`MessageClass`], which exists for protocol-deadlock avoidance).
///
/// "Millions of users" traffic is not one class: latency-critical control
/// RPCs share the fabric with throughput-bound bulk transfers. The class is
/// assigned at the workload layer (mice flows / a configured fraction of a
/// synthetic stream are control) and threaded through arbitration — strict
/// priority with a bounded bypass — and per-class metrics. The two-variant
/// enum is dimensioned by [`TrafficClass::COUNT`] so per-class tables extend
/// to N classes without structural change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficClass {
    /// Latency-critical control traffic (prioritized).
    Control,
    /// Throughput-bound bulk traffic (the default for unclassified
    /// single-class workloads).
    #[default]
    Bulk,
}

impl TrafficClass {
    /// Number of traffic classes handled by the model.
    pub const COUNT: usize = 2;

    /// Dense index (control = 0, bulk = 1) for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Control => 0,
            TrafficClass::Bulk => 1,
        }
    }

    /// Inverse of [`TrafficClass::index`].
    #[inline]
    pub fn from_index(i: usize) -> TrafficClass {
        match i {
            0 => TrafficClass::Control,
            1 => TrafficClass::Bulk,
            _ => panic!("invalid TrafficClass index {i}"),
        }
    }

    /// Short label used in per-class reporting columns.
    #[inline]
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::Bulk => "bulk",
        }
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Shorthand constructors for class sequences used throughout tests and the
/// classifier: `seq!(L G L)`.
#[macro_export]
macro_rules! seq {
    ($($c:ident)*) => {
        [$($crate::seq!(@one $c)),*]
    };
    (@one L) => { $crate::link::LinkClass::Local };
    (@one G) => { $crate::link::LinkClass::Global };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_roundtrip() {
        for i in 0..LinkClass::COUNT {
            assert_eq!(LinkClass::from_index(i).index(), i);
        }
    }

    #[test]
    fn letters() {
        assert_eq!(LinkClass::Local.letter(), 'L');
        assert_eq!(LinkClass::Global.letter(), 'G');
        assert_eq!(format!("{}", LinkClass::Global), "G");
    }

    #[test]
    fn seq_macro_builds_sequences() {
        let s = seq!(L G L);
        assert_eq!(s, [LinkClass::Local, LinkClass::Global, LinkClass::Local]);
    }

    #[test]
    fn traffic_class_index_roundtrip() {
        for i in 0..TrafficClass::COUNT {
            assert_eq!(TrafficClass::from_index(i).index(), i);
        }
        assert_eq!(TrafficClass::default(), TrafficClass::Bulk);
        assert_eq!(TrafficClass::Control.label(), "control");
        assert_eq!(format!("{}", TrafficClass::Bulk), "bulk");
    }

    #[test]
    fn message_class_default_is_request() {
        assert_eq!(MessageClass::default(), MessageClass::Request);
        assert_eq!(MessageClass::Request.index(), 0);
        assert_eq!(MessageClass::Reply.index(), 1);
    }
}
