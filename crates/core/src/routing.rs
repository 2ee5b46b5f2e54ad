//! Routing modes and their reference sequences.
//!
//! The paper evaluates four routing mechanisms (§II, §IV-A):
//!
//! * **MIN** — minimal routing, optimal for uniform traffic.
//! * **VAL** — Valiant routing to a random intermediate router
//!   ("Valiant-node" / "Valiant Any"), the oblivious defence against
//!   adversarial patterns; doubles the worst-case path length.
//! * **PAR** — Progressive Adaptive Routing: starts minimal, may divert to a
//!   Valiant path after a minimal local hop (in-transit adaptivity).
//! * **PB** — Piggyback source-adaptive routing: chooses MIN or VAL at
//!   injection from piggybacked remote-congestion state plus a local credit
//!   comparison. Its VC requirement equals VAL's.
//!
//! On top of the paper's four, the repo models three adaptive mechanisms
//! from the surrounding literature (cf. the VC-management analysis of
//! arXiv:2306.13042 and the HyperX paper's native scheme):
//!
//! * **UGAL-L** — Universal Globally-Adaptive Load-balanced routing with
//!   *local* information only: at injection, compare the hop-weighted
//!   credit occupancy of the minimal path against a candidate Valiant path
//!   (`q_min·H_min > q_val·H_val + T` takes the detour). No sensing boards.
//! * **UGAL-G** — UGAL fed by *global* (piggybacked) state: the local
//!   comparison of UGAL-L plus the remote saturation veto of PB. Shares
//!   PB's board machinery and VC requirement.
//! * **DAL** — Dimensionally-Adaptive, Load-balanced routing (the HyperX
//!   paper's adaptive scheme): per-dimension, in-transit misrouting — at
//!   each router the packet may detour through one intermediate coordinate
//!   of the *current* DOR dimension before correcting it, at most one
//!   misroute per dimension. Worst-case path length `2d`, same as VAL.
//!   Only meaningful on per-dimension topologies (HyperX).
//!
//! Each mode has a *reference sequence*: the class sequence of its longest
//! allowed path, which determines the minimum VC arrangement for the
//! baseline policy.

use crate::classify::NetworkFamily;
use crate::link::LinkClass;

/// Maximum generic-network diameter the plan/reference machinery supports
/// (an `n`-dimensional HyperX has diameter `n`).
pub const MAX_GENERIC_DIAMETER: usize = 3;

/// Longest generic reference sequence: PAR's `T^(2d+1)` at the diameter
/// ceiling. This is the single source of truth for the widened all-Local
/// reference shared by the planner and the engine (formerly duplicated).
pub const MAX_GENERIC_REF: usize = 2 * MAX_GENERIC_DIAMETER + 1;

/// All-Local reference backing store for generic (single-class) networks;
/// mode references are prefixes of it (see
/// [`RoutingMode::generic_reference`]).
pub static REF_GENERIC: [LinkClass; MAX_GENERIC_REF] = [LinkClass::Local; MAX_GENERIC_REF];

/// Routing mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingMode {
    /// Minimal routing.
    Min,
    /// Valiant-node oblivious misrouting.
    Valiant,
    /// Progressive Adaptive Routing (in-transit MIN→VAL switch).
    Par,
    /// Piggyback source-adaptive routing (MIN or VAL chosen at injection).
    Piggyback,
    /// UGAL with local information: hop-weighted credit comparison at
    /// injection, no sensing boards.
    UgalL,
    /// UGAL with global information: the UGAL-L comparison plus the
    /// piggybacked remote-saturation veto.
    UgalG,
    /// Dimensionally-Adaptive, Load-balanced routing: per-dimension
    /// in-transit misrouting on HyperX-style topologies.
    Dal,
}

impl RoutingMode {
    /// Reference sequence in a Dragonfly (paper §II):
    /// MIN `l0 g1 l2`, VAL `l0 g1 l2 l3 g4 l5`, PAR `l0 l1 g2 l3 l4 g5 l6`.
    /// PB and both UGAL variants need the same resources as VAL. DAL is
    /// HyperX-only; its entry (VAL's sequence, the same worst-case length)
    /// exists so the function stays total, but `SimConfig::validate`
    /// rejects DAL on Dragonfly topologies.
    pub fn dragonfly_reference(self) -> &'static [LinkClass] {
        use LinkClass::*;
        match self {
            RoutingMode::Min => &[Local, Global, Local],
            RoutingMode::Valiant
            | RoutingMode::Piggyback
            | RoutingMode::UgalL
            | RoutingMode::UgalG
            | RoutingMode::Dal => &[Local, Global, Local, Local, Global, Local],
            RoutingMode::Par => &[Local, Local, Global, Local, Local, Global, Local],
        }
    }

    /// Reference sequence in a generic diameter-`d` network: MIN has `d`
    /// hops, VAL/PB/UGAL `2d`, DAL `2d` (every dimension misrouted once),
    /// PAR `2d + 1`. Returned as a borrowed prefix of [`REF_GENERIC`], the
    /// shared all-Local backing store.
    pub fn generic_reference(self, diameter: usize) -> &'static [LinkClass] {
        let hops = match self {
            RoutingMode::Min => diameter,
            RoutingMode::Valiant
            | RoutingMode::Piggyback
            | RoutingMode::UgalL
            | RoutingMode::UgalG
            | RoutingMode::Dal => 2 * diameter,
            RoutingMode::Par => 2 * diameter + 1,
        };
        assert!(
            hops <= MAX_GENERIC_REF,
            "diameter {diameter} exceeds the supported generic reference"
        );
        &REF_GENERIC[..hops]
    }

    /// Reference sequence of this mode in `family`: the generic
    /// diameter-`d` reference on single-class families, the Dragonfly
    /// reference on Dragonfly and Dragonfly+ (same `L G L` class texture).
    pub fn reference(self, family: NetworkFamily) -> &'static [LinkClass] {
        match family.generic_diameter() {
            Some(d) => self.generic_reference(d),
            None => self.dragonfly_reference(),
        }
    }

    /// Minimum safe Dragonfly `(local, global)` VC counts for the baseline
    /// policy (Table V uses 2/1 for MIN and 4/2 for VAL and PB).
    pub fn min_dragonfly_vcs(self) -> (usize, usize) {
        match self {
            RoutingMode::Min => (2, 1),
            RoutingMode::Valiant
            | RoutingMode::Piggyback
            | RoutingMode::UgalL
            | RoutingMode::UgalG
            | RoutingMode::Dal => (4, 2),
            RoutingMode::Par => (5, 2),
        }
    }

    /// Minimum safe VC count for the baseline policy in a generic
    /// single-class diameter-`dims` network — the HyperX analogue of
    /// Table V, where an `n`-dimensional HyperX has diameter `n`: MIN
    /// needs `n` VCs, VAL/PB/UGAL/DAL `2n`, PAR `2n + 1`.
    pub fn min_hyperx_vcs(self, dims: usize) -> usize {
        self.generic_reference(dims).len()
    }

    /// Whether the mode may send packets over non-minimal paths.
    pub fn is_nonminimal(self) -> bool {
        !matches!(self, RoutingMode::Min)
    }

    /// Whether the mode reads the piggybacked per-group saturation boards
    /// (and therefore needs the sensing phase to publish them).
    pub fn uses_boards(self) -> bool {
        matches!(self, RoutingMode::Piggyback | RoutingMode::UgalG)
    }

    /// Whether the mode makes routing decisions *in transit* (after
    /// injection): PAR's one-shot divert and DAL's per-dimension misroutes.
    pub fn decides_in_transit(self) -> bool {
        matches!(self, RoutingMode::Par | RoutingMode::Dal)
    }

    /// Whether the mode requires per-dimension topology structure
    /// (HyperX-style divert candidates).
    pub fn needs_dimensions(self) -> bool {
        matches!(self, RoutingMode::Dal)
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            RoutingMode::Min => "MIN",
            RoutingMode::Valiant => "VAL",
            RoutingMode::Par => "PAR",
            RoutingMode::Piggyback => "PB",
            RoutingMode::UgalL => "UGAL-L",
            RoutingMode::UgalG => "UGAL-G",
            RoutingMode::Dal => "DAL",
        }
    }
}

impl std::fmt::Display for RoutingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    #[test]
    fn dragonfly_references_match_paper() {
        assert_eq!(RoutingMode::Min.dragonfly_reference(), seq!(L G L));
        assert_eq!(
            RoutingMode::Valiant.dragonfly_reference(),
            seq!(L G L L G L)
        );
        assert_eq!(RoutingMode::Par.dragonfly_reference(), seq!(L L G L L G L));
        assert_eq!(
            RoutingMode::Piggyback.dragonfly_reference(),
            RoutingMode::Valiant.dragonfly_reference()
        );
        // UGAL shares VAL's resource requirement (source-adaptive MIN/VAL).
        for ugal in [RoutingMode::UgalL, RoutingMode::UgalG] {
            assert_eq!(
                ugal.dragonfly_reference(),
                RoutingMode::Valiant.dragonfly_reference()
            );
        }
    }

    #[test]
    fn generic_reference_lengths() {
        assert_eq!(RoutingMode::Min.generic_reference(2).len(), 2);
        assert_eq!(RoutingMode::Valiant.generic_reference(2).len(), 4);
        assert_eq!(RoutingMode::Par.generic_reference(2).len(), 5);
        assert_eq!(RoutingMode::Valiant.generic_reference(3).len(), 6);
        // DAL's worst case misroutes every dimension once: 2 hops per
        // dimension, the same length as whole-path Valiant.
        assert_eq!(RoutingMode::Dal.generic_reference(3).len(), 6);
        assert_eq!(RoutingMode::UgalL.generic_reference(3).len(), 6);
        assert_eq!(RoutingMode::UgalG.generic_reference(2).len(), 4);
    }

    #[test]
    fn generic_references_are_prefixes_of_the_shared_store() {
        // The dedupe invariant: every generic reference borrows from
        // REF_GENERIC, so the planner and engine can never drift apart.
        for mode in [
            RoutingMode::Min,
            RoutingMode::Valiant,
            RoutingMode::Par,
            RoutingMode::Piggyback,
            RoutingMode::UgalL,
            RoutingMode::UgalG,
            RoutingMode::Dal,
        ] {
            for d in 1..=MAX_GENERIC_DIAMETER {
                let r = mode.generic_reference(d);
                assert!(std::ptr::eq(r.as_ptr(), REF_GENERIC.as_ptr()));
                assert!(r.iter().all(|&c| c == LinkClass::Local));
            }
        }
        assert_eq!(MAX_GENERIC_REF, 7);
    }

    #[test]
    fn family_references_pick_the_family_rule() {
        let generic3 = NetworkFamily::generic(3);
        for mode in [
            RoutingMode::Min,
            RoutingMode::Valiant,
            RoutingMode::Par,
            RoutingMode::Piggyback,
            RoutingMode::UgalL,
            RoutingMode::UgalG,
            RoutingMode::Dal,
        ] {
            for family in [NetworkFamily::Dragonfly, NetworkFamily::DragonflyPlus] {
                assert_eq!(mode.reference(family), mode.dragonfly_reference());
            }
            assert_eq!(
                mode.reference(NetworkFamily::Diameter2),
                mode.generic_reference(2)
            );
            assert_eq!(mode.reference(generic3), mode.generic_reference(3));
        }
        assert_eq!(RoutingMode::Par.reference(generic3).len(), 7);
        assert_eq!(
            RoutingMode::Valiant.reference(NetworkFamily::DragonflyPlus),
            seq!(L G L L G L)
        );
    }

    #[test]
    fn min_vcs_match_table_v() {
        assert_eq!(RoutingMode::Min.min_dragonfly_vcs(), (2, 1));
        assert_eq!(RoutingMode::Valiant.min_dragonfly_vcs(), (4, 2));
        assert_eq!(RoutingMode::Piggyback.min_dragonfly_vcs(), (4, 2));
        assert_eq!(RoutingMode::Par.min_dragonfly_vcs(), (5, 2));
        assert_eq!(RoutingMode::UgalL.min_dragonfly_vcs(), (4, 2));
        assert_eq!(RoutingMode::UgalG.min_dragonfly_vcs(), (4, 2));
    }

    #[test]
    fn min_hyperx_vcs_follow_generic_references() {
        // The HyperX analogue of Table V: diameter n needs n / 2n / 2n+1.
        for dims in 1..=3 {
            assert_eq!(RoutingMode::Min.min_hyperx_vcs(dims), dims);
            assert_eq!(RoutingMode::Valiant.min_hyperx_vcs(dims), 2 * dims);
            assert_eq!(RoutingMode::Piggyback.min_hyperx_vcs(dims), 2 * dims);
            assert_eq!(RoutingMode::Par.min_hyperx_vcs(dims), 2 * dims + 1);
            assert_eq!(RoutingMode::UgalL.min_hyperx_vcs(dims), 2 * dims);
            assert_eq!(RoutingMode::UgalG.min_hyperx_vcs(dims), 2 * dims);
            assert_eq!(RoutingMode::Dal.min_hyperx_vcs(dims), 2 * dims);
        }
    }

    #[test]
    fn mode_capabilities() {
        assert!(RoutingMode::Piggyback.uses_boards());
        assert!(RoutingMode::UgalG.uses_boards());
        assert!(!RoutingMode::UgalL.uses_boards());
        assert!(!RoutingMode::Valiant.uses_boards());
        assert!(RoutingMode::Par.decides_in_transit());
        assert!(RoutingMode::Dal.decides_in_transit());
        assert!(!RoutingMode::Piggyback.decides_in_transit());
        assert!(RoutingMode::Dal.needs_dimensions());
        assert!(!RoutingMode::Par.needs_dimensions());
    }

    #[test]
    fn labels() {
        assert_eq!(RoutingMode::Min.to_string(), "MIN");
        assert_eq!(RoutingMode::Piggyback.to_string(), "PB");
        assert_eq!(RoutingMode::UgalL.to_string(), "UGAL-L");
        assert_eq!(RoutingMode::UgalG.to_string(), "UGAL-G");
        assert_eq!(RoutingMode::Dal.to_string(), "DAL");
        assert!(RoutingMode::Valiant.is_nonminimal());
        assert!(RoutingMode::Dal.is_nonminimal());
        assert!(!RoutingMode::Min.is_nonminimal());
    }
}
