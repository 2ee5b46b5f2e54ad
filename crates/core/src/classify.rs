//! Analytic path classification: reproduces Tables I–IV of the paper.
//!
//! A (network family, routing mode, arrangement, message class) combination
//! is classified as:
//!
//! * [`Support::Safe`] — the routing mode's *worst-case* reference path
//!   embeds as a strictly-increasing sequence in the message class's safe
//!   region, so every path the mode can produce is a safe path.
//! * [`Support::Opportunistic`] — not safe, but the *canonical
//!   randomization realization* of the mode traverses under FlexVC's
//!   per-hop rules (mixing safe and opportunistic hops with worst-case
//!   minimal escapes). For a Dragonfly this realization is the paper's
//!   `l0 − g1 − l2 − g3 − l4` shape: two hops to the entry router of an
//!   arbitrary intermediate group followed by a worst-case minimal
//!   continuation — the detour granularity that load-balances adversarial
//!   traffic. For a diameter-2 network it is the full 2+2-hop Valiant path.
//! * [`Support::Unsupported`] — the mode cannot make non-minimal progress
//!   at all (`X` in the paper's tables).
//!
//! The traversal uses exactly the same [`flexvc_options`] rule as the
//! simulator, searching over landing choices (a hop's landing constrains the
//! floors of later opportunistic hops).

use crate::arrangement::{Arrangement, Pos};
use crate::link::{LinkClass, MessageClass};
use crate::policy::flexvc_options;
use crate::routing::RoutingMode;

/// Network family for classification purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkFamily {
    /// Generic diameter-2 network without link-class restrictions
    /// (Slim Fly, demi-PN; Tables I and II).
    Diameter2,
    /// Diameter-3 Dragonfly with local/global link classes (Tables III, IV).
    Dragonfly,
    /// Dragonfly+ / Megafly: groups are two-level fat trees (leaf routers
    /// hold the hosts, spine routers hold the global links), so minimal
    /// leaf-to-leaf paths follow `local-up — global — local-down` and map
    /// onto the Dragonfly's `L G L` class texture. The family is distinct
    /// because its *worst-case minimal escape* is longer: a detoured packet
    /// parked on a spine without a direct global link to the destination
    /// group must descend, re-ascend, cross and descend — `L L G L` — which
    /// shifts where the opportunistic/unsupported boundaries fall (see
    /// `worst_min` and `valiant_specs`).
    DragonflyPlus,
    /// Generic single-class network of an arbitrary diameter `d` (an `n`-D
    /// HyperX has `d = n`). Construct through [`NetworkFamily::generic`]
    /// only (enforced outside this crate by `#[non_exhaustive]`): diameter
    /// 2 canonicalizes to [`NetworkFamily::Diameter2`], keeping one
    /// representation per family so derived equality and hashing agree
    /// with serde round-trips.
    #[non_exhaustive]
    Generic {
        /// Network diameter in hops (minimal reference length).
        diameter: usize,
    },
}

impl NetworkFamily {
    /// Canonical generic family of diameter `d` (`d = 2` yields
    /// [`NetworkFamily::Diameter2`]).
    pub fn generic(diameter: usize) -> Self {
        assert!(diameter >= 1, "degenerate diameter");
        if diameter == 2 {
            NetworkFamily::Diameter2
        } else {
            NetworkFamily::Generic { diameter }
        }
    }

    /// Diameter of a generic (single-class) family; `None` for families with
    /// link-class restrictions (Dragonfly).
    pub fn generic_diameter(self) -> Option<usize> {
        match self {
            NetworkFamily::Diameter2 => Some(2),
            NetworkFamily::Generic { diameter } => Some(diameter),
            NetworkFamily::Dragonfly | NetworkFamily::DragonflyPlus => None,
        }
    }
}

/// Classification outcome, ordered `Unsupported < Opportunistic < Safe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Support {
    /// `X` in the paper: the mode cannot be used with this arrangement.
    Unsupported,
    /// Usable through opportunistic hops ("opport." in the paper).
    Opportunistic,
    /// All paths of the mode are safe.
    Safe,
}

impl Support {
    /// Table rendering used by the paper.
    pub fn label(self) -> &'static str {
        match self {
            Support::Safe => "safe",
            Support::Opportunistic => "opport.",
            Support::Unsupported => "X",
        }
    }
}

impl std::fmt::Display for Support {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One hop of a canonical realization: the plan the router sees at that hop
/// and the escape (minimal continuation from the next router) used when the
/// plan does not embed.
#[derive(Debug, Clone)]
struct HopSpec {
    planned: Vec<LinkClass>,
    escape: Vec<LinkClass>,
}

/// Worst-case minimal *continuation* from any router a realization can park
/// a packet on — the escape path FlexVC's reversion may demand. Dragonfly:
/// `l g l` from anywhere. Dragonfly+: a spine without a direct global link
/// to the destination group must go down, up, across and down — `L L G L`
/// (leaf-origin minimal paths are only `L G L`, but detours land on
/// spines). Generic diameter-`d`: `T^d`.
fn worst_min(family: NetworkFamily) -> Vec<LinkClass> {
    use LinkClass::*;
    match family.generic_diameter() {
        Some(d) => vec![Local; d],
        None => match family {
            NetworkFamily::DragonflyPlus => vec![Local, Local, Global, Local],
            _ => vec![Local, Global, Local],
        },
    }
}

/// Canonical Valiant realization: `to_group` hops reach an arbitrary detour
/// point, then a worst-case minimal continuation.
fn valiant_specs(family: NetworkFamily) -> Vec<HopSpec> {
    use LinkClass::*;
    let (first, second): (Vec<LinkClass>, Vec<LinkClass>) = match family.generic_diameter() {
        // Generic diameter-d network: worst-case minimal path to the detour
        // router, then a worst-case minimal continuation.
        Some(d) => (vec![Local; d], vec![Local; d]),
        // Dragonfly+: the detour point is a *leaf* of an arbitrary
        // intermediate group (up — global — down), and the continuation
        // from a leaf is again up — global — down. Mid-detour escapes use
        // the longer spine-origin `worst_min` below.
        None if family == NetworkFamily::DragonflyPlus => {
            (vec![Local, Global, Local], vec![Local, Global, Local])
        }
        // Dragonfly: local to a neighbour + its global link reaches an
        // arbitrary intermediate group; continuation is worst-case minimal.
        None => (vec![Local, Global], vec![Local, Global, Local]),
    };
    let f_len = first.len();
    let hops: Vec<LinkClass> = first.iter().chain(second.iter()).copied().collect();
    (0..hops.len())
        .map(|i| HopSpec {
            planned: hops[i..].to_vec(),
            escape: if i + 1 < f_len {
                // Next router is an arbitrary point of the detour: assume the
                // worst-case minimal continuation.
                worst_min(family)
            } else if i + 1 == f_len {
                // Next router is the detour point itself.
                second.clone()
            } else {
                hops[i + 1..].to_vec()
            },
        })
        .collect()
}

/// Canonical DAL realization on a generic diameter-`d` network: every
/// dimension misrouted once — `2d` hops in misroute/correction pairs. The
/// escape after a misroute hop of dimension `i` still has to fix dimensions
/// `i..d` (the misroute lands on a wrong coordinate of `i`), after the
/// correction only `i+1..d`. Dragonfly families fall back to the Valiant
/// realization (DAL is rejected there by configuration validation; the
/// fallback keeps classification total).
fn dal_specs(family: NetworkFamily) -> Vec<HopSpec> {
    use LinkClass::*;
    let Some(d) = family.generic_diameter() else {
        return valiant_specs(family);
    };
    (0..2 * d)
        .map(|j| {
            let dim = j / 2;
            let esc_len = if j % 2 == 0 { d - dim } else { d - dim - 1 };
            HopSpec {
                planned: vec![Local; 2 * d - j],
                escape: vec![Local; esc_len],
            }
        })
        .collect()
}

/// Canonical PAR realization: one minimal hop, then the Valiant realization
/// from the divert router.
fn par_specs(family: NetworkFamily) -> Vec<HopSpec> {
    let min = worst_min(family);
    let first = HopSpec {
        planned: min.clone(),
        escape: min[1..].to_vec(),
    };
    std::iter::once(first)
        .chain(valiant_specs(family))
        .collect()
}

/// Depth-first search over landing choices: can the realization traverse?
fn traverse(arr: &Arrangement, msg: MessageClass, specs: &[HopSpec]) -> bool {
    fn dfs(
        arr: &Arrangement,
        msg: MessageClass,
        specs: &[HopSpec],
        i: usize,
        cur: Pos,
        seen: &mut std::collections::HashSet<(usize, isize)>,
    ) -> bool {
        if i == specs.len() {
            return true;
        }
        let key = (i, cur.map_or(-1, |p| p as isize));
        if !seen.insert(key) {
            return false; // already explored and failed
        }
        let spec = &specs[i];
        let Some(opts) = flexvc_options(arr, msg, cur, &spec.planned, &spec.escape) else {
            return false;
        };
        let class = spec.planned[0];
        for idx in opts.iter() {
            let pos = arr.position(class, idx).expect("index within range");
            if dfs(arr, msg, specs, i + 1, Some(pos), seen) {
                return true;
            }
        }
        false
    }
    let mut seen = std::collections::HashSet::new();
    dfs(arr, msg, specs, 0, None, &mut seen)
}

/// Classify the support of `routing` on `arr` for message class `msg`.
pub fn classify(
    family: NetworkFamily,
    routing: RoutingMode,
    arr: &Arrangement,
    msg: MessageClass,
) -> Support {
    if arr.embeds(routing.reference(family), None, arr.safe_region(msg)) {
        return Support::Safe;
    }
    let specs = match routing {
        RoutingMode::Min => return Support::Unsupported,
        RoutingMode::Valiant | RoutingMode::Piggyback | RoutingMode::UgalL | RoutingMode::UgalG => {
            valiant_specs(family)
        }
        RoutingMode::Dal => dal_specs(family),
        RoutingMode::Par => par_specs(family),
    };
    if traverse(arr, msg, &specs) {
        Support::Opportunistic
    } else {
        Support::Unsupported
    }
}

/// Classify requests and replies of a split arrangement; for single-class
/// arrangements both components are the request classification.
pub fn classify_both(
    family: NetworkFamily,
    routing: RoutingMode,
    arr: &Arrangement,
) -> (Support, Support) {
    let req = classify(family, routing, arr, MessageClass::Request);
    if arr.has_reply_part() {
        (req, classify(family, routing, arr, MessageClass::Reply))
    } else {
        (req, req)
    }
}

/// Combined support of a split arrangement (the paper's single-cell entries):
/// the weaker of the request and reply classifications.
pub fn classify_combined(
    family: NetworkFamily,
    routing: RoutingMode,
    arr: &Arrangement,
) -> Support {
    let (req, rep) = classify_both(family, routing, arr);
    req.min(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use NetworkFamily::*;
    use RoutingMode::*;
    use Support::*;

    fn d2(n: usize) -> Arrangement {
        Arrangement::generic(n)
    }

    /// Table I: allowed paths using FlexVC in a generic diameter-2 network.
    #[test]
    fn table_i() {
        let expected: [(usize, [Support; 3]); 4] = [
            (2, [Safe, Unsupported, Unsupported]),
            (3, [Safe, Opportunistic, Opportunistic]),
            (4, [Safe, Safe, Opportunistic]),
            (5, [Safe, Safe, Safe]),
        ];
        for (vcs, row) in expected {
            let arr = d2(vcs);
            for (mode, want) in [Min, Valiant, Par].into_iter().zip(row) {
                assert_eq!(
                    classify(Diameter2, mode, &arr, MessageClass::Request),
                    want,
                    "{mode} with {vcs} VCs"
                );
            }
        }
    }

    /// Table II: FlexVC with protocol deadlock in a diameter-2 network
    /// (combined request+reply support).
    #[test]
    fn table_ii() {
        let expected: [((usize, usize), [Support; 3]); 5] = [
            ((2, 2), [Safe, Unsupported, Unsupported]),
            ((3, 2), [Safe, Opportunistic, Opportunistic]),
            ((3, 3), [Safe, Opportunistic, Opportunistic]),
            ((4, 4), [Safe, Safe, Opportunistic]),
            ((5, 5), [Safe, Safe, Safe]),
        ];
        for ((req, rep), row) in expected {
            let arr = Arrangement::generic_rr(req, rep);
            for (mode, want) in [Min, Valiant, Par].into_iter().zip(row) {
                assert_eq!(
                    classify_combined(Diameter2, mode, &arr),
                    want,
                    "{mode} with {req}+{rep} VCs"
                );
            }
        }
    }

    /// Table III: FlexVC in a Dragonfly following local/global order.
    #[test]
    fn table_iii() {
        let expected: [((usize, usize), [Support; 3]); 6] = [
            ((2, 1), [Safe, Unsupported, Unsupported]),
            ((3, 1), [Safe, Unsupported, Unsupported]),
            ((2, 2), [Safe, Unsupported, Unsupported]),
            ((3, 2), [Safe, Opportunistic, Opportunistic]),
            ((4, 2), [Safe, Safe, Opportunistic]),
            ((5, 2), [Safe, Safe, Safe]),
        ];
        for ((l, g), row) in expected {
            let arr = Arrangement::dragonfly(l, g);
            for (mode, want) in [Min, Valiant, Par].into_iter().zip(row) {
                assert_eq!(
                    classify(Dragonfly, mode, &arr, MessageClass::Request),
                    want,
                    "{mode} with {l}/{g} VCs ({})",
                    arr.notation()
                );
            }
        }
    }

    /// Table IV: FlexVC with protocol deadlock in a Dragonfly. The 4/2 cell
    /// is the paper's "X / opport." (requests unsupported, replies
    /// opportunistic).
    #[test]
    fn table_iv() {
        type Cfg = ((usize, usize), (usize, usize));
        let configs: [(Cfg, [(Support, Support); 3]); 4] = [
            (
                ((2, 1), (2, 1)), // 4/2
                [
                    (Safe, Safe),
                    (Unsupported, Opportunistic),
                    (Unsupported, Opportunistic),
                ],
            ),
            (
                ((3, 2), (2, 1)), // 5/3
                [
                    (Safe, Safe),
                    (Opportunistic, Opportunistic),
                    (Opportunistic, Opportunistic),
                ],
            ),
            (
                ((4, 2), (4, 2)), // 8/4
                [(Safe, Safe), (Safe, Safe), (Opportunistic, Opportunistic)],
            ),
            (
                ((5, 2), (5, 2)), // 10/4
                [(Safe, Safe), (Safe, Safe), (Safe, Safe)],
            ),
        ];
        for ((req, rep), row) in configs {
            let arr = Arrangement::dragonfly_rr(req, rep);
            for (mode, want) in [Min, Valiant, Par].into_iter().zip(row) {
                assert_eq!(
                    classify_both(Dragonfly, mode, &arr),
                    want,
                    "{mode} with {} ({})",
                    arr.count_label(),
                    arr.notation()
                );
            }
        }
    }

    /// Generic diameter-3 networks (3-D HyperX): the Table-I pattern shifts
    /// with the diameter — MIN safe at `d` VCs, VAL opportunistic from
    /// `d + 1` and safe at `2d`, PAR safe at `2d + 1`.
    #[test]
    fn generic_diameter3_follows_table_i_pattern() {
        let fam = NetworkFamily::generic(3);
        assert_eq!(fam, NetworkFamily::Generic { diameter: 3 });
        let expected: [(usize, [Support; 3]); 5] = [
            (3, [Safe, Unsupported, Unsupported]),
            (4, [Safe, Opportunistic, Opportunistic]),
            (5, [Safe, Opportunistic, Opportunistic]),
            (6, [Safe, Safe, Opportunistic]),
            (7, [Safe, Safe, Safe]),
        ];
        for (vcs, row) in expected {
            let arr = d2(vcs);
            for (mode, want) in [Min, Valiant, Par].into_iter().zip(row) {
                assert_eq!(
                    classify(fam, mode, &arr, MessageClass::Request),
                    want,
                    "{mode} with {vcs} VCs at diameter 3"
                );
            }
        }
    }

    /// `generic(2)` canonicalizes to `Diameter2`, so both spellings classify
    /// identically by construction.
    #[test]
    fn generic_two_is_diameter2() {
        assert_eq!(NetworkFamily::generic(2), Diameter2);
        assert_eq!(NetworkFamily::Diameter2.generic_diameter(), Some(2));
        assert_eq!(NetworkFamily::generic(3).generic_diameter(), Some(3));
        assert_eq!(NetworkFamily::Dragonfly.generic_diameter(), None);
    }

    /// Table-V analogue rows for the new adaptive modes: UGAL-L/G classify
    /// exactly like Valiant (their non-minimal paths *are* Valiant paths),
    /// on both Dragonfly and generic families.
    #[test]
    fn ugal_matches_valiant_everywhere() {
        for (l, g) in [(2, 1), (3, 2), (4, 2), (5, 2)] {
            let arr = Arrangement::dragonfly(l, g);
            for ugal in [UgalL, UgalG] {
                assert_eq!(
                    classify(Dragonfly, ugal, &arr, MessageClass::Request),
                    classify(Dragonfly, Valiant, &arr, MessageClass::Request),
                    "{ugal} {l}/{g}"
                );
            }
        }
        for fam in [Diameter2, NetworkFamily::generic(3)] {
            for vcs in 2..=7 {
                let arr = d2(vcs);
                for ugal in [UgalL, UgalG] {
                    assert_eq!(
                        classify(fam, ugal, &arr, MessageClass::Request),
                        classify(fam, Valiant, &arr, MessageClass::Request),
                        "{ugal} {vcs} VCs on {fam:?}"
                    );
                }
            }
        }
    }

    /// Table-I/V analogue for DAL on generic diameter-`d` networks: safe at
    /// `2d` VCs (every dimension misrouted once), opportunistic from
    /// `d + 1` (the per-dimension realization traverses with minimal
    /// escapes), unsupported at `d` (no room for any misroute).
    #[test]
    fn dal_table_analogue() {
        for d in 2..=3 {
            let fam = NetworkFamily::generic(d);
            assert_eq!(
                classify(fam, Dal, &d2(d), MessageClass::Request),
                Unsupported,
                "DAL with {d} VCs at diameter {d}"
            );
            for vcs in (d + 1)..(2 * d) {
                assert_eq!(
                    classify(fam, Dal, &d2(vcs), MessageClass::Request),
                    Opportunistic,
                    "DAL with {vcs} VCs at diameter {d}"
                );
            }
            assert_eq!(
                classify(fam, Dal, &d2(2 * d), MessageClass::Request),
                Safe,
                "DAL with {} VCs at diameter {d}",
                2 * d
            );
        }
        // Split request/reply arrangements classify through the same specs.
        let arr = Arrangement::generic_rr(3, 2);
        assert!(classify_combined(Diameter2, Dal, &arr) >= Opportunistic);
    }

    /// Dragonfly+ classifier rows. MIN classifies like the Dragonfly
    /// (leaf-origin minimal paths are `L G L`, and MIN never detours), so
    /// FlexVC MIN works from 2/1. Non-minimal modes are *stricter* than on
    /// the Dragonfly: their realizations park packets on spines whose
    /// worst minimal escape is `L L G L`, which eats the opportunistic
    /// slack — 3/2 (opportunistic VAL on a Dragonfly) is unsupported, and
    /// support starts only at the safe 4/2.
    #[test]
    fn dragonfly_plus_rows() {
        use NetworkFamily::DragonflyPlus as Dfp;
        let expected: [((usize, usize), [Support; 2]); 5] = [
            ((2, 1), [Safe, Unsupported]),
            ((3, 1), [Safe, Unsupported]),
            ((3, 2), [Safe, Unsupported]), // opport. on Dragonfly, X here
            ((4, 2), [Safe, Safe]),
            ((8, 4), [Safe, Safe]),
        ];
        for ((l, g), row) in expected {
            let arr = Arrangement::dragonfly(l, g);
            for (mode, want) in [Min, Valiant].into_iter().zip(row) {
                assert_eq!(
                    classify(Dfp, mode, &arr, MessageClass::Request),
                    want,
                    "{mode} with {l}/{g} VCs on Dragonfly+ ({})",
                    arr.notation()
                );
            }
        }
        // The same 3/2 arrangement IS opportunistic on a plain Dragonfly —
        // the spine escape is what kills it on Dragonfly+.
        assert_eq!(
            classify(
                Dragonfly,
                Valiant,
                &Arrangement::dragonfly(3, 2),
                MessageClass::Request
            ),
            Opportunistic
        );
        // PB and UGAL share VAL's realization on Dragonfly+ too.
        for (l, g) in [(2, 1), (3, 2), (4, 2), (5, 2)] {
            let arr = Arrangement::dragonfly(l, g);
            for mode in [Piggyback, UgalL, UgalG] {
                assert_eq!(
                    classify(Dfp, mode, &arr, MessageClass::Request),
                    classify(Dfp, Valiant, &arr, MessageClass::Request),
                    "{mode} {l}/{g}"
                );
            }
        }
        // Request+reply splits classify through the same machinery.
        let rr = Arrangement::dragonfly_rr((4, 2), (4, 2));
        assert_eq!(classify_combined(Dfp, Valiant, &rr), Safe);
        assert_eq!(Dfp.generic_diameter(), None);
    }

    /// Piggyback classifies exactly like Valiant (same VC requirements).
    #[test]
    fn piggyback_matches_valiant() {
        for (l, g) in [(2, 1), (3, 2), (4, 2), (5, 2)] {
            let arr = Arrangement::dragonfly(l, g);
            assert_eq!(
                classify(Dragonfly, Piggyback, &arr, MessageClass::Request),
                classify(Dragonfly, Valiant, &arr, MessageClass::Request),
                "{l}/{g}"
            );
        }
    }

    /// The paper's §III-B headline: FlexVC supports MIN-safe plus
    /// opportunistic VAL/PAR with 3+2=5 VCs where the baseline needs
    /// 5+5=10 — a 50% reduction.
    #[test]
    fn fifty_percent_reduction_headline() {
        let flexvc = Arrangement::generic_rr(3, 2);
        assert_eq!(flexvc.total_vcs(), 5);
        assert!(classify_combined(Diameter2, Valiant, &flexvc) >= Opportunistic);
        assert!(classify_combined(Diameter2, Par, &flexvc) >= Opportunistic);
        let baseline_needs = Arrangement::generic_rr(5, 5);
        assert_eq!(baseline_needs.total_vcs(), 10);
        assert_eq!(classify_combined(Diameter2, Par, &baseline_needs), Safe);
    }

    /// Dragonfly §III-C headline: 5/3 supports opportunistic VAL and PAR in
    /// both subpaths versus the baseline's 10/4.
    #[test]
    fn dragonfly_5_3_headline() {
        let arr = Arrangement::dragonfly_rr((3, 2), (2, 1));
        assert_eq!(arr.total_vcs(), 8); // 5 local + 3 global
        assert_eq!(
            classify_both(Dragonfly, Valiant, &arr),
            (Opportunistic, Opportunistic)
        );
    }

    /// MIN must always be safe on every arrangement the simulator accepts;
    /// classify returns Unsupported for MIN only on degenerate arrangements.
    #[test]
    fn min_unsupported_on_degenerate() {
        let arr = Arrangement::new(vec![LinkClass::Local]); // no global VC
        assert_eq!(
            classify(Dragonfly, Min, &arr, MessageClass::Request),
            Unsupported
        );
    }

    #[test]
    fn support_ordering() {
        assert!(Unsupported < Opportunistic);
        assert!(Opportunistic < Safe);
        assert_eq!(Safe.min(Opportunistic), Opportunistic);
        assert_eq!(Unsupported.label(), "X");
        assert_eq!(Opportunistic.to_string(), "opport.");
    }

    use crate::link::LinkClass;
}
