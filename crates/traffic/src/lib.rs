//! # flexvc-traffic — synthetic traffic generation
//!
//! The three patterns of the paper's evaluation (§IV-B), plus the
//! request–reply ("reactive") wrapper:
//!
//! * **UN** — Bernoulli process, uniformly random destination (≠ source).
//! * **ADV+k** — Bernoulli process, random destination in the group `k`
//!   groups ahead; all minimal traffic funnels through a single global
//!   link, demanding Valiant/adaptive routing.
//! * **BURSTY-UN** — two-state Markov ON/OFF model (found representative
//!   of data-centre traffic): an ON burst emits back-to-back packets at
//!   line rate toward a single destination; burst length is geometric with
//!   a configurable mean (5 packets in the paper); OFF durations are tuned
//!   to meet the offered load.
//!
//! Reactive variants generate *requests* by one of the above; destination
//! nodes answer each consumed request with a *reply* to the original
//! source. Reply generation is driven by the simulator (it owns
//! consumption); this crate only generates the forward pattern and flags
//! the workload as reactive.

//!
//! Flow-level workloads (open-loop flow arrivals, size distributions,
//! per-flow packet trains, skewed patterns) live in [`flow`]; the
//! [`Workload`] enum selects between the synthetic and flow layers and
//! [`NodeTraffic`] unifies their per-node state machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod generator;
pub mod pattern;
pub mod serde_impls;

pub use flow::{Emission, FlowGenerator, FlowPattern, FlowSpec, FlowTag, SizeDist};
pub use generator::NodeGenerator;
pub use pattern::{ClassMix, Pattern, Workload};

/// Unified per-node traffic source: the per-packet synthetic generator or
/// the flow generator, stepped once per node per cycle either way.
#[derive(Debug)]
pub enum NodeTraffic {
    /// Synthetic per-packet pattern (UN / ADV / BURSTY-UN).
    Synthetic(NodeGenerator),
    /// Flow-level workload (packet trains with [`FlowTag`]s).
    Flows(FlowGenerator),
}

impl NodeTraffic {
    /// Build the traffic source for `node` under `workload`. `perm_dest`
    /// must be `Some` exactly when the workload uses
    /// [`FlowPattern::Permutation`] (see [`flow::random_permutation`]).
    pub fn new(
        workload: Workload,
        node: usize,
        space: generator::NodeSpace,
        load: f64,
        packet_size: u32,
        seed: u64,
        perm_dest: Option<u32>,
    ) -> Self {
        match workload {
            Workload::Synthetic { pattern, mix, .. } => {
                let g = NodeGenerator::new(pattern, node, space, load, packet_size, seed);
                NodeTraffic::Synthetic(match mix {
                    Some(m) => g.with_mix(m.control_fraction),
                    None => g,
                })
            }
            Workload::Flows(spec) => NodeTraffic::Flows(FlowGenerator::new(
                spec,
                node,
                space,
                load,
                packet_size,
                seed,
                perm_dest,
            )),
        }
    }

    /// Step one cycle; returns the emitted packet, if any.
    #[inline]
    pub fn next(&mut self, cycle: u64) -> Option<Emission> {
        match self {
            NodeTraffic::Synthetic(g) => {
                let dest = g.next_packet(cycle)?;
                Some(Emission {
                    dest,
                    flow: None,
                    tclass: g.draw_class(),
                })
            }
            NodeTraffic::Flows(g) => g.next_packet(cycle),
        }
    }
}
