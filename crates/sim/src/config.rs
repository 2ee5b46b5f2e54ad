//! Simulation configuration (Table V of the paper plus policy knobs).
//!
//! Start from a baseline constructor ([`SimConfig::dragonfly_baseline`],
//! [`SimConfig::hyperx_baseline`], [`SimConfig::dfplus_baseline`]), which
//! fills Table V and the minimum VC arrangement, assign the fields that
//! differ, and call [`SimConfig::validate`] for a typed [`ConfigError`]
//! instead of a panic later. Serialize configurations through
//! `flexvc_serde` (see the `serde_impls` module) to move whole
//! experiments through TOML/JSON.

use crate::bank::MAX_VCS;
use crate::engine::MAX_ROUTER_INPUTS;
use crate::error::ConfigError;
use flexvc_core::classify::{classify, NetworkFamily, Support};
use flexvc_core::policy::supports_baseline;
use flexvc_core::{
    Arrangement, LinkClass, MessageClass, RoutingMode, TrafficClass, VcPolicy, VcSelection,
};
use flexvc_topology::{Dragonfly, DragonflyPlus, GlobalArrangement, HyperX, Topology};
use flexvc_traffic::{Pattern, Workload};
use std::sync::Arc;

/// Topology selector.
///
/// `PartialEq` compares the *specification* (shape parameters), which is
/// what the runner's topology cache keys on: equal specs build identical
/// topologies, so one built instance can back every sweep point sharing
/// the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// Balanced Dragonfly with global-link count `h` per router
    /// (`p = h`, `a = 2h`, `g = 2h² + 1`). Table V is `h = 8`.
    DragonflyBalanced {
        /// Global links per router.
        h: usize,
        /// Global wiring.
        arrangement: GlobalArrangement,
    },
    /// Explicit Dragonfly parameters.
    Dragonfly {
        /// Terminals per router.
        p: usize,
        /// Routers per group.
        a: usize,
        /// Global links per router.
        h: usize,
        /// Groups.
        g: usize,
        /// Global wiring.
        arrangement: GlobalArrangement,
    },
    /// `n`-dimensional HyperX with per-dimension `(s, k)` shapes (`s`
    /// routers along the dimension, `k` parallel links per peer pair) and
    /// `p` terminals per router; a generic diameter-`n` network. The 2-D
    /// unit-multiplicity instance is the `k × k` flattened butterfly, the
    /// paper's generic diameter-2 network (documents spelling it
    /// `kind = "flat_butterfly"` decode to it).
    HyperX {
        /// Per-dimension `(s, k)` pairs, dimension 0 first.
        dims: Vec<(usize, usize)>,
        /// Terminals per router.
        p: usize,
    },
    /// Dragonfly+ (Megafly): groups are two-level fat trees — `leaves`
    /// leaf routers with `hosts_per_leaf` terminals each, `spines` spine
    /// routers holding the global links, every group pair joined by
    /// `global_mult` global links. Minimal routes are
    /// `leaf → spine → global → spine → leaf`; supported routing modes are
    /// MIN, VAL, PB and UGAL-L/G (PAR's and DAL's in-transit diverts are
    /// not defined on the fat-tree hierarchy — see
    /// [`SimConfig::validate`]).
    DragonflyPlus {
        /// Leaf routers per group (hosts attach here).
        leaves: usize,
        /// Spine routers per group (global links attach here).
        spines: usize,
        /// Terminals per leaf router.
        hosts_per_leaf: usize,
        /// Global links per group pair.
        global_mult: usize,
        /// Number of groups.
        groups: usize,
    },
}

impl TopologySpec {
    /// Instantiate the topology.
    pub fn build(&self) -> Arc<dyn Topology> {
        match self {
            &TopologySpec::DragonflyBalanced { h, arrangement } => {
                Arc::new(Dragonfly::balanced_with(h, arrangement))
            }
            &TopologySpec::Dragonfly {
                p,
                a,
                h,
                g,
                arrangement,
            } => Arc::new(Dragonfly::new(p, a, h, g, arrangement)),
            TopologySpec::HyperX { dims, p } => Arc::new(HyperX::new(dims.clone(), *p)),
            &TopologySpec::DragonflyPlus {
                leaves,
                spines,
                hosts_per_leaf,
                global_mult,
                groups,
            } => Arc::new(DragonflyPlus::new(
                leaves,
                spines,
                hosts_per_leaf,
                global_mult,
                groups,
            )),
        }
    }

    /// Router count of the topology, computed from the shape parameters
    /// alone (no instantiation) — the bound the shard count is validated
    /// against, since every shard must own at least one router.
    pub fn num_routers(&self) -> usize {
        match self {
            TopologySpec::DragonflyBalanced { h, .. } => 2 * h * (2 * h * h + 1),
            TopologySpec::Dragonfly { a, g, .. } => a * g,
            TopologySpec::HyperX { dims, .. } => dims.iter().map(|&(s, _)| s).product(),
            TopologySpec::DragonflyPlus {
                leaves,
                spines,
                groups,
                ..
            } => (leaves + spines) * groups,
        }
    }

    /// Terminal-node count of the topology, computed from the shape
    /// parameters alone. Traffic generation needs at least two nodes
    /// (destinations exclude the source), which [`SimConfig::validate`]
    /// enforces.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologySpec::DragonflyBalanced { h, .. } => h * 2 * h * (2 * h * h + 1),
            TopologySpec::Dragonfly { p, a, g, .. } => p * a * g,
            TopologySpec::HyperX { dims, p } => dims.iter().map(|&(s, _)| s).product::<usize>() * p,
            TopologySpec::DragonflyPlus {
                leaves,
                hosts_per_leaf,
                groups,
                ..
            } => leaves * hosts_per_leaf * groups,
        }
    }

    /// Unified inputs of the widest router — network ports plus attached
    /// terminals — computed from the shape parameters alone (the engine's
    /// per-router input masks are 64 bits wide; see
    /// [`ConfigError::TooManyInputs`]).
    pub fn router_inputs(&self) -> usize {
        match self {
            TopologySpec::DragonflyBalanced { h, .. } => (2 * h - 1) + h + h,
            TopologySpec::Dragonfly { p, a, h, .. } => (a - 1) + h + p,
            TopologySpec::HyperX { dims, p } => {
                dims.iter().map(|&(s, k)| (s - 1) * k).sum::<usize>() + p
            }
            TopologySpec::DragonflyPlus {
                leaves,
                spines,
                hosts_per_leaf,
                global_mult,
                groups,
            } => leaves.max(spines) + global_mult * (groups - 1) / spines + hosts_per_leaf,
        }
    }

    /// Classification family of the topology.
    pub fn family(&self) -> NetworkFamily {
        match self {
            TopologySpec::HyperX { dims, .. } => NetworkFamily::generic(dims.len().max(1)),
            TopologySpec::DragonflyPlus { .. } => NetworkFamily::DragonflyPlus,
            _ => NetworkFamily::Dragonfly,
        }
    }

    /// Shape validation with typed errors (so serde-loaded configurations
    /// fail [`SimConfig::validate`] instead of panicking in `build`).
    pub fn check_shape(&self) -> Result<(), ConfigError> {
        let fail = |why| Err(ConfigError::InvalidTopology { why });
        match self {
            TopologySpec::DragonflyBalanced { h, .. } => {
                if *h == 0 {
                    return fail("balanced Dragonfly needs h >= 1");
                }
            }
            TopologySpec::Dragonfly { p, a, h, g, .. } => {
                if *p < 1 || *a < 2 || *h < 1 {
                    return fail("Dragonfly needs p >= 1, a >= 2, h >= 1");
                }
                if *g < 2 || *g > a * h + 1 {
                    return fail("Dragonfly group count must be in 2..=a*h+1");
                }
            }
            TopologySpec::HyperX { dims, p } => {
                if dims.is_empty() || dims.len() > flexvc_topology::hyperx::MAX_DIMS {
                    return fail("HyperX supports 1..=3 dimensions");
                }
                if dims.iter().any(|&(s, _)| s < 2) {
                    return fail("every HyperX dimension needs at least 2 routers");
                }
                if dims.iter().any(|&(_, k)| k < 1) {
                    return fail("HyperX link multiplicity must be at least 1");
                }
                if *p < 1 {
                    return fail("HyperX needs at least one terminal per router");
                }
            }
            TopologySpec::DragonflyPlus {
                leaves,
                spines,
                hosts_per_leaf,
                global_mult,
                groups,
            } => {
                if *leaves < 1 {
                    return fail(
                        "Dragonfly+ `leaves` must be >= 1 (each group's fat tree \
                         needs leaf routers to attach its hosts to)",
                    );
                }
                if *spines < 1 {
                    return fail(
                        "Dragonfly+ `spines` must be >= 1 (spine routers hold the \
                         group's global links)",
                    );
                }
                if *hosts_per_leaf < 1 {
                    return fail("Dragonfly+ `hosts_per_leaf` must be >= 1");
                }
                if *global_mult < 1 {
                    return fail(
                        "Dragonfly+ `global_mult` must be >= 1 (global links per \
                         group pair)",
                    );
                }
                if *groups < 2 {
                    return fail("Dragonfly+ `groups` must be >= 2");
                }
                if !(global_mult * (groups - 1)).is_multiple_of(*spines) {
                    return fail(
                        "Dragonfly+ shape must satisfy `global_mult * (groups - 1) \
                         % spines == 0` (every spine gets an equal share of its \
                         group's global links)",
                    );
                }
            }
        }
        Ok(())
    }
}

/// How per-VC buffer capacities are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferSizing {
    /// Fixed capacity per VC (Table V: 32 local, 256 global). Total port
    /// memory grows with the VC count (Fig. 5 methodology).
    PerVc {
        /// Local input buffer per VC, phits.
        local: u32,
        /// Global input buffer per VC, phits.
        global: u32,
    },
    /// Fixed total memory per port, split evenly across its VCs (Fig. 6 /
    /// Fig. 11 methodology, constant cost comparison).
    PerPort {
        /// Total phits per local input port.
        local: u32,
        /// Total phits per global input port.
        global: u32,
    },
}

/// Buffer organization of the network input ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferOrg {
    /// Statically partitioned FIFOs (one private buffer per VC).
    Static,
    /// Dynamically-Allocated Multi-Queue: a shared pool per port with a
    /// private reservation per VC. The paper's reference configuration
    /// reserves 75% of the port memory privately (§VI-C).
    Damq {
        /// Fraction of the port memory reserved privately per VC,
        /// distributed evenly (0.0 = fully shared, 1.0 = static).
        private_fraction: f64,
    },
}

/// Buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferConfig {
    /// Input bank sizing.
    pub sizing: BufferSizing,
    /// Input bank organization.
    pub organization: BufferOrg,
    /// Injection buffer per injection VC, phits (Table V: 256).
    pub injection: u32,
    /// Output buffer per port, phits (Table V: 32).
    pub output: u32,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            sizing: BufferSizing::PerVc {
                local: 32,
                global: 256,
            },
            organization: BufferOrg::Static,
            injection: 256,
            output: 32,
        }
    }
}

/// Congestion-sensing granularity for Piggyback routing (§III-D, §V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensingMode {
    /// Sum of the credits of all VCs of each global port.
    PerPort,
    /// First VC of each global port only (first VC of each subpath with
    /// request/reply traffic).
    PerVc,
}

/// Piggyback sensing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensingConfig {
    /// Occupancy aggregation granularity.
    pub mode: SensingMode,
    /// FlexVC-minCred: measure only minimally-routed occupancy.
    pub min_cred: bool,
    /// UGAL/PB threshold `T` in packets (Table V: 3).
    pub threshold: u32,
}

impl Default for SensingConfig {
    fn default() -> Self {
        SensingConfig {
            mode: SensingMode::PerPort,
            min_cred: false,
            threshold: 3,
        }
    }
}

/// How VC budgets are divided between QoS traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassVcMap {
    /// Both classes draw from the full VC budget; priority acts only on
    /// arbitration order. Works under either VC policy — grants are
    /// reordered among already-legal candidates, so the channel dependency
    /// graph is unchanged.
    Shared,
    /// Control traffic owns the first `control_local`/`control_global` VCs
    /// of each class; bulk owns the rest. Requires [`VcPolicy::FlexVc`]
    /// (the baseline's fixed hop-to-VC map cannot confine a class to a
    /// subset), and each class's sub-arrangement must independently embed
    /// a safe minimal path — see [`SimConfig::validate`].
    Partitioned {
        /// Local-class VCs owned by control traffic.
        control_local: usize,
        /// Global-class VCs owned by control traffic.
        control_global: usize,
    },
}

/// Multi-class QoS configuration: strict-priority arbitration for control
/// traffic with a bounded bypass for bulk liveness, optional per-class VC
/// partitioning, and an optional dynamic per-class buffer repartitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// Per-class VC budget mapping.
    pub vc_map: ClassVcMap,
    /// Consecutive priority grants a control head may take while a bulk
    /// head is waiting at the same arbiter before one bulk grant is forced
    /// through (anti-starvation escape). Must be at least 1.
    pub bypass_bound: u32,
    /// Enable the dynamic per-class buffer repartitioner: per-port quota
    /// chunks shift between the classes on occupancy pressure (DAMQ-style,
    /// but class-scoped; quota sums stay constant per port).
    pub repartition: bool,
    /// Initial fraction of each port's buffer quota assigned to the
    /// control class (strictly between 0 and 1).
    pub control_quota_fraction: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            vc_map: ClassVcMap::Shared,
            bypass_bound: 4,
            repartition: false,
            control_quota_fraction: 0.5,
        }
    }
}

impl QosConfig {
    /// Shared-budget priority QoS with the default bypass bound.
    pub fn shared() -> Self {
        QosConfig::default()
    }

    /// Class-partitioned QoS: control owns the first
    /// `control_local`/`control_global` VCs per class.
    pub fn partitioned(control_local: usize, control_global: usize) -> Self {
        QosConfig {
            vc_map: ClassVcMap::Partitioned {
                control_local,
                control_global,
            },
            ..QosConfig::default()
        }
    }

    /// Enable the dynamic per-class buffer repartitioner.
    pub fn with_repartition(mut self) -> Self {
        self.repartition = true;
        self
    }
}

/// Full simulation configuration. Defaults follow Table V at a reduced
/// network scale (see `DESIGN.md` §6 on the scale substitution).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network topology.
    pub topology: TopologySpec,
    /// Routing mechanism.
    pub routing: RoutingMode,
    /// VC management policy.
    pub policy: VcPolicy,
    /// VC arrangement (master reference sequence).
    pub arrangement: Arrangement,
    /// FlexVC VC selection function (Table V: JSQ).
    pub selection: VcSelection,
    /// Traffic workload.
    pub workload: Workload,
    /// Packet size in phits (Table V: 8).
    pub packet_size: u32,
    /// Local link latency in cycles (Table V: 10).
    pub local_latency: u32,
    /// Global link latency in cycles (Table V: 100).
    pub global_latency: u32,
    /// Router pipeline latency in cycles (Table V: 5).
    pub pipeline_latency: u32,
    /// Internal crossbar frequency speedup (Table V: 2; Fig. 11 uses 1).
    pub speedup: u32,
    /// Buffers.
    pub buffers: BufferConfig,
    /// Injection VCs per injection port (Table V: 3).
    pub injection_vcs: usize,
    /// Piggyback sensing.
    pub sensing: SensingConfig,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Measurement window in cycles. The paper measures 60,000 cycles at
    /// its full `h = 8` scale; [`SimConfig::dragonfly_baseline`] defaults
    /// to 20,000 to match the reduced default network (use `--paper`
    /// with the harness, or set this field, for the full window).
    pub measure: u64,
    /// Forward-progress watchdog: abort and flag deadlock after this many
    /// cycles without any packet movement while packets are in flight.
    pub watchdog: u64,
    /// How many allocation evaluations a head may stay blocked on an
    /// opportunistic hop before reverting to its escape path. `0` reverts on
    /// the first missing credit (the paper's strictest reading); a small
    /// patience lets transient buffer fill-ups pass, which matters when
    /// reverted packets would pile onto an already-congested minimal
    /// channel. Waiting is deadlock-safe: the escape path stays available
    /// (Duato's criterion).
    pub revert_patience: u32,
    /// Reactive traffic: staged replies a node may hold before its
    /// *request* consumption stalls (the NIC's reply-generation queue).
    /// This is the protocol coupling behind the paper's request–reply
    /// congestion: when replies cannot drain into the network, requests
    /// back up behind the stalled consumption ports. Reply consumption
    /// never stalls, so the dependency chain stays acyclic.
    pub reply_queue_packets: usize,
    /// Adaptive parallel-copy selection for `k > 1` link multiplicity:
    /// route each hop over the least-occupied copy of its link (sensed at
    /// the deciding router) instead of the static endpoint hash. Off by
    /// default — the hash keeps routes a pure function of the endpoints,
    /// which the equivalence snapshots rely on.
    pub adaptive_copies: bool,
    /// Engine shards: partition the routers across this many worker
    /// threads with a deterministic per-epoch boundary exchange (see
    /// `sim::shard`). Results are bit-identical for every shard count;
    /// only wall-clock time changes. `1` runs on the calling thread;
    /// `0` auto-detects from the host's available parallelism (the one
    /// setting whose *throughput* — never results — depends on the
    /// machine).
    pub shards: usize,
    /// Multi-class QoS: strict-priority arbitration with bounded bypass,
    /// optional class-partitioned VC budgets and dynamic buffer
    /// repartitioning. `None` runs the single-class engine paths
    /// bit-identically to configurations predating this field.
    pub qos: Option<QosConfig>,
}

/// The minimum arrangement on which the baseline policy supports `routing`
/// on the topology family — Table V's 2/1 (MIN), 4/2 (VAL, PB, UGAL, DAL)
/// and 5/2 (PAR) on both Dragonfly families, the generic diameter-`d`
/// reference length on a HyperX — doubled into request/reply halves when
/// `reactive`. Every baseline constructor and the decoder of documents
/// that omit `arrangement` derive it here.
///
/// Dragonfly+ shares the Dragonfly's `L G L` texture and baseline minima;
/// only its FlexVC classifier boundaries differ, and those are enforced by
/// [`SimConfig::validate`], not by this default.
pub fn default_arrangement(
    family: NetworkFamily,
    routing: RoutingMode,
    reactive: bool,
) -> Arrangement {
    match family.generic_diameter() {
        None => {
            let (l, g) = routing.min_dragonfly_vcs();
            if reactive {
                Arrangement::dragonfly_rr((l, g), (l, g))
            } else {
                Arrangement::dragonfly(l, g)
            }
        }
        Some(d) => {
            let n = routing.min_hyperx_vcs(d);
            if reactive {
                Arrangement::generic_rr(n, n)
            } else {
                Arrangement::generic(n)
            }
        }
    }
}

impl SimConfig {
    /// Table V on `topology`: the baseline policy on the minimum
    /// arrangement for the routing/workload ([`default_arrangement`]),
    /// JSQ selection, 8-phit packets, 10/100-cycle local/global links, a
    /// 5-cycle pipeline, 2× speedup, 3 injection VCs, per-port sensing
    /// with threshold 3, and 10k/20k-cycle windows at the reduced default
    /// scale. The only place these defaults are written.
    fn table_v(topology: TopologySpec, routing: RoutingMode, workload: Workload) -> Self {
        SimConfig {
            arrangement: default_arrangement(topology.family(), routing, workload.is_reactive()),
            topology,
            routing,
            policy: VcPolicy::Baseline,
            selection: VcSelection::Jsq,
            workload,
            packet_size: 8,
            local_latency: 10,
            global_latency: 100,
            pipeline_latency: 5,
            speedup: 2,
            buffers: BufferConfig::default(),
            injection_vcs: 3,
            sensing: SensingConfig::default(),
            warmup: 10_000,
            measure: 20_000,
            watchdog: 20_000,
            revert_patience: 16,
            reply_queue_packets: 4,
            adaptive_copies: false,
            shards: 1,
            qos: None,
        }
    }

    /// Baseline configuration on a balanced Dragonfly of size `h` for a
    /// routing mode, with the minimum VC arrangement of Table V
    /// (2/1 for MIN, 4/2 for VAL/PB, 5/2 for PAR; doubled when reactive).
    pub fn dragonfly_baseline(h: usize, routing: RoutingMode, workload: Workload) -> Self {
        let topology = TopologySpec::DragonflyBalanced {
            h,
            arrangement: GlobalArrangement::default(),
        };
        Self::table_v(topology, routing, workload)
    }

    /// Baseline configuration on a regular `n`-dimensional HyperX of `s`
    /// routers per dimension (unit link multiplicity) with `p` terminals,
    /// using the minimum generic arrangement for the routing mode
    /// ([`RoutingMode::min_hyperx_vcs`]; doubled when reactive). Link
    /// latencies are uniform (all links share one class), so the global
    /// latency is set equal to the local one.
    pub fn hyperx_baseline(
        n: usize,
        s: usize,
        p: usize,
        routing: RoutingMode,
        workload: Workload,
    ) -> Self {
        let topology = TopologySpec::HyperX {
            dims: vec![(s, 1); n],
            p,
        };
        let mut cfg = Self::table_v(topology, routing, workload);
        // Single-class network: one uniform link latency.
        cfg.global_latency = cfg.local_latency;
        cfg
    }

    /// Baseline configuration on a Dragonfly+ with `leaves`/`spines`
    /// routers and `hosts_per_leaf` terminals per group, `groups` groups
    /// and one global link per group pair, using the minimum VC
    /// arrangement for the routing mode (the Dragonfly counts, since
    /// Dragonfly+ shares the `L G L` reference texture; doubled when
    /// reactive). Local (fat-tree) links keep the Dragonfly local
    /// latency, global links the global one.
    pub fn dfplus_baseline(
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
        groups: usize,
        routing: RoutingMode,
        workload: Workload,
    ) -> Self {
        let topology = TopologySpec::DragonflyPlus {
            leaves,
            spines,
            hosts_per_leaf,
            global_mult: 1,
            groups,
        };
        Self::table_v(topology, routing, workload)
    }

    /// Switch to FlexVC with the given arrangement.
    pub fn with_flexvc(mut self, arrangement: Arrangement) -> Self {
        self.policy = VcPolicy::FlexVc;
        self.arrangement = arrangement;
        self
    }

    /// Attach a multi-class QoS configuration.
    pub fn with_qos(mut self, qos: QosConfig) -> Self {
        self.qos = Some(qos);
        self
    }

    /// Switch the buffer organization to DAMQ with the paper's reference
    /// 75% private reservation.
    pub fn with_damq75(mut self) -> Self {
        self.buffers.organization = BufferOrg::Damq {
            private_fraction: 0.75,
        };
        self
    }

    /// Link latency in cycles for a port of the given class.
    pub fn link_latency(&self, class: LinkClass) -> u32 {
        match class {
            LinkClass::Local => self.local_latency,
            LinkClass::Global => self.global_latency,
        }
    }

    /// VC count for a port of the given class.
    pub fn vcs_for_class(&self, class: flexvc_core::LinkClass) -> usize {
        self.arrangement.vc_count(class)
    }

    /// Per-VC input buffer capacity for a port class.
    pub fn vc_capacity(&self, class: flexvc_core::LinkClass) -> u32 {
        use flexvc_core::LinkClass::*;
        match self.buffers.sizing {
            BufferSizing::PerVc { local, global } => match class {
                Local => local,
                Global => global,
            },
            BufferSizing::PerPort { local, global } => {
                let total = match class {
                    Local => local,
                    Global => global,
                };
                total / self.vcs_for_class(class).max(1) as u32
            }
        }
    }

    /// Bitmask over the per-class VC indices of `link` that packets of
    /// `tclass` may occupy under the configured QoS VC map. All ones when
    /// QoS is off or the budget is shared; under
    /// [`ClassVcMap::Partitioned`] control owns the low indices and bulk
    /// the rest.
    pub fn qos_vc_mask(&self, link: LinkClass, tclass: TrafficClass) -> u32 {
        let n = self.vcs_for_class(link);
        let full = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
        let Some(qos) = &self.qos else { return full };
        match qos.vc_map {
            ClassVcMap::Shared => full,
            ClassVcMap::Partitioned {
                control_local,
                control_global,
            } => {
                let c = match link {
                    LinkClass::Local => control_local,
                    LinkClass::Global => control_global,
                }
                .min(n);
                let ctrl = if c >= 32 { u32::MAX } else { (1u32 << c) - 1 };
                match tclass {
                    TrafficClass::Control => ctrl,
                    TrafficClass::Bulk => full & !ctrl,
                }
            }
        }
    }

    /// The sub-arrangement (a subsequence of the master reference
    /// sequence) a traffic class is confined to under a partitioned QoS
    /// VC map: control keeps the positions whose per-class VC index falls
    /// below its budget, bulk keeps the complement. `None` when QoS is
    /// off, the budget is shared, or the class's subsequence is empty.
    ///
    /// This is the object of the priority-composition proof: strict
    /// priority composes with FlexVC's position-based safety argument iff
    /// each class's sub-arrangement independently admits a safe minimal
    /// embedding (validated in [`SimConfig::validate`]).
    pub fn qos_sub_arrangement(&self, tclass: TrafficClass) -> Option<Arrangement> {
        let qos = self.qos.as_ref()?;
        let ClassVcMap::Partitioned {
            control_local,
            control_global,
        } = qos.vc_map
        else {
            return None;
        };
        let mut seq = Vec::new();
        for pos in 0..self.arrangement.len() {
            let class = self.arrangement.class_at(pos);
            let bound = match class {
                LinkClass::Local => control_local,
                LinkClass::Global => control_global,
            };
            let in_control = self.arrangement.vc_index_at(pos) < bound;
            if (tclass == TrafficClass::Control) == in_control {
                seq.push(class);
            }
        }
        if seq.is_empty() {
            None
        } else {
            Some(Arrangement::new(seq))
        }
    }

    /// Total memory of an input port of the given class.
    pub fn port_capacity(&self, class: flexvc_core::LinkClass) -> u32 {
        use flexvc_core::LinkClass::*;
        match self.buffers.sizing {
            BufferSizing::PerVc { local, global } => {
                let per = match class {
                    Local => local,
                    Global => global,
                };
                per * self.vcs_for_class(class) as u32
            }
            BufferSizing::PerPort { local, global } => match class {
                Local => local,
                Global => global,
            },
        }
    }

    /// Validate the configuration; returns a typed [`ConfigError`] when the
    /// policy cannot operate deadlock-free on the arrangement (or the
    /// configuration cannot be simulated at all).
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Checked before the shape: a single-node topology would pass the
        // per-parameter minimums of some families, then panic inside the
        // generators' `gen_range(0..num_nodes - 1)` destination draw.
        let nodes = self.topology.num_nodes();
        if nodes == 1 {
            return Err(ConfigError::SingleNodeTopology);
        }
        self.topology.check_shape()?;
        let inputs = self.topology.router_inputs();
        if inputs > MAX_ROUTER_INPUTS {
            return Err(ConfigError::TooManyInputs {
                inputs,
                max: MAX_ROUTER_INPUTS,
            });
        }
        let routers = self.topology.num_routers();
        if self.shards > routers {
            return Err(ConfigError::ShardsExceedRouters {
                shards: self.shards,
                routers,
            });
        }
        let family = self.topology.family();
        if self.routing.needs_dimensions() && !matches!(self.topology, TopologySpec::HyperX { .. })
        {
            return Err(ConfigError::InvalidTopology {
                why: "DAL routing needs the per-dimension divert structure of a HyperX topology",
            });
        }
        if self.routing.decides_in_transit()
            && matches!(self.topology, TopologySpec::DragonflyPlus { .. })
        {
            // PAR's classic divert point is "after one minimal local hop,
            // before the global" — on Dragonfly+ that router is a spine,
            // where a divert would need spine-level Valiant paths that
            // exceed the `L G L | L G L` reference. DAL additionally needs
            // per-dimension structure (caught above).
            return Err(ConfigError::InvalidTopology {
                why: "PAR/DAL in-transit diverts are not defined on Dragonfly+ \
                      (the first minimal hop lands on a spine); use VAL, PB or \
                      UGAL for non-minimal routing",
            });
        }
        if self.packet_size == 0 {
            return Err(ConfigError::NonPositive {
                what: "packet size",
            });
        }
        if self.speedup == 0 {
            return Err(ConfigError::NonPositive { what: "speedup" });
        }
        if self.injection_vcs == 0 {
            return Err(ConfigError::NonPositive {
                what: "injection_vcs",
            });
        }
        for (what, vcs) in [
            ("local", self.vcs_for_class(LinkClass::Local)),
            ("global", self.vcs_for_class(LinkClass::Global)),
            ("injection", self.injection_vcs),
        ] {
            if vcs > MAX_VCS {
                return Err(ConfigError::TooManyVcs {
                    what,
                    vcs,
                    max: MAX_VCS,
                });
            }
        }
        let classes: &[MessageClass] = if self.workload.is_reactive() {
            &[MessageClass::Request, MessageClass::Reply]
        } else {
            &[MessageClass::Request]
        };
        if self.workload.is_reactive() && !self.arrangement.has_reply_part() {
            return Err(ConfigError::MissingReplyArrangement);
        }
        if !self.workload.is_reactive() && self.arrangement.has_reply_part() {
            return Err(ConfigError::UnexpectedReplyArrangement);
        }
        if let Some(spec) = self.workload.flow_spec() {
            self.check_flow_spec(spec, nodes)?;
        }
        if let Workload::Synthetic { pattern, mix, .. } = self.workload {
            let fail = |why| Err(ConfigError::InvalidWorkload { why });
            if let Pattern::BurstyUniform { mean_burst } = pattern {
                if !mean_burst.is_finite() || mean_burst < 1.0 {
                    return fail("bursty mean_burst must be at least one packet and finite");
                }
            }
            if mix.is_some_and(|m| !(0.0..=1.0).contains(&m.control_fraction)) {
                return fail("control_fraction must be in [0, 1]");
            }
        }
        if let BufferOrg::Damq { private_fraction } = self.buffers.organization {
            if !(0.0..=1.0).contains(&private_fraction) {
                return Err(ConfigError::InvalidBuffers {
                    why: "DAMQ private_fraction must be in [0, 1]",
                });
            }
        }
        for &msg in classes {
            match self.policy {
                VcPolicy::Baseline => {
                    let reference = self.routing.reference(family);
                    if !supports_baseline(&self.arrangement, msg, reference) {
                        return Err(ConfigError::BaselineArrangement {
                            routing: self.routing,
                            msg,
                            arrangement: self.arrangement.to_string(),
                        });
                    }
                }
                VcPolicy::FlexVc => {
                    // MIN must be safe (it is every packet's escape), and the
                    // configured routing must be at least opportunistic.
                    if classify(family, RoutingMode::Min, &self.arrangement, msg) != Support::Safe {
                        return Err(ConfigError::MinimalNotSafe {
                            msg,
                            arrangement: self.arrangement.to_string(),
                        });
                    }
                    if classify(family, self.routing, &self.arrangement, msg)
                        == Support::Unsupported
                    {
                        // Name the classifier's safe minimum so the error
                        // tells the user which arrangement would work.
                        let min = default_arrangement(family, self.routing, false);
                        let minimum = match family.generic_diameter() {
                            Some(_) => format!("{} single-class VCs", min.total_vcs()),
                            None => format!(
                                "{}/{} local/global VCs",
                                min.vc_count(LinkClass::Local),
                                min.vc_count(LinkClass::Global)
                            ),
                        };
                        return Err(ConfigError::InsufficientVcs {
                            routing: self.routing,
                            msg,
                            arrangement: self.arrangement.to_string(),
                            minimum,
                        });
                    }
                }
            }
        }
        if let Some(qos) = &self.qos {
            self.check_qos(qos, family)?;
        }
        // Buffers must hold at least one packet per VC.
        for class in [
            flexvc_core::LinkClass::Local,
            flexvc_core::LinkClass::Global,
        ] {
            if self.vcs_for_class(class) > 0 && self.vc_capacity(class) < self.packet_size {
                return Err(ConfigError::VcCapacityBelowPacket { class });
            }
        }
        if self.buffers.output < self.packet_size || self.buffers.injection < self.packet_size {
            return Err(ConfigError::PortBuffersBelowPacket);
        }
        Ok(())
    }

    /// [`SimConfig::validate`] plus the offered load a run pairs with the
    /// configuration, which must lie in `[0, 1]` phits/node/cycle (NaN
    /// does not): every engine constructor and batch runner checks both.
    pub fn validate_point(&self, load: f64) -> Result<(), ConfigError> {
        self.validate()?;
        if (0.0..=1.0).contains(&load) {
            Ok(())
        } else {
            Err(ConfigError::InvalidLoad { load })
        }
    }

    /// QoS sanity and deadlock-safety checks (part of
    /// [`SimConfig::validate`]). The partitioned branch proves — or
    /// refutes, via [`ConfigError::QosPartitionUnsafe`] — that strict
    /// priority composes with FlexVC's position-based safety argument:
    /// the two classes occupy disjoint VC subsets, so no cross-class
    /// buffer dependency exists, and each class's sub-arrangement must
    /// independently embed a safe minimal (escape) path.
    fn check_qos(&self, qos: &QosConfig, family: NetworkFamily) -> Result<(), ConfigError> {
        if self.workload.is_reactive() {
            return Err(ConfigError::QosReactiveUnsupported);
        }
        let fail = |why| Err(ConfigError::QosInvalidParam { why });
        if qos.bypass_bound == 0 {
            return fail("bypass bound must be at least 1");
        }
        if !(qos.control_quota_fraction > 0.0 && qos.control_quota_fraction < 1.0) {
            return fail("control quota fraction must be strictly between 0 and 1");
        }
        if let ClassVcMap::Partitioned {
            control_local,
            control_global,
        } = qos.vc_map
        {
            if !matches!(self.policy, VcPolicy::FlexVc) {
                return Err(ConfigError::QosPartitionRequiresFlexVc);
            }
            let nl = self.arrangement.vc_count(LinkClass::Local);
            let ng = self.arrangement.vc_count(LinkClass::Global);
            if control_local > nl || control_global > ng {
                return fail("control partition exceeds the VC budget");
            }
            if control_local + control_global == 0 {
                return fail("control partition must own at least one VC");
            }
            if control_local == nl && control_global == ng {
                return fail("bulk partition must own at least one VC");
            }
            for tclass in [TrafficClass::Control, TrafficClass::Bulk] {
                let sub = self
                    .qos_sub_arrangement(tclass)
                    .expect("both partitions are non-empty (checked above)");
                // MIN must be safe inside the partition (it is the
                // class's escape), and the configured routing must be at
                // least opportunistic there.
                if classify(family, RoutingMode::Min, &sub, MessageClass::Request) != Support::Safe
                    || classify(family, self.routing, &sub, MessageClass::Request)
                        == Support::Unsupported
                {
                    return Err(ConfigError::QosPartitionUnsafe {
                        tclass,
                        arrangement: sub.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Flow-workload sanity checks (part of [`SimConfig::validate`]).
    fn check_flow_spec(
        &self,
        spec: flexvc_traffic::FlowSpec,
        nodes: usize,
    ) -> Result<(), ConfigError> {
        use flexvc_traffic::{FlowPattern, SizeDist};
        let fail = |why| Err(ConfigError::InvalidWorkload { why });
        match spec.sizes {
            SizeDist::Fixed { packets: 0 } => {
                return fail("flow size must be at least one packet");
            }
            SizeDist::Bimodal {
                mice,
                elephants,
                elephant_frac,
            } => {
                if mice == 0 || elephants == 0 {
                    return fail("bimodal flow sizes must be at least one packet");
                }
                if !(0.0..=1.0).contains(&elephant_frac) {
                    return fail("elephant fraction must be in [0, 1]");
                }
            }
            SizeDist::Pareto { min, max, alpha } => {
                if min == 0 {
                    return fail("Pareto minimum flow size must be at least one packet");
                }
                if max < min {
                    return fail("Pareto maximum flow size must be >= the minimum");
                }
                if alpha.is_nan() || alpha <= 0.0 {
                    return fail("Pareto tail index alpha must be positive");
                }
            }
            _ => {}
        }
        match spec.pattern {
            FlowPattern::Hotspot { hotspots, fraction } => {
                if hotspots == 0 || hotspots > nodes {
                    return fail("hotspot count must be in 1..=num_nodes");
                }
                if !(0.0..=1.0).contains(&fraction) {
                    return fail("hotspot fraction must be in [0, 1]");
                }
            }
            FlowPattern::Incast {
                fanin,
                phase_cycles,
            } => {
                if fanin == 0 {
                    return fail("incast fan-in must be at least 1");
                }
                if phase_cycles == 0 {
                    return fail("incast phase length must be at least one cycle");
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Convenience: the paper's quick test scale (h = 2 Dragonfly, short
    /// windows) for unit/integration tests.
    pub fn test_scale(mut self) -> Self {
        self.topology = TopologySpec::DragonflyBalanced {
            h: 2,
            arrangement: GlobalArrangement::default(),
        };
        self.warmup = 3_000;
        self.measure = 6_000;
        self.watchdog = 10_000;
        self
    }
}

/// Convenience constructor for oblivious workloads matching the paper's
/// Fig. 5 setups: MIN for UN/BURSTY-UN, VAL for ADV.
pub fn paper_routing_for(pattern: Pattern) -> RoutingMode {
    match pattern {
        Pattern::Adversarial { .. } => RoutingMode::Valiant,
        _ => RoutingMode::Min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_core::LinkClass::*;

    /// The minimum-arrangement rule, pinned for every routing mode, both
    /// workload kinds and every topology family: each `*_baseline`
    /// constructor holds exactly what [`default_arrangement`] derives for
    /// its spec. Combinations `validate` rejects (DAL off HyperX, PAR on
    /// Dragonfly+) are compared too — this is about the derivation.
    #[test]
    fn baselines_hold_the_default_arrangement() {
        let modes = [
            RoutingMode::Min,
            RoutingMode::Valiant,
            RoutingMode::Par,
            RoutingMode::Piggyback,
            RoutingMode::UgalL,
            RoutingMode::UgalG,
            RoutingMode::Dal,
        ];
        for routing in modes {
            for reactive in [false, true] {
                let workload = if reactive {
                    Workload::reactive(Pattern::Uniform)
                } else {
                    Workload::oblivious(Pattern::Uniform)
                };
                for cfg in [
                    SimConfig::dragonfly_baseline(2, routing, workload),
                    SimConfig::dfplus_baseline(2, 2, 2, 5, routing, workload),
                    SimConfig::hyperx_baseline(1, 4, 2, routing, workload),
                    SimConfig::hyperx_baseline(2, 4, 2, routing, workload),
                    SimConfig::hyperx_baseline(3, 3, 2, routing, workload),
                ] {
                    let derived = default_arrangement(cfg.topology.family(), routing, reactive);
                    assert_eq!(
                        cfg.arrangement, derived,
                        "{routing} reactive={reactive} {:?}",
                        cfg.topology
                    );
                    assert_eq!(cfg.arrangement.has_reply_part(), reactive);
                }
            }
        }
        // Spot values: Table V's VAL 4/2 on both Dragonfly families, and
        // the diameter-3 generic VAL reference (6 VCs) on a 3-D HyperX.
        let val = |cfg: SimConfig| {
            let a = cfg.arrangement;
            (a.vc_count(Local), a.vc_count(Global), a.total_vcs())
        };
        let un = Workload::oblivious(Pattern::Uniform);
        let v = RoutingMode::Valiant;
        assert_eq!(val(SimConfig::dragonfly_baseline(2, v, un)), (4, 2, 6));
        assert_eq!(
            val(SimConfig::dfplus_baseline(2, 2, 2, 5, v, un)),
            (4, 2, 6)
        );
        assert_eq!(val(SimConfig::hyperx_baseline(2, 4, 2, v, un)).2, 4);
        assert_eq!(val(SimConfig::hyperx_baseline(3, 3, 2, v, un)).2, 6);
    }

    #[test]
    fn invalid_combinations_are_typed_errors() {
        let base = || {
            SimConfig::dragonfly_baseline(
                2,
                RoutingMode::Valiant,
                Workload::oblivious(Pattern::Uniform),
            )
        };
        // FlexVC VAL on the 2/1 MIN arrangement: unsupported.
        let err = base()
            .with_flexvc(Arrangement::dragonfly_min())
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InsufficientVcs { .. }), "{err}");
        // The rendered rejection names the classifier's safe minimum.
        assert!(err.to_string().contains("4/2 local/global VCs"), "{err}");

        // Degenerate topology shapes are typed errors, not panics.
        let mut cfg = base();
        cfg.routing = RoutingMode::Min;
        cfg.topology = TopologySpec::HyperX {
            dims: vec![(2, 1); 4],
            p: 1,
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::InvalidTopology { .. }), "{err}");

        // Zero packet size.
        let mut cfg = base();
        cfg.packet_size = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NonPositive { .. })
        ));
    }

    /// A DAMQ reservation outside the port memory, a burst shorter than
    /// one packet and a control fraction outside `[0, 1]` (NaN included)
    /// are typed errors; each once passed `validate` and then tripped an
    /// assertion in the bank or the generators.
    #[test]
    fn out_of_range_fractions_are_rejected() {
        let with = |private_fraction, mean_burst, control_fraction| {
            let pattern = Pattern::BurstyUniform { mean_burst };
            let workload = Workload::oblivious(pattern).with_mix(control_fraction);
            let mut cfg = SimConfig::dragonfly_baseline(2, RoutingMode::Min, workload);
            cfg.buffers.organization = BufferOrg::Damq { private_fraction };
            cfg.validate()
        };
        with(0.0, 1.0, 0.0).unwrap();
        with(1.0, 1.0, 1.0).unwrap();
        for bad in [1.5, -0.1, f64::NAN] {
            let err = with(bad, 5.0, 0.1);
            assert!(
                matches!(err, Err(ConfigError::InvalidBuffers { .. })),
                "{bad}"
            );
            let err = with(0.75, 5.0, bad);
            assert!(
                matches!(err, Err(ConfigError::InvalidWorkload { .. })),
                "{bad}"
            );
        }
        for bad in [0.5, f64::NAN, f64::INFINITY] {
            let err = with(0.75, bad, 0.1);
            assert!(
                matches!(err, Err(ConfigError::InvalidWorkload { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn baseline_min_config_validates() {
        let cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        );
        cfg.validate().unwrap();
        assert_eq!(cfg.vcs_for_class(Local), 2);
        assert_eq!(cfg.vcs_for_class(Global), 1);
        assert_eq!(cfg.vc_capacity(Local), 32);
        assert_eq!(cfg.vc_capacity(Global), 256);
        assert_eq!(cfg.port_capacity(Local), 64);
    }

    /// A balanced Dragonfly router has `4h − 1` inputs: h = 16 (63) fits
    /// the allocator's 64-bit input masks, h = 17 (67) is rejected with a
    /// typed error instead of silently losing inputs 64 and up.
    #[test]
    fn routers_wider_than_the_input_masks_are_rejected() {
        let at = |h| {
            SimConfig::dragonfly_baseline(
                h,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            )
        };
        at(16).validate().unwrap();
        assert_eq!(
            at(17).validate(),
            Err(ConfigError::TooManyInputs {
                inputs: 67,
                max: 64
            })
        );
    }

    /// `router_inputs` is computed from the shape alone; it must equal what
    /// the built topology reports on every family.
    #[test]
    fn router_inputs_match_the_built_topology() {
        let shapes = [
            TopologySpec::DragonflyBalanced {
                h: 3,
                arrangement: GlobalArrangement::Palmtree,
            },
            TopologySpec::Dragonfly {
                p: 3,
                a: 5,
                h: 2,
                g: 7,
                arrangement: GlobalArrangement::Palmtree,
            },
            TopologySpec::HyperX {
                dims: vec![(4, 1); 2],
                p: 2,
            },
            TopologySpec::HyperX {
                dims: vec![(4, 1), (3, 2), (2, 3)],
                p: 2,
            },
            TopologySpec::DragonflyPlus {
                leaves: 3,
                spines: 2,
                hosts_per_leaf: 3,
                global_mult: 2,
                groups: 5,
            },
            TopologySpec::DragonflyPlus {
                leaves: 2,
                spines: 4,
                hosts_per_leaf: 2,
                global_mult: 4,
                groups: 3,
            },
        ];
        for spec in shapes {
            spec.check_shape().unwrap();
            let topo = spec.build();
            assert_eq!(
                spec.router_inputs(),
                topo.num_ports() + topo.nodes_per_router(),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn baseline_rejects_flexvc_only_arrangement() {
        let cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Valiant,
            Workload::oblivious(Pattern::adv1()),
        )
        .with_flexvc(Arrangement::dragonfly(3, 2));
        // FlexVC 3/2 validates (opportunistic VAL)…
        cfg.validate().unwrap();
        // …but baseline on 3/2 must not.
        let mut bad = cfg;
        bad.policy = VcPolicy::Baseline;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn flexvc_rejects_unsupported() {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Valiant,
            Workload::oblivious(Pattern::adv1()),
        );
        cfg = cfg.with_flexvc(Arrangement::dragonfly_min()); // VAL on 2/1: X
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn reactive_requires_split_arrangement() {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::reactive(Pattern::Uniform),
        );
        cfg.validate().unwrap(); // constructor doubles the arrangement
        cfg.arrangement = Arrangement::dragonfly_min();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn per_port_sizing_splits_memory() {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2));
        cfg.buffers.sizing = BufferSizing::PerPort {
            local: 128,
            global: 512,
        };
        assert_eq!(cfg.vc_capacity(Local), 32); // 128 / 4
        assert_eq!(cfg.vc_capacity(Global), 256); // 512 / 2
        assert_eq!(cfg.port_capacity(Local), 128);
        cfg.validate().unwrap();
    }

    /// A port budget below one packet per VC is rejected, as its per-VC
    /// equivalent is, rather than grown to `n × packet_size` phits.
    #[test]
    fn per_port_budget_below_one_packet_per_vc_is_rejected() {
        let uniform = Workload::oblivious(Pattern::Uniform);
        let mut cfg = SimConfig::dragonfly_baseline(2, RoutingMode::Min, uniform);
        let too_small = Err(ConfigError::VcCapacityBelowPacket { class: Local });
        let (local, global) = (8, 8);
        cfg.buffers.sizing = BufferSizing::PerPort { local, global };
        assert_eq!(cfg.vc_capacity(Local), 4);
        assert_eq!(cfg.validate(), too_small);
        let local = 4;
        cfg.buffers.sizing = BufferSizing::PerVc { local, global };
        assert_eq!(cfg.validate(), too_small);
    }

    #[test]
    fn dfplus_baseline_validates_across_modes() {
        for routing in [
            RoutingMode::Min,
            RoutingMode::Valiant,
            RoutingMode::Piggyback,
            RoutingMode::UgalL,
            RoutingMode::UgalG,
        ] {
            let pattern = if routing == RoutingMode::Min {
                Pattern::Uniform
            } else {
                Pattern::adv1()
            };
            let cfg = SimConfig::dfplus_baseline(2, 2, 2, 5, routing, Workload::oblivious(pattern));
            cfg.validate().unwrap_or_else(|e| panic!("{routing}: {e}"));
            let reactive =
                SimConfig::dfplus_baseline(2, 2, 2, 5, routing, Workload::reactive(pattern));
            reactive
                .validate()
                .unwrap_or_else(|e| panic!("{routing} rr: {e}"));
        }
    }

    /// Satellite: Dragonfly+ shape rejections name the offending parameter
    /// and its constraint, mirroring the HyperX `check_shape` wording.
    #[test]
    fn dfplus_shape_errors_name_the_parameter() {
        type Shape = (usize, usize, usize, usize, usize);
        let cases: [(Shape, &str); 6] = [
            ((0, 2, 1, 1, 5), "`leaves` must be >= 1"),
            ((2, 0, 1, 1, 5), "`spines` must be >= 1"),
            ((2, 2, 0, 1, 5), "`hosts_per_leaf` must be >= 1"),
            ((2, 2, 1, 0, 5), "`global_mult` must be >= 1"),
            ((2, 2, 1, 1, 1), "`groups` must be >= 2"),
            (
                (2, 3, 1, 1, 5),
                "`global_mult * (groups - 1) % spines == 0`",
            ),
        ];
        for ((leaves, spines, hosts_per_leaf, global_mult, groups), needle) in cases {
            let spec = TopologySpec::DragonflyPlus {
                leaves,
                spines,
                hosts_per_leaf,
                global_mult,
                groups,
            };
            let err = spec.check_shape().expect_err("degenerate shape accepted");
            let rendered = err.to_string();
            assert!(
                rendered.starts_with("invalid topology: Dragonfly+"),
                "{rendered}"
            );
            assert!(rendered.contains(needle), "{rendered}");
        }
        // A valid shape passes.
        TopologySpec::DragonflyPlus {
            leaves: 4,
            spines: 4,
            hosts_per_leaf: 2,
            global_mult: 1,
            groups: 9,
        }
        .check_shape()
        .unwrap();
    }

    #[test]
    fn dfplus_rejects_in_transit_modes() {
        for routing in [RoutingMode::Par, RoutingMode::Dal] {
            let mut cfg = SimConfig::dfplus_baseline(
                2,
                2,
                2,
                5,
                RoutingMode::Valiant,
                Workload::oblivious(Pattern::adv1()),
            );
            cfg.routing = routing;
            cfg.arrangement = Arrangement::dragonfly(5, 2);
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidTopology { .. }),
                "{routing}: {err}"
            );
        }
    }

    /// FlexVC boundaries on Dragonfly+: MIN works from 2/1 (minimal paths
    /// never leave the leaf hierarchy), but VAL on 3/2 — opportunistic on
    /// a Dragonfly — is rejected (the spine escape `L L G L` eats the
    /// slack), with the error naming the 4/2 minimum.
    #[test]
    fn dfplus_flexvc_boundaries() {
        let min = SimConfig::dfplus_baseline(
            2,
            2,
            2,
            5,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .with_flexvc(Arrangement::dragonfly_min());
        min.validate().unwrap();

        let val = SimConfig::dfplus_baseline(
            2,
            2,
            2,
            5,
            RoutingMode::Valiant,
            Workload::oblivious(Pattern::adv1()),
        )
        .with_flexvc(Arrangement::dragonfly(3, 2));
        let err = val.validate().unwrap_err();
        assert!(matches!(err, ConfigError::InsufficientVcs { .. }), "{err}");
        assert!(err.to_string().contains("4/2 local/global VCs"), "{err}");

        // The safe 4/2 validates under FlexVC.
        let ok = SimConfig::dfplus_baseline(
            2,
            2,
            2,
            5,
            RoutingMode::Valiant,
            Workload::oblivious(Pattern::adv1()),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2));
        ok.validate().unwrap();
    }

    #[test]
    fn node_counts_match_shapes() {
        assert_eq!(
            TopologySpec::DragonflyBalanced {
                h: 2,
                arrangement: GlobalArrangement::default(),
            }
            .num_nodes(),
            72
        );
        assert_eq!(
            TopologySpec::Dragonfly {
                p: 2,
                a: 4,
                h: 2,
                g: 9,
                arrangement: GlobalArrangement::default(),
            }
            .num_nodes(),
            72
        );
        assert_eq!(
            TopologySpec::HyperX {
                dims: vec![(4, 1); 2],
                p: 2,
            }
            .num_nodes(),
            32
        );
        assert_eq!(
            TopologySpec::HyperX {
                dims: vec![(4, 1), (3, 2)],
                p: 2,
            }
            .num_nodes(),
            24
        );
        assert_eq!(
            TopologySpec::DragonflyPlus {
                leaves: 4,
                spines: 4,
                hosts_per_leaf: 2,
                global_mult: 1,
                groups: 9,
            }
            .num_nodes(),
            72
        );
    }

    /// Satellite: a single-node topology used to slip past the per-family
    /// shape minimums and panic inside `NodeGenerator::uniform_dest`'s
    /// `gen_range(0..0)`; `validate` now rejects it with a typed error.
    #[test]
    fn single_node_topology_rejected_at_validation() {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        );
        cfg.topology = TopologySpec::Dragonfly {
            p: 1,
            a: 1,
            h: 1,
            g: 1,
            arrangement: GlobalArrangement::default(),
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ConfigError::SingleNodeTopology);
    }

    #[test]
    fn flow_workloads_validate() {
        use flexvc_traffic::{FlowPattern, FlowSpec, SizeDist};
        let with_spec = |spec| {
            let mut cfg = SimConfig::dragonfly_baseline(
                2,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            );
            cfg.workload = Workload::flows(spec);
            cfg
        };
        with_spec(FlowSpec::uniform(SizeDist::Fixed { packets: 4 }))
            .validate()
            .unwrap();
        with_spec(FlowSpec::permutation(SizeDist::mice_elephants()))
            .validate()
            .unwrap();
        with_spec(FlowSpec::incast(4, SizeDist::heavy_tail()))
            .validate()
            .unwrap();

        let bad = [
            FlowSpec::uniform(SizeDist::Fixed { packets: 0 }),
            FlowSpec::uniform(SizeDist::Bimodal {
                mice: 1,
                elephants: 16,
                elephant_frac: 1.5,
            }),
            FlowSpec::uniform(SizeDist::Pareto {
                min: 8,
                max: 4,
                alpha: 1.5,
            }),
            FlowSpec::uniform(SizeDist::Pareto {
                min: 1,
                max: 64,
                alpha: -1.0,
            }),
            FlowSpec::uniform(SizeDist::Pareto {
                min: 1,
                max: 64,
                alpha: f64::NAN,
            }),
            FlowSpec {
                pattern: FlowPattern::Hotspot {
                    hotspots: 0,
                    fraction: 0.2,
                },
                sizes: SizeDist::Fixed { packets: 1 },
            },
            FlowSpec {
                pattern: FlowPattern::Incast {
                    fanin: 0,
                    phase_cycles: 100,
                },
                sizes: SizeDist::Fixed { packets: 1 },
            },
        ];
        for spec in bad {
            let err = with_spec(spec).validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidWorkload { .. }),
                "{spec:?}: {err}"
            );
        }
    }

    fn min_flexvc_42() -> SimConfig {
        SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform).with_mix(0.1),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2))
    }

    /// Tentpole: the composition proof. On `L G L L G L` (4/2) the
    /// control partition (2,1) carves `L G L` and leaves bulk `L G L` —
    /// both safe, so priority composes and the config validates. On
    /// `L G L G L` (3/2) the same split leaves bulk `G L`, which has no
    /// safe minimal embedding — refuted with a typed error naming the
    /// class and its sub-arrangement.
    #[test]
    fn qos_partition_safety_proved_or_refuted() {
        let ok = min_flexvc_42().with_qos(QosConfig::partitioned(2, 1));
        ok.validate().unwrap();
        assert_eq!(
            ok.qos_sub_arrangement(TrafficClass::Control)
                .unwrap()
                .to_string(),
            ok.qos_sub_arrangement(TrafficClass::Bulk)
                .unwrap()
                .to_string(),
            "the (2,1) split of 4/2 halves the arrangement symmetrically"
        );

        let mut bad = ok.clone();
        bad.arrangement = Arrangement::dragonfly(3, 2);
        let err = bad.validate().unwrap_err();
        match &err {
            ConfigError::QosPartitionUnsafe {
                tclass,
                arrangement,
            } => {
                assert_eq!(*tclass, TrafficClass::Bulk, "{err}");
                assert_eq!(arrangement, "1/1 [G L]", "{err}");
            }
            other => panic!("expected QosPartitionUnsafe, got {other}"),
        }
    }

    #[test]
    fn qos_partition_requires_flexvc() {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .with_qos(QosConfig::partitioned(1, 0));
        // Baseline + Partitioned: the fixed hop-to-VC map cannot confine
        // a class to a subset.
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::QosPartitionRequiresFlexVc
        );
        // Baseline + Shared is fine: priority only reorders grants.
        cfg.qos = Some(QosConfig::shared());
        cfg.validate().unwrap();
    }

    #[test]
    fn qos_rejects_reactive_and_bad_params() {
        let reactive = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::reactive(Pattern::Uniform),
        )
        .with_qos(QosConfig::shared());
        assert_eq!(
            reactive.validate().unwrap_err(),
            ConfigError::QosReactiveUnsupported
        );

        let base = min_flexvc_42();
        let cases: [(QosConfig, &str); 5] = [
            (
                QosConfig {
                    bypass_bound: 0,
                    ..QosConfig::default()
                },
                "bypass bound",
            ),
            (
                QosConfig {
                    control_quota_fraction: 0.0,
                    ..QosConfig::default()
                },
                "quota fraction",
            ),
            (QosConfig::partitioned(5, 1), "exceeds the VC budget"),
            (QosConfig::partitioned(0, 0), "at least one VC"),
            (QosConfig::partitioned(4, 2), "bulk partition"),
        ];
        for (qos, needle) in cases {
            let err = base.clone().with_qos(qos).validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::QosInvalidParam { .. })
                    && err.to_string().contains(needle),
                "{qos:?}: {err}"
            );
        }
    }

    #[test]
    fn qos_vc_masks_partition_the_budget() {
        let cfg = min_flexvc_42().with_qos(QosConfig::partitioned(2, 1));
        assert_eq!(
            cfg.qos_vc_mask(Local, flexvc_core::TrafficClass::Control),
            0b0011
        );
        assert_eq!(
            cfg.qos_vc_mask(Local, flexvc_core::TrafficClass::Bulk),
            0b1100
        );
        assert_eq!(
            cfg.qos_vc_mask(Global, flexvc_core::TrafficClass::Control),
            0b01
        );
        assert_eq!(
            cfg.qos_vc_mask(Global, flexvc_core::TrafficClass::Bulk),
            0b10
        );
        // Shared (and QoS-off) masks are all ones over the budget.
        let shared = min_flexvc_42().with_qos(QosConfig::shared());
        let off = min_flexvc_42();
        for link in [Local, Global] {
            for t in [
                flexvc_core::TrafficClass::Control,
                flexvc_core::TrafficClass::Bulk,
            ] {
                assert_eq!(shared.qos_vc_mask(link, t), off.qos_vc_mask(link, t));
            }
        }
        assert_eq!(
            off.qos_vc_mask(Local, flexvc_core::TrafficClass::Bulk),
            0b1111
        );
    }

    #[test]
    fn paper_routing_selection() {
        assert_eq!(paper_routing_for(Pattern::Uniform), RoutingMode::Min);
        assert_eq!(paper_routing_for(Pattern::bursty()), RoutingMode::Min);
        assert_eq!(paper_routing_for(Pattern::adv1()), RoutingMode::Valiant);
    }

    #[test]
    fn damq_helper() {
        let cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .with_damq75();
        match cfg.buffers.organization {
            BufferOrg::Damq { private_fraction } => assert_eq!(private_fraction, 0.75),
            _ => panic!("expected DAMQ"),
        }
        cfg.validate().unwrap();
    }
}
