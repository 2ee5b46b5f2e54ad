//! The immutable, topology-derived half of a simulation.
//!
//! Everything the engine reads but never writes once a run starts — the
//! flattened wiring, per-port classes, latencies and VC counts, the flow
//! permutation — is computed once per `(config, topology, seed)` into a
//! [`Fabric`] and shared behind an `Arc` by every shard of a
//! [`ShardedNetwork`](crate::ShardedNetwork) (a plain
//! [`Network`](crate::Network) is the one-shard case), so an engine
//! instance allocates mutable state only for the routers it owns.

use crate::config::SimConfig;
use flexvc_core::LinkClass;
use flexvc_topology::Topology;
use flexvc_traffic::flow::{random_permutation, FlowPattern};
use flexvc_traffic::generator::NodeSpace;
use std::sync::Arc;

/// Immutable tables shared by every engine instance of one simulation.
pub(crate) struct Fabric {
    /// The topology the tables were flattened from (routing queries).
    pub topo: Arc<dyn Topology>,
    /// Network ports per router.
    pub pp: usize,
    /// Unified inputs per router (`pp` network ports, then `pn` injection
    /// queues).
    pub n_in: usize,
    /// Flat adjacency: `r*pp + port -> (router, port)`.
    pub adj: Vec<Option<(u32, u16)>>,
    /// First node id of each router ([`Topology::node_base`], flattened):
    /// `r * pn` on uniformly-populated topologies; Dragonfly+ spines carry
    /// no nodes and leaves are numbered group-major.
    pub node_base: Vec<u32>,
    /// Class per port index (uniform across routers for our topologies).
    pub port_class: Vec<LinkClass>,
    /// Link latency per port index.
    pub port_latency: Vec<u32>,
    /// Total phit capacity per port index (the repartitioner's
    /// conservation invariant).
    pub port_total: Vec<u32>,
    /// VC count per unified input index.
    pub vcs_by_in: Vec<u8>,
    /// Ports whose occupancy Piggyback sensing publishes: the global ports
    /// of a Dragonfly, or *every* network port on single-class topologies
    /// (flattened butterfly, HyperX — there is no global/local split to
    /// narrow the signal to).
    pub sense_ports: Vec<usize>,
    /// `true` when every port is a sense port (single-class topology).
    pub sense_all: bool,
    /// A permutation flow workload fixes each node's destination from a
    /// seed-only random derangement (`None` otherwise).
    pub perm: Option<Vec<u32>>,
    /// Node-id space handed to the traffic generators.
    pub space: NodeSpace,
}

impl Fabric {
    /// Flatten `topo` under the (validated) configuration `cfg`.
    pub fn new(cfg: &SimConfig, topo: Arc<dyn Topology>, seed: u64) -> Self {
        let pp = topo.num_ports();
        let pn = topo.nodes_per_router();
        let nr = topo.num_routers();
        let port_class: Vec<LinkClass> = (0..pp).map(|p| topo.port_class(0, p)).collect();
        let adj: Vec<Option<(u32, u16)>> = (0..nr * pp)
            .map(|lid| {
                debug_assert_eq!(topo.port_class(lid / pp, lid % pp), port_class[lid % pp]);
                topo.neighbor(lid / pp, lid % pp)
                    .map(|(r, p)| (r as u32, p as u16))
            })
            .collect();
        // The timing wheels resolve a link's far end through `adj`, which
        // requires the wiring to be involutive (it is for all our
        // topologies).
        #[cfg(debug_assertions)]
        for (lid, far) in adj.iter().enumerate() {
            if let Some((r2, p2)) = *far {
                debug_assert_eq!(
                    adj[r2 as usize * pp + p2 as usize],
                    Some(((lid / pp) as u32, (lid % pp) as u16)),
                    "adjacency must be involutive"
                );
            }
        }
        let global_ports: Vec<usize> = (0..pp)
            .filter(|&p| port_class[p] == LinkClass::Global)
            .collect();
        // Dragonflies sense their global ports; single-class topologies
        // sense every network port (PB's UGAL comparison and saturation
        // flags then cover the first minimal hop of any path).
        let sense_all = global_ports.is_empty();
        let sense_ports = if sense_all {
            (0..pp).collect()
        } else {
            global_ports
        };
        let vcs_by_in: Vec<u8> = (0..pp + pn)
            .map(|i| match port_class.get(i) {
                Some(&class) => cfg.vcs_for_class(class).max(1),
                None => cfg.injection_vcs,
            } as u8)
            .collect();

        let perm = match cfg.workload.flow_spec() {
            Some(spec) if matches!(spec.pattern, FlowPattern::Permutation) => {
                Some(random_permutation(topo.num_nodes(), seed))
            }
            _ => None,
        };
        Fabric {
            pp,
            n_in: pp + pn,
            adj,
            node_base: (0..nr).map(|r| topo.node_base(r) as u32).collect(),
            port_latency: port_class.iter().map(|&c| cfg.link_latency(c)).collect(),
            port_total: port_class.iter().map(|&c| cfg.port_capacity(c)).collect(),
            port_class,
            vcs_by_in,
            sense_ports,
            sense_all,
            perm,
            space: NodeSpace {
                num_nodes: topo.num_nodes(),
                nodes_per_group: topo.num_nodes() / topo.num_groups(),
                num_groups: topo.num_groups(),
            },
            topo,
        }
    }

    /// First node id past router range `..end` (node numbering is
    /// router-major, so a contiguous router range owns a contiguous node
    /// range).
    pub fn node_end(&self, end: usize) -> u32 {
        self.node_base
            .get(end)
            .copied()
            .unwrap_or(self.space.num_nodes as u32)
    }
}
