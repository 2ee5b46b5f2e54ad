//! Typed errors for configuration validation and experiment runs.
//!
//! [`SimConfig::validate`](crate::SimConfig::validate) and
//! [`Network::new`](crate::Network::new) report [`ConfigError`]; the batch
//! runner ([`run_points`](crate::runner::run_points) and
//! [`run_averaged`](crate::runner::run_averaged)) wraps it
//! in [`RunError`] with the index of the offending point. Both implement
//! `std::error::Error`, so they compose with `?` and `Box<dyn Error>`.

use flexvc_core::{LinkClass, MessageClass, RoutingMode, TrafficClass};
use std::fmt;

/// A configuration that cannot be simulated deadlock-free (or at all).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A scalar parameter that must be strictly positive is zero.
    NonPositive {
        /// Which parameter.
        what: &'static str,
    },
    /// An offered load outside `[0, 1]` phits/node/cycle (or NaN): the
    /// generators draw at most one emission per node per cycle.
    InvalidLoad {
        /// The rejected load.
        load: f64,
    },
    /// A reactive workload needs a request+reply split arrangement.
    MissingReplyArrangement,
    /// A non-reactive workload must not carry a reply sub-sequence.
    UnexpectedReplyArrangement,
    /// The baseline policy requires the exact reference arrangement of the
    /// routing mode.
    BaselineArrangement {
        /// Configured routing mode.
        routing: RoutingMode,
        /// Message class whose reference failed to match.
        msg: MessageClass,
        /// Display rendering of the configured arrangement.
        arrangement: String,
    },
    /// FlexVC requires minimal routing to be *safe* (it is every packet's
    /// escape path).
    MinimalNotSafe {
        /// Message class lacking a safe minimal embedding.
        msg: MessageClass,
        /// Display rendering of the configured arrangement.
        arrangement: String,
    },
    /// The configured routing is unsupported (not even opportunistic) on
    /// the arrangement: it has too few VCs for the mode's reference
    /// sequence. Carries the minimum arrangement for the mode on the
    /// topology family ([`default_arrangement`](crate::config::default_arrangement))
    /// so the message tells the user what would work.
    InsufficientVcs {
        /// Configured routing mode.
        routing: RoutingMode,
        /// Message class without support.
        msg: MessageClass,
        /// Display rendering of the configured arrangement.
        arrangement: String,
        /// Human rendering of the classifier's safe minimum for the mode
        /// on this topology family (e.g. `4/2 local/global VCs` or
        /// `6 VCs`).
        minimum: String,
    },
    /// A per-VC input buffer cannot hold one packet.
    VcCapacityBelowPacket {
        /// Link class of the undersized buffers.
        class: LinkClass,
    },
    /// Output or injection buffers cannot hold one packet.
    PortBuffersBelowPacket,
    /// A buffer parameter is out of range (a DAMQ private reservation
    /// outside `[0, 1]` of the port memory, or NaN).
    InvalidBuffers {
        /// What is wrong with the buffer configuration.
        why: &'static str,
    },
    /// A port class (request + reply VCs together) or the injection queues
    /// carry more VCs than [`MAX_VCS`](crate::MAX_VCS): the width of the
    /// engine's VC bitmasks and of its widest per-VC state (each network
    /// is built at the narrowest width that covers its ports).
    TooManyVcs {
        /// Which VC set: `"local"`, `"global"` or `"injection"`.
        what: &'static str,
        /// Configured VC count.
        vcs: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A router has more unified inputs (network ports plus attached
    /// terminals) than the width of the allocator's per-router input
    /// masks.
    TooManyInputs {
        /// Unified inputs of the widest router.
        inputs: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A crossbar speedup above the packet size, which already moves a
    /// packet in one cycle (the allocator runs `speedup` rounds a cycle).
    SpeedupPastPacket {
        /// Configured speedup.
        speedup: u32,
        /// Configured packet size in phits.
        size: u32,
    },
    /// A latency plus the packet size puts engine events further ahead
    /// than its timing wheels reach (2^20 cycles; see
    /// [`SimConfig::validate`](crate::SimConfig::validate)).
    HorizonTooLong {
        /// Which horizon: `"link"` (the longer link latency) or
        /// `"pipeline"` (the router pipeline latency).
        what: &'static str,
        /// Latency + packet size + 2, in cycles.
        cycles: u64,
        /// The supported maximum.
        max: u64,
    },
    /// The topology parameters describe a shape the simulator cannot build
    /// (e.g. a HyperX with more than 3 dimensions or a degenerate axis).
    InvalidTopology {
        /// What is wrong with the shape.
        why: &'static str,
    },
    /// The topology has exactly one terminal node. Traffic generation
    /// draws destinations different from the source (`gen_range(0..n-1)`),
    /// which is undefined with a single node — rejected at validation time
    /// instead of panicking inside the generator.
    SingleNodeTopology,
    /// A workload parameter is out of range (zero-packet flows, a
    /// fraction outside `[0, 1]`, a degenerate Pareto bound, a burst
    /// shorter than one packet, …).
    InvalidWorkload {
        /// What is wrong with the flow specification.
        why: &'static str,
    },
    /// More engine shards requested than the topology has routers — every
    /// shard must own at least one router (`shards = 0` auto-detects and
    /// never triggers this).
    ShardsExceedRouters {
        /// Requested shard count.
        shards: usize,
        /// Router count of the configured topology.
        routers: usize,
    },
    /// Class-partitioned QoS VC budgets require the FlexVC policy: the
    /// baseline's fixed hop-to-VC map assigns every packet the VC of its
    /// reference position and cannot confine a class to a VC subset.
    QosPartitionRequiresFlexVc,
    /// A QoS class partition carves out a per-class VC subset whose
    /// sub-arrangement has no safe minimal embedding — packets of that
    /// class could deadlock inside their own partition, so strict priority
    /// cannot be composed with FlexVC's position-based safety argument on
    /// this split.
    QosPartitionUnsafe {
        /// Traffic class whose sub-arrangement is unsafe.
        tclass: TrafficClass,
        /// Display rendering of the class's sub-arrangement.
        arrangement: String,
    },
    /// QoS classes do not compose with request–reply (reactive) workloads:
    /// replies already occupy a dedicated virtual network and the priority
    /// rule would be ambiguous across the two splits.
    QosReactiveUnsupported,
    /// A QoS parameter is out of range (zero bypass bound, a control quota
    /// fraction outside `(0, 1)`, a partition that exceeds the VC
    /// budget, …).
    QosInvalidParam {
        /// What is wrong with the QoS specification.
        why: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { what } => {
                write!(f, "{what} must be positive")
            }
            ConfigError::InvalidLoad { load } => {
                write!(f, "offered load {load} is outside [0, 1] phits/node/cycle")
            }
            ConfigError::MissingReplyArrangement => {
                write!(f, "reactive workload requires a request+reply arrangement")
            }
            ConfigError::UnexpectedReplyArrangement => {
                write!(f, "non-reactive workload must not split the arrangement")
            }
            ConfigError::BaselineArrangement {
                routing,
                msg,
                arrangement,
            } => write!(
                f,
                "baseline policy requires the exact {routing} reference arrangement for {msg:?} \
                 (got {arrangement})"
            ),
            ConfigError::MinimalNotSafe { msg, arrangement } => {
                write!(
                    f,
                    "minimal routing must be safe for {msg:?} on {arrangement}"
                )
            }
            ConfigError::InsufficientVcs {
                routing,
                msg,
                arrangement,
                minimum,
            } => write!(
                f,
                "{routing} is unsupported for {msg:?} on {arrangement}: too few VCs \
                 (the safe minimum for {routing} is {minimum}; FlexVC can run \
                 opportunistically on fewer, but not this few)"
            ),
            ConfigError::VcCapacityBelowPacket { class } => {
                write!(f, "{class:?} VC capacity below one packet")
            }
            ConfigError::PortBuffersBelowPacket => {
                write!(f, "output/injection buffers below one packet")
            }
            ConfigError::InvalidBuffers { why } => {
                write!(f, "invalid buffers: {why}")
            }
            ConfigError::TooManyVcs { what, vcs, max } => {
                write!(f, "{vcs} {what} VCs exceed the supported maximum of {max}")
            }
            ConfigError::TooManyInputs { inputs, max } => write!(
                f,
                "routers with {inputs} inputs (network ports + terminals) exceed \
                 the supported maximum of {max}"
            ),
            ConfigError::SpeedupPastPacket { speedup, size } => write!(
                f,
                "speedup {speedup} exceeds the packet size of {size} phits \
                 (a packet crosses the crossbar in one cycle from speedup = packet size)"
            ),
            ConfigError::HorizonTooLong { what, cycles, max } => write!(
                f,
                "the {what} event horizon of {cycles} cycles (latency + packet size + 2) \
                 exceeds the supported maximum of {max}"
            ),
            ConfigError::InvalidTopology { why } => {
                write!(f, "invalid topology: {why}")
            }
            ConfigError::SingleNodeTopology => {
                write!(
                    f,
                    "topology has a single terminal node; traffic generation needs \
                     at least two (destinations exclude the source)"
                )
            }
            ConfigError::InvalidWorkload { why } => {
                write!(f, "invalid workload: {why}")
            }
            ConfigError::ShardsExceedRouters { shards, routers } => {
                write!(
                    f,
                    "{shards} engine shards exceed the topology's {routers} routers \
                     (every shard must own at least one router; use 0 to auto-detect)"
                )
            }
            ConfigError::QosPartitionRequiresFlexVc => {
                write!(
                    f,
                    "class-partitioned QoS VC budgets require the FlexVC policy \
                     (the baseline's fixed hop-to-VC map cannot confine a class \
                     to a VC subset)"
                )
            }
            ConfigError::QosPartitionUnsafe {
                tclass,
                arrangement,
            } => write!(
                f,
                "QoS partition is deadlock-unsafe: the {tclass}-class VC subset \
                 ({arrangement}) has no safe minimal embedding"
            ),
            ConfigError::QosReactiveUnsupported => {
                write!(
                    f,
                    "QoS traffic classes do not compose with reactive \
                     (request-reply) workloads"
                )
            }
            ConfigError::QosInvalidParam { why } => {
                write!(f, "invalid QoS parameter: {why}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A batch run that could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A point's configuration or load failed
    /// [`crate::SimConfig::validate_point`].
    InvalidPoint {
        /// Index of the point within the submitted batch.
        index: usize,
        /// The underlying configuration error.
        source: ConfigError,
    },
    /// The batch was empty where at least one point is required (e.g.
    /// averaging over zero seeds).
    EmptyBatch,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidPoint { index, source } => {
                write!(f, "experiment point #{index} is invalid: {source}")
            }
            RunError::EmptyBatch => write!(f, "experiment batch is empty"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidPoint { source, .. } => Some(source),
            RunError::EmptyBatch => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(source: ConfigError) -> Self {
        RunError::InvalidPoint { index: 0, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages() {
        let e = ConfigError::NonPositive {
            what: "packet size",
        };
        assert_eq!(e.to_string(), "packet size must be positive");
        let r = RunError::InvalidPoint {
            index: 3,
            source: e.clone(),
        };
        assert_eq!(
            r.to_string(),
            "experiment point #3 is invalid: packet size must be positive"
        );
        assert!(r.source().is_some());
    }

    /// The two run-time panics these replace (a division by zero in the
    /// injection round-robin, the generators' load assertion) now render
    /// the offending value.
    #[test]
    fn injection_vcs_and_load_errors_render_the_value() {
        let e = ConfigError::NonPositive {
            what: "injection_vcs",
        };
        assert_eq!(e.to_string(), "injection_vcs must be positive");
        assert_eq!(
            ConfigError::InvalidLoad { load: 1.5 }.to_string(),
            "offered load 1.5 is outside [0, 1] phits/node/cycle"
        );
        assert_eq!(
            ConfigError::InvalidLoad { load: f64::NAN }.to_string(),
            "offered load NaN is outside [0, 1] phits/node/cycle"
        );
    }

    #[test]
    fn too_many_vcs_names_the_set_and_the_limit() {
        let e = ConfigError::TooManyVcs {
            what: "local",
            vcs: 18,
            max: 16,
        };
        assert_eq!(
            e.to_string(),
            "18 local VCs exceed the supported maximum of 16"
        );
    }

    #[test]
    fn too_many_inputs_names_the_count_and_the_limit() {
        let e = ConfigError::TooManyInputs {
            inputs: 67,
            max: 64,
        };
        assert_eq!(
            e.to_string(),
            "routers with 67 inputs (network ports + terminals) exceed the \
             supported maximum of 64"
        );
    }

    #[test]
    fn shards_error_names_both_counts() {
        let e = ConfigError::ShardsExceedRouters {
            shards: 9,
            routers: 4,
        };
        let rendered = e.to_string();
        assert!(rendered.contains('9'), "{rendered}");
        assert!(rendered.contains('4'), "{rendered}");
        assert!(rendered.contains("auto-detect"), "{rendered}");
    }

    /// Satellite: the single-node rejection renders an actionable message
    /// (the old behavior was a `gen_range(0..0)` panic at runtime).
    #[test]
    fn single_node_error_renders_the_reason() {
        let rendered = ConfigError::SingleNodeTopology.to_string();
        assert_eq!(
            rendered,
            "topology has a single terminal node; traffic generation needs \
             at least two (destinations exclude the source)"
        );
        let wl = ConfigError::InvalidWorkload {
            why: "incast fan-in must be at least 1",
        };
        assert_eq!(
            wl.to_string(),
            "invalid workload: incast fan-in must be at least 1"
        );
    }

    /// The QoS rejections render the class, the offending sub-arrangement,
    /// and the reason — the "refute" half of the priority-composition
    /// argument must be actionable, not a bare error code.
    #[test]
    fn qos_errors_render_class_and_reason() {
        let e = ConfigError::QosPartitionUnsafe {
            tclass: TrafficClass::Bulk,
            arrangement: "G L".to_string(),
        };
        let rendered = e.to_string();
        assert!(rendered.contains("bulk"), "{rendered}");
        assert!(rendered.contains("G L"), "{rendered}");
        assert!(rendered.contains("safe minimal"), "{rendered}");
        assert!(ConfigError::QosPartitionRequiresFlexVc
            .to_string()
            .contains("FlexVC"));
        assert!(ConfigError::QosReactiveUnsupported
            .to_string()
            .contains("reactive"));
        assert_eq!(
            ConfigError::QosInvalidParam {
                why: "bypass bound must be at least 1"
            }
            .to_string(),
            "invalid QoS parameter: bypass bound must be at least 1"
        );
    }

    /// The three values that once passed validation and then panicked in
    /// the bank and the generators render what is out of range.
    #[test]
    fn out_of_range_fractions_render_the_parameter() {
        assert_eq!(
            ConfigError::InvalidBuffers {
                why: "DAMQ private_fraction must be in [0, 1]"
            }
            .to_string(),
            "invalid buffers: DAMQ private_fraction must be in [0, 1]"
        );
        assert_eq!(
            ConfigError::InvalidWorkload {
                why: "bursty mean_burst must be at least one packet"
            }
            .to_string(),
            "invalid workload: bursty mean_burst must be at least one packet"
        );
        assert_eq!(
            ConfigError::InvalidWorkload {
                why: "control_fraction must be in [0, 1]"
            }
            .to_string(),
            "invalid workload: control_fraction must be in [0, 1]"
        );
    }

    #[test]
    fn from_config_error() {
        let r: RunError = ConfigError::PortBuffersBelowPacket.into();
        assert!(matches!(r, RunError::InvalidPoint { index: 0, .. }));
    }

    /// The too-few-VCs rejection must name the classifier's minimum so the
    /// user knows which arrangement would work.
    #[test]
    fn insufficient_vcs_names_the_classifier_minimum() {
        let e = ConfigError::InsufficientVcs {
            routing: RoutingMode::Valiant,
            msg: MessageClass::Request,
            arrangement: "L G L".to_string(),
            minimum: "4/2 local/global VCs".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "VAL is unsupported for Request on L G L: too few VCs (the safe minimum \
             for VAL is 4/2 local/global VCs; FlexVC can run opportunistically on \
             fewer, but not this few)"
        );
        let hx = ConfigError::InsufficientVcs {
            routing: RoutingMode::Dal,
            msg: MessageClass::Request,
            arrangement: "T T T".to_string(),
            minimum: "6 single-class VCs".to_string(),
        };
        let rendered = hx.to_string();
        assert!(rendered.contains("DAL"), "{rendered}");
        assert!(rendered.contains("6 single-class VCs"), "{rendered}");
    }
}
