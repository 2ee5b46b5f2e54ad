//! The cycle-accurate network engine.
//!
//! One [`Network`] owns every router, link, and node generator of a
//! simulation (or, as one shard of a [`crate::ShardedNetwork`], those of a
//! contiguous router range). Each cycle proceeds in phases:
//!
//! 1. **Deliver** — packets whose head phit reaches a router enter its input
//!    VC buffers; returning credits update the upstream mirrors.
//! 2. **Release** — scheduled input/output buffer releases take effect.
//! 3. **Generate** — node generators produce new packets into injection
//!    queues (dropped when full); consumed requests spawn staged replies.
//! 4. **Plan** — unplanned injection-queue heads receive their route
//!    (adaptive decisions use fresh congestion state).
//! 5. **Allocate** ×speedup — iterative input-first separable allocation:
//!    per input port a round-robin arbiter picks one requesting VC, per
//!    output port another arbiter picks one winning input; grants move
//!    packets toward output buffers through a fixed-latency pipeline.
//!    Ejection requests are granted against per-(node, class) consumption
//!    channels.
//! 6. **Serialize** — output-buffer heads start on free links at one phit
//!    per cycle.
//! 7. **Sense** — Piggyback saturation flags are recomputed and published.
//! 8. **Watchdog** — genuine deadlock (no movement with packets stuck) is
//!    detected and flagged rather than hanging the process.
//!
//! Virtual cut-through is modelled with packet-granularity occupancy and
//! phit-accurate timing: a packet may be forwarded as soon as its head has
//! arrived, a hop is only granted when the downstream VC can hold the whole
//! packet, and transfers respect both crossbar bandwidth
//! (`speedup` phits/cycle) and the arrival of the packet's own tail.
//!
//! # Active-set scheduling
//!
//! The phases above define *what* happens each cycle; the engine neither
//! sweeps every router × port × VC to find it nor polls state that cannot
//! act yet. Work is woken, not searched for:
//!
//! * **timing wheels** for link events — packet heads and credits are
//!   scheduled at their arrival cycle when they enter a link, so `deliver`
//!   touches exactly the links with something due *now* — and a release
//!   wheel for everything else that is due at a known cycle: buffer
//!   releases, an output's next serialization (`max(ready_at, link
//!   busy-until)`, or the same cycle when that is already now), a node's
//!   next emission (each generator is drawn ahead on its own RNG, cycle by
//!   cycle, up to the wheel horizon) and the deadline of a sleeping head;
//! * **sleeping heads** — every head rejected without being mutated
//!   leaves its input's `awake` mask until the cycle or the port event
//!   that can open its first failing gate (see `EvalBlock`); routers stay
//!   on the allocation worklist only while some input has an awake head
//!   and a free feed (the router's `ready` mask). In-transit deciders
//!   sleep once their decision is latched, QoS heads like any other: the
//!   priority and bypass state reads only heads that nominate;
//! * **worklists** for route planning (injection pushes/pops may expose an
//!   unplanned head), staged replies and Piggyback sensing (global-port
//!   credit state changed since the last publish).
//!
//! Every wake-up is conservative (a woken head may still be rejected —
//! identical to the old sweep evaluating it) and complete (a head sleeps
//! only while its first failing gate provably keeps failing, and wakes at
//! the cycle or on the event that can change it), and iteration order
//! across routers, outputs and nodes is independent by construction:
//! routers only touch their own state, their own links, and credits of
//! upstream links no other router writes in the same phase. The engine is
//! therefore *bit-identical* to the full-sweep original — proven by
//! `tests/engine_equivalence.rs` against recorded pre-refactor snapshots —
//! while skipping idle and blocked state entirely, which is what makes
//! paper-scale (h = 8, 2,064 routers) Dragonfly runs tractable.
//!
//! Arbitration works on words: stage 1 passes an input's requesting-VC
//! mask, stage 2 one request vector per output over the router's inputs
//! (built while the nominations are collected, visited in ascending port
//! order), and every round-robin grant is a priority encoder over that
//! vector ([`RrArbiter::grant_mask`]).
//!
//! # Storage layout
//!
//! Mutable state lives in flat record tables sized to the routers this
//! instance owns: one `RouterRec` per router, one `InputRec` per
//! unified input (`r·n_in + i`: network ports, then injection queues), one
//! `OutputRec` per output link (`r·pp + port`), one `NodeRec` per
//! node, the credit mirrors `out_credit` (their own table because
//! [`SenseView`] borrows a router's mirrors as a slice) and one wait-list
//! link per input VC. Everything immutable and topology-derived sits in the
//! shared `Fabric`.
//!
//! Per-VC state is as wide as the configuration. Bank occupancy splits,
//! FIFO heads and tails, credit mirrors and the allocator's request and
//! candidate scratch are inline arrays of `W` entries, and the engine is
//! one source, `Engine<W>`, built at `W` = 4, 8 and 16. A [`Network`]
//! holds the instance at the narrowest width that covers its widest port
//! and delegates to it: h = 8 FlexVC 4/2 with 3 injection VCs runs 4
//! wide, at 10,132 bytes of record tables per router where 16-wide state
//! took 18,292.
//!
//! Packets stay put. Each instance (the single engine, or one block of the
//! shard driver) keeps its packets in one arena: a contiguous slab plus a free
//! list, and a per-slot flow-tag table only when the workload has flows.
//! A packet is written once at injection, updated in place at every hop
//! and freed at ejection; bank FIFOs, output queues and link pipelines
//! carry its 32-bit handle, so a hop copies a small handle record instead
//! of the 128-byte packet and a queue's high-water mark costs handles, not
//! packets. Only a
//! packet crossing to another block moves: out of the sender's arena into
//! a boundary event, and into the receiver's arena at the exchange. Debug
//! builds check conservation every cycle — the arena's live slots equal
//! the handles queued in banks, output queues and link pipelines.
//!
//! The arena and the queues are demand-sized: empty at build, growing
//! under traffic, never past their worst-case bound — growth moves no
//! packet and reads no clock, so it cannot change a result.

#![allow(clippy::type_complexity)]

use crate::arbiter::RrArbiter;
use crate::bank::{BufferBank, Occupancy, MAX_VCS};
use crate::config::{BufferOrg, SensingMode, SimConfig};
use crate::error::ConfigError;
use crate::fabric::Fabric;
use crate::link::{push_bounded, CreditMsg, LinkState};
use crate::metrics::{Metrics, SimResult};
use crate::packet::{Arena, Handle, Packet, PlannedPath};
use crate::plan::{min_plan, RoutePolicy, SenseView};
use crate::sensing::{saturated_flags_into, GroupBoard};
use crate::shard::{BoardEvent, CreditEvent, Outbox, PacketEvent};
use crate::wheel::Wheel;
use flexvc_core::policy::{baseline_vc, flexvc_options_lookahead};
use flexvc_core::{CreditClass, HopKind, LinkClass, MessageClass, TrafficClass, VcPolicy};
use flexvc_topology::{ClassPath, Topology, MAX_HOPS};
use flexvc_traffic::{Emission, NodeTraffic};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

// The per-input VC bitmasks are `u16`s.
const _: () = assert!(MAX_VCS <= u16::BITS as usize);

/// Most unified inputs (network ports + terminals) a router may have: the
/// width of the allocator's per-router input masks, enforced by
/// [`SimConfig::validate`].
pub(crate) const MAX_ROUTER_INPUTS: usize = u64::BITS as usize;

/// End of an intrusive wait list (see [`OutputRec::waiters`]).
const NIL: u32 = u32::MAX;

/// Append `id` to a worklist unless its membership flag is already set.
#[inline]
fn mark(list: &mut Vec<u32>, member: &mut bool, id: usize) {
    if !*member {
        *member = true;
        list.push(id as u32);
    }
}

/// A packet (by arena handle) queued at an output buffer awaiting link
/// serialization.
#[derive(Debug)]
struct OutPkt {
    pkt: Handle,
    /// Head reaches the output buffer after the router pipeline.
    ready_at: u64,
    /// Landing VC at the downstream input port.
    vc: u8,
}

/// Timed events of the release wheel, addressed by record-table index.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Input VC occupancy release at transfer completion — also the cycle
    /// the input's feed frees up (`InputRec::busy`).
    Input {
        input: u32,
        vc: u8,
        phits: u32,
        class: CreditClass,
    },
    /// Output buffer release when the tail leaves on the link.
    OutBuf { output: u32, phits: u32 },
    /// The deadline of a head asleep on [`EvalBlock::Until`].
    Wake { input: u32, vc: u8 },
    /// The output's queue head can start on its link this cycle.
    Serialize { output: u32 },
    /// The node's drawn-ahead emission is due, or (none drawn) its
    /// generator has been drawn up to this cycle and must be drawn on.
    Generate { node: u32 },
}

/// Per-router record, indexed by owned-router offset.
struct RouterRec {
    /// Membership flags of the allocation / planning / sensing worklists.
    alloc_in: bool,
    plan_in: bool,
    sense_in: bool,
    /// Bitmask of unified inputs (at most 64, see
    /// [`SimConfig::validate`]) with an awake queued head and a free feed:
    /// the inputs stage 1 visits. Non-zero keeps the router on the
    /// allocation worklist.
    ready: u64,
    /// Router-local RNG (Valiant picks, random VC selection).
    rng: SmallRng,
}

/// Per-input record (`router · n_in + input`): the `pp` network input
/// ports of a router, then its `pn` injection queues.
struct InputRec<const W: usize> {
    /// The input's VC buffers (handles into [`Engine::arena`]).
    bank: BufferBank<Handle, W>,
    /// Input feed busy-until.
    busy: u64,
    /// Stage-1 arbiter over the input's VCs.
    arb: RrArbiter,
    /// Bitmask of VCs with queued packets.
    vc_mask: u16,
    /// Bitmask of VCs whose head is not asleep (empty VCs are awake): the
    /// allocator evaluates exactly `vc_mask & awake`.
    awake: u16,
    /// Stage-1 QoS bypass counter (see `bypass_bound`).
    bypass: u32,
    /// Index in `outputs` of the link feeding this network input: where
    /// its arriving packets are popped from and, when the transmitter is
    /// owned, where its credits return to (`u32::MAX` on injection queues
    /// and unwired ports).
    rx: u32,
}

/// Per-output-link record (`router · pp + port`), followed in a shard by
/// one replica per cut link it receives on (only `link` is used there).
struct OutputRec {
    /// Crossbar feed busy-until.
    xbar: u64,
    /// Head of the intrusive list of input VCs asleep on
    /// [`EvalBlock::Event`] for this port (`NIL` when empty; entries are
    /// `input << wait_shift | vc`, linked through `Engine::wait_next`).
    /// Drained — every head woken — at the only events that can flip one
    /// of its gates from blocking to passing: a credit return (`deliver`),
    /// an output-buffer release (`process_pending`) and a per-class quota
    /// shift (`repartition`).
    waiters: u32,
    /// Output buffer occupancy in phits.
    occ: u32,
    /// Stage-2 QoS bypass counter.
    bypass: u32,
    /// Per-class occupancy of the downstream credit mirror (dynamic
    /// repartitioning only): incremented on a forward grant, decremented
    /// when the matching credit returns (credits carry the packet's class).
    cls_occ: [u32; 2],
    /// Per-class phit quotas. The two sum to the port capacity and each
    /// stays at least one packet; [`Engine::repartition`] shifts them
    /// under occupancy pressure.
    cls_quota: [u32; 2],
    /// Stage-2 arbiter over the router's unified inputs.
    arb: RrArbiter,
    /// Packets awaiting serialization (demand-sized up to `out_bound`).
    queue: VecDeque<OutPkt>,
    /// The link's packet (handle) and credit pipelines.
    link: LinkState<Handle>,
}

/// Per-node record: the traffic side of an injection queue.
struct NodeRec {
    gen: NodeTraffic,
    /// First cycle `gen` has not been stepped for: it is drawn ahead of
    /// the clock (see [`Engine::draw_ahead`]).
    drawn: u64,
    /// The emission drawn for cycle `drawn - 1`, awaiting that cycle.
    due: Option<Emission>,
    /// Index in `inputs` of the node's injection queue.
    input: u32,
    /// Staged replies: `(destination, ready_at)`.
    staging: VecDeque<(u32, u64)>,
    /// Membership flag of the staged-reply worklist.
    reply_in: bool,
    /// Consumption channel busy-until per message class.
    eject_busy: [u64; 2],
    /// Injection VC round-robin (non-reactive traffic).
    inj_rr: u8,
}

/// A forwarding decision for an input VC head.
#[derive(Debug, Clone, Copy)]
enum Decision {
    Forward {
        port: u16,
        vc: u8,
        pos: u16,
    },
    /// Consume on `channel` = `2 · node-table index + message class`.
    Eject {
        channel: u32,
    },
}

/// Classification of a head-evaluation rejection by its *first failing
/// gate* — the only gate whose state change can alter the outcome, since
/// every gate behind it was never consulted and every gate moves
/// monotonically against acceptance between events. A mutation-free
/// rejection puts the head to sleep until that gate can change: the gate
/// precedes every policy and mutation path, and a sleeping head cannot be
/// dequeued, so re-evaluating it earlier would reject again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalBlock {
    /// Not classifiable (unexpected empty VC, or a gate with no tracked
    /// improvement event): the head stays awake.
    Never,
    /// Time-pure gate (crossbar or ejector busy-until, head phit not yet
    /// arrived, unplanned head awaiting next cycle's planning pass, reply
    /// queue full until next cycle's generation pass): `None` is
    /// guaranteed strictly before the deadline, when the head wakes.
    Until(u64),
    /// Event gate on an output port (credits exhausted, output buffer
    /// full, class quota full): `None` is guaranteed until the port sees a
    /// credit return, an output-buffer release or a quota shift, which
    /// wake the port's waiters.
    Event(u16),
}

/// Per-VC widths an engine is built at, narrowest first: every width a
/// workload needs (4 for the paper's FlexVC 4/2, 8 for the 8/4 series),
/// and [`MAX_VCS`] for the widest arrangement validation admits.
const WIDTHS: [usize; 3] = [4, 8, 16];
const _: () = assert!(WIDTHS[2] == MAX_VCS);

/// The simulation network.
///
/// The engine stores per-VC state (bank occupancy splits, FIFO cursors,
/// credit mirrors, allocator scratch) in inline arrays. A network is built
/// at the narrowest width in `{4, 8, 16}` that covers its widest port —
/// 4 for FlexVC 4/2 with 3 injection VCs — so VCs the configuration does
/// not have cost no memory. The width decides storage only: results are
/// identical at every width that covers the configuration.
pub struct Network(ByWidth);

/// The engine instance inside a [`Network`], by per-VC width.
enum ByWidth {
    W4(Engine<4>),
    W8(Engine<8>),
    W16(Engine<16>),
}

/// Evaluate `$body` with `$e` bound to the engine inside a [`ByWidth`],
/// whatever its width.
macro_rules! with_engine {
    ($by_width:expr, $e:ident => $body:expr) => {
        match $by_width {
            ByWidth::W4($e) => $body,
            ByWidth::W8($e) => $body,
            ByWidth::W16($e) => $body,
        }
    };
}

impl Network {
    /// Build a network for `cfg` at offered load `load` (phits/node/cycle)
    /// with deterministic `seed`. Fails with a typed [`ConfigError`] when
    /// the configuration or the load does not pass
    /// [`SimConfig::validate_point`].
    pub fn new(cfg: SimConfig, load: f64, seed: u64) -> Result<Self, ConfigError> {
        cfg.validate_point(load)?;
        let topo = cfg.topology.build();
        Ok(Self::build(cfg, load, seed, topo, None))
    }

    /// Like [`Network::new`] but reusing a pre-built topology instance,
    /// which must match `cfg.topology` — the sweep runner and the bench
    /// harness build each distinct topology once and share the `Arc` across
    /// all points that use it instead of rebuilding per point.
    pub fn with_topology(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
    ) -> Result<Self, ConfigError> {
        cfg.validate_point(load)?;
        debug_assert_eq!(
            topo.num_routers(),
            cfg.topology.num_routers(),
            "shared topology does not match cfg.topology"
        );
        Ok(Self::build(cfg, load, seed, topo, None))
    }

    /// [`Network::new`] at per-VC width `width` instead of the narrowest
    /// (tests: results do not depend on the width).
    #[cfg(test)]
    pub(crate) fn at_width(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        width: usize,
    ) -> Result<Self, ConfigError> {
        cfg.validate_point(load)?;
        let topo = cfg.topology.build();
        Ok(Self::build(cfg, load, seed, topo, Some(width)))
    }

    /// The whole network over `topo` (`cfg` and `load` are validated) at
    /// `width`, or the narrowest width when `None`.
    fn build(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
        width: Option<usize>,
    ) -> Self {
        let fabric = Arc::new(Fabric::new(&cfg, topo, seed));
        let width = width.unwrap_or_else(|| Self::width(&fabric));
        Self::new_shard(cfg, load, seed, fabric, None, width)
    }

    /// The narrowest engine width that holds the widest port's VCs
    /// (network ports and injection queues alike).
    pub(crate) fn width(fab: &Fabric) -> usize {
        let widest = fab.vcs_by_in.iter().copied().max().unwrap_or(1) as usize;
        WIDTHS
            .into_iter()
            .find(|&w| w >= widest)
            .expect("validation caps every port at MAX_VCS")
    }

    /// Build the engine instance owning the contiguous router range
    /// `owned` — `None` for the whole network — over a shared fabric, at
    /// per-VC width `width`, one of the widths that cover the fabric's
    /// ports (crate API for [`crate::shard::ShardedNetwork`]; `cfg` is
    /// pre-validated).
    pub(crate) fn new_shard(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        fabric: Arc<Fabric>,
        owned: Option<std::ops::Range<u32>>,
        width: usize,
    ) -> Self {
        debug_assert!(width >= Self::width(&fabric), "width {width} too narrow");
        Network(match width {
            4 => ByWidth::W4(Engine::new_shard(cfg, load, seed, fabric, owned)),
            8 => ByWidth::W8(Engine::new_shard(cfg, load, seed, fabric, owned)),
            16 => ByWidth::W16(Engine::new_shard(cfg, load, seed, fabric, owned)),
            _ => unreachable!("no engine of width {width}"),
        })
    }

    /// Per-VC width of this instance's state.
    #[cfg(test)]
    pub(crate) fn vc_width(&self) -> usize {
        match self.0 {
            ByWidth::W4(_) => 4,
            ByWidth::W8(_) => 8,
            ByWidth::W16(_) => 16,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        with_engine!(&self.0, e => e.cycle)
    }

    /// Packets currently in queues, buffers or links.
    pub fn packets_in_flight(&self) -> i64 {
        with_engine!(&self.0, e => e.in_flight)
    }

    /// Whether the watchdog flagged a deadlock.
    pub fn deadlocked(&self) -> bool {
        with_engine!(&self.0, e => e.metrics.deadlocked)
    }

    /// Last cycle the watchdog observed forward progress (packet motion,
    /// link serialization, or a credit return). Diagnostics only.
    pub fn last_progress(&self) -> u64 {
        with_engine!(&self.0, e => e.last_progress)
    }

    /// Grow every demand-sized queue (bank slabs, output queues, link
    /// pipelines, the packet arena) to its bound now, as the engine did at
    /// build before queues followed the traffic. Results are unaffected —
    /// growth moves no packet — which is what the equivalence tests use
    /// this to show.
    pub fn pregrow_queues(&mut self) {
        with_engine!(&mut self.0, e => e.pregrow_queues())
    }

    /// The largest number of entries by which any demand-sized queue's
    /// allocated capacity exceeds its bound: 0 on a correct engine, whose
    /// queues never outgrow what it preallocated before they followed the
    /// traffic (debug builds also assert this at every growth site).
    pub fn queue_overshoot(&self) -> usize {
        with_engine!(&self.0, e => e.queue_overshoot())
    }

    /// Mute the traffic generators and step until every in-flight packet
    /// has been consumed — including replies still staged at their NIC,
    /// which are not in flight until injected — or `max_cycles` elapse, or
    /// the watchdog fires. Returns the packets still pending (in flight +
    /// staged): 0 proves the conservation property "injected = consumed at
    /// drain": nothing the network accepted is stranded in a buffer,
    /// queue, link or reply-staging slot.
    pub fn drain(&mut self, max_cycles: u64) -> i64 {
        with_engine!(&mut self.0, e => e.drain(max_cycles))
    }

    /// Run to completion and aggregate the result.
    pub fn run(&mut self) -> SimResult {
        with_engine!(&mut self.0, e => e.run())
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        with_engine!(&mut self.0, e => e.step())
    }

    /// Free-run `len` cycles from `t0` between boundary exchanges (see
    /// `Engine::step_epoch_shard`).
    pub(crate) fn step_epoch_shard(&mut self, t0: u64, len: u64) {
        with_engine!(&mut self.0, e => e.step_epoch_shard(t0, len))
    }

    /// Exchange the outbox with `other`: the shard driver lends one buffer
    /// to whichever of its blocks is stepping and takes it back, filled
    /// with the epoch's boundary events, to dispatch.
    pub(crate) fn swap_outbox(&mut self, other: &mut Outbox) {
        with_engine!(&mut self.0, e => std::mem::swap(&mut e.outbox, other))
    }

    /// Absorb the boundary events another block addressed to this one
    /// during the epoch ending at cycle `now` (see `Engine::absorb`).
    pub(crate) fn absorb(&mut self, now: u64, mail: &mut Outbox) {
        with_engine!(&mut self.0, e => e.absorb(now, mail))
    }

    /// Complete cycle `now` after the boundary exchange with the global
    /// reductions (see `Engine::finish_cycle`).
    pub(crate) fn finish_cycle(&mut self, now: u64, in_flight: i64, progress: u64) {
        with_engine!(&mut self.0, e => e.finish_cycle(now, in_flight, progress))
    }

    /// This shard's measurement counters (merged exactly by the driver).
    pub(crate) fn metrics(&self) -> &Metrics {
        with_engine!(&self.0, e => &e.metrics)
    }

    /// The configuration (driver access for windows and shard resolution).
    pub(crate) fn config(&self) -> &SimConfig {
        with_engine!(&self.0, e => &e.cfg)
    }

    /// Replies staged at owned nodes but not yet injected (the drain
    /// conservation check counts them as pending).
    pub(crate) fn staged_pending(&self) -> i64 {
        with_engine!(&self.0, e => e.staged_pending())
    }

    /// Mute the owned traffic generators (sharded drain).
    pub(crate) fn begin_drain(&mut self) {
        with_engine!(&mut self.0, e => e.draining = true)
    }

    /// Packets stored in this instance's arena. Equal to the packets its
    /// banks, output queues and link pipelines hold (debug builds assert
    /// it every cycle), so a drained network holds none.
    #[cfg(test)]
    pub(crate) fn live_packets(&self) -> usize {
        with_engine!(&self.0, e => e.arena.live())
    }

    /// The shared immutable tables (tests: every shard holds the same one).
    #[cfg(test)]
    pub(crate) fn fabric(&self) -> &Arc<Fabric> {
        with_engine!(&self.0, e => &e.fabric)
    }

    /// Lengths of the input, output (replicas included) and credit-mirror
    /// tables (tests: a shard's state is sized to what it owns).
    #[cfg(test)]
    pub(crate) fn table_sizes(&self) -> (usize, usize, usize) {
        with_engine!(&self.0, e => (e.inputs.len(), e.outputs.len(), e.out_credit.len()))
    }

    /// Outstanding wake-up bookkeeping and router visits (see
    /// `Engine::scheduled`).
    #[cfg(test)]
    fn scheduled(&self) -> (usize, u64) {
        with_engine!(&self.0, e => e.scheduled())
    }
}

/// One engine instance whose per-VC state is `W` entries wide (see
/// [`Network`], which picks `W`).
pub(crate) struct Engine<const W: usize> {
    cfg: SimConfig,
    /// Immutable topology-derived tables, shared with every other shard.
    fabric: Arc<Fabric>,
    /// The per-hop routing-decision pipeline: injection planning and
    /// in-transit decisions (PAR / DAL / adaptive copies) all route
    /// through this one object — the engine has no mode special cases.
    policy: RoutePolicy,
    /// Cached [`RoutePolicy::decides_in_transit`] for the allocator's hot
    /// path.
    transit_decisions: bool,
    // --- record tables, indexed by offset into the owned ranges ---
    routers: Vec<RouterRec>,
    inputs: Vec<InputRec<W>>,
    outputs: Vec<OutputRec>,
    /// Credit mirrors of the downstream input banks, indexed like the
    /// owned part of `outputs`.
    out_credit: Vec<Occupancy<W>>,
    /// Wait-list links, one per (input, VC) slot `input << wait_shift |
    /// vc` (see [`OutputRec::waiters`]).
    wait_next: Vec<u32>,
    /// Bits of the VC part of a wait-list entry.
    wait_shift: u32,
    nodes: Vec<NodeRec>,
    /// Growth bound of every output queue, in packets.
    out_bound: usize,
    /// Every packet this instance holds; banks, output queues and link
    /// pipelines queue handles into it.
    arena: Arena,
    /// Per-group Piggyback boards (empty unless PB routing).
    boards: Vec<GroupBoard>,
    metrics: Metrics,
    cycle: u64,
    next_id: u64,
    offered: f64,
    in_flight: i64,
    last_progress: u64,
    /// `true` while [`Network::drain`] runs: pattern generators stop
    /// producing new requests (staged replies still flush, so reactive
    /// traffic conservation closes too).
    draining: bool,
    /// Routers this engine instance steps and holds state for (the full
    /// range unless it is one shard of a
    /// [`crate::shard::ShardedNetwork`]). Router, node and link *ids* stay
    /// global — in the fabric, in packets and in boundary events — and the
    /// record tables are indexed by their offset into this range.
    owned_r: std::ops::Range<u32>,
    /// Nodes attached to owned routers (contiguous because node numbering
    /// is router-major; see [`Fabric::node_base`]).
    owned_n: std::ops::Range<u32>,
    /// `true` when this instance owns only part of the network: effects
    /// that cross the ownership boundary (packet transmits, credit returns,
    /// PB board publishes) are emitted into `outbox` instead of applied
    /// locally.
    sharded: bool,
    /// Boundary events emitted this epoch, in emission order per kind
    /// (drained and routed to their owning block by the shard driver).
    outbox: Outbox,
    // --- active-set scheduling state (behavior-neutral bookkeeping) ---
    /// Routers with a non-zero `ready` mask: the allocation worklist.
    alloc_list: Vec<u32>,
    /// Routers whose injection banks may hold an unplanned head.
    plan_list: Vec<u32>,
    /// Outputs whose queue head starts on its link this cycle.
    ser_due: Vec<u32>,
    /// Nodes whose [`Pending::Generate`] fired this cycle.
    gen_due: Vec<u32>,
    /// Nodes with staged replies.
    reply_list: Vec<u32>,
    /// Router visits of the allocator (tests: nothing is polled when idle).
    #[cfg(test)]
    router_visits: u64,
    /// Routers whose global-port credit state changed since the last
    /// Piggyback publish (empty unless PB routing).
    sense_list: Vec<u32>,
    /// Timing wheel of inputs with a packet head arriving at a cycle.
    pkt_wheel: Wheel<u32>,
    /// Timing wheel of outputs with a credit arriving at a cycle.
    cred_wheel: Wheel<u32>,
    /// Timing wheel of every other timed event (see [`Pending`]) —
    /// releases are commutative occupancy arithmetic and wake-ups only set
    /// bits or queue work for a later phase, so wheel order is
    /// interchangeable with the old per-router scan order.
    rel_wheel: Wheel<Pending>,
    /// Allocation candidate scratch (one entry per unified input). A heap
    /// `Vec` on purpose: it pins the heap, so warm rebuilds do not
    /// re-fault the engine's tables (ROADMAP 1(c)).
    cand: Vec<Option<(u8, Decision)>>,
    /// Set by `evaluate_head` when *this* evaluation mutated its head
    /// (opportunistic patience tick, reversion, in-transit latch; reset by
    /// the caller before each call). A mutating rejection keeps its head
    /// awake: its next evaluation may differ.
    eval_mutated_here: bool,
    /// Why the last `evaluate_head` call rejected (see [`EvalBlock`]):
    /// classifies the first failing gate so the head can sleep until that
    /// gate can actually change.
    eval_block: EvalBlock,
    /// Sensing occupancy scratch.
    occ_scratch: Vec<u32>,
    /// Sensing flag scratch.
    flag_scratch: Vec<bool>,
    // --- QoS (multi-class) state; inert when `qos_active` is false ---
    /// Cached `cfg.qos.is_some()`: every QoS branch on the hot path gates
    /// on this flag, so single-class configurations take bit-identical
    /// paths through the allocator.
    qos_active: bool,
    /// Strict-priority bypass bound B (0 when QoS is off): an arbiter that
    /// sees both classes requesting grants control, but after B such
    /// priority grants in a row it lets one bulk candidate through and
    /// resets — bounded bypass, the anti-starvation guarantee.
    bypass_bound: u32,
    /// Allowed output-VC masks per (link class, traffic class) —
    /// [`SimConfig::qos_vc_mask`] precomputed, indexed
    /// `[link.index()][tclass.index()]`.
    qos_masks: [[u32; 2]; 2],
    /// Dynamic per-class buffer repartitioning enabled.
    repart: bool,
}

impl<const W: usize> Engine<W> {
    /// Build the engine instance owning the contiguous router range
    /// `owned` — `None` for the whole network — over a shared fabric
    /// (`cfg` is pre-validated). Mutable state is allocated for owned
    /// routers only, plus one link replica per cut link the range
    /// receives on.
    fn new_shard(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        fabric: Arc<Fabric>,
        owned: Option<std::ops::Range<u32>>,
    ) -> Self {
        let fab = &*fabric;
        let (pp, n_in) = (fab.pp, fab.n_in);
        let nr = fab.topo.num_routers();
        let owned_r = owned.unwrap_or(0..nr as u32);
        let sharded = owned_r.len() < nr;
        debug_assert!(owned_r.start < owned_r.end && owned_r.end <= nr as u32);
        let owned_n = fab.node_base[owned_r.start as usize]..fab.node_end(owned_r.end as usize);
        let (r0, n_own) = (owned_r.start as usize, owned_r.len());

        let make_occ = |class: LinkClass| -> Occupancy<W> {
            let vcs = cfg.vcs_for_class(class).max(1);
            match cfg.buffers.organization {
                BufferOrg::Static => Occupancy::new_static(vcs, cfg.vc_capacity(class)),
                BufferOrg::Damq { private_fraction } => {
                    let total = cfg.port_capacity(class);
                    let private = ((total as f64 * private_fraction) / vcs as f64).floor() as u32;
                    Occupancy::new_damq(vcs, total, private)
                }
            }
        };

        // Worst-case population of every queue — its growth bound, not a
        // preallocation: banks hold their capacity in packets, output
        // queues their buffer depth, and a link pipeline one entry per
        // transfer that can start while an earlier one is still in flight
        // (credits leave an input at crossbar speed, so they set the
        // window).
        let size = cfg.packet_size.max(1);
        let inj_bound = (cfg.buffers.injection * cfg.injection_vcs as u32 / size) as usize + 1;
        let out_bound = (cfg.buffers.output / size) as usize + 2;
        let dur = size.div_ceil(cfg.speedup);
        let window = |port: usize| ((fab.port_latency[port] + size) / dur) as usize + 2;

        let mut replicas: Vec<usize> = Vec::new();
        let mut inputs = Vec::with_capacity(n_own * n_in);
        for ri in 0..n_own {
            for i in 0..n_in {
                let (occ, bound, rx) = match fab.port_class.get(i) {
                    Some(&class) => {
                        // The feeding link's record: the transmitter's own
                        // when it is owned, else a replica appended after
                        // the owned outputs.
                        let rx = fab.adj[(r0 + ri) * pp + i].map_or(u32::MAX, |(ur, up)| {
                            if owned_r.contains(&ur) {
                                ((ur as usize - r0) * pp + up as usize) as u32
                            } else {
                                replicas.push(up as usize);
                                (n_own * pp + replicas.len() - 1) as u32
                            }
                        });
                        let packets = (cfg.port_capacity(class) / size) as usize + 1;
                        (make_occ(class), packets, rx)
                    }
                    None => (
                        Occupancy::new_static(cfg.injection_vcs, cfg.buffers.injection),
                        inj_bound,
                        u32::MAX,
                    ),
                };
                inputs.push(InputRec {
                    bank: BufferBank::with_packet_capacity(occ, bound),
                    busy: 0,
                    arb: RrArbiter::new(fab.vcs_by_in[i] as usize),
                    vc_mask: 0,
                    awake: u16::MAX,
                    bypass: 0,
                    rx,
                });
            }
        }

        // QoS precomputation: validation already proved the configuration
        // safe (see `SimConfig::check_qos`), so the engine only caches the
        // derived masks, bounds and initial quotas here.
        let qos = cfg.qos;
        let repart = qos.is_some_and(|q| q.repartition);
        let quota = |port: usize| -> [u32; 2] {
            let Some(q) = qos.filter(|q| q.repartition) else {
                return [0; 2];
            };
            // Initial split: control gets its fraction of the port, rounded
            // down to whole packets and clamped so both classes hold at
            // least one packet. Ports too small to split stay
            // unpartitioned (both quotas = capacity, the gate is inert
            // and the repartitioner skips them).
            let total = fab.port_total[port];
            if total >= 2 * size {
                let c = ((total as f64 * q.control_quota_fraction) as u32 / size * size)
                    .clamp(size, total - size);
                [c, total - c]
            } else {
                [total; 2]
            }
        };
        // The arena holds at most what every queue that can hold a handle
        // holds at once.
        let banks: usize = inputs.iter().map(|i: &InputRec<W>| i.bank.bound()).sum();
        let links: usize = (0..n_own * pp)
            .map(|o| o % pp)
            .chain(replicas.iter().copied())
            .map(window)
            .sum();
        let arena_bound = banks + n_own * pp * out_bound + links;
        let outputs: Vec<OutputRec> = (0..n_own * pp)
            .map(|o| o % pp)
            .chain(replicas)
            .map(|port| OutputRec {
                xbar: 0,
                waiters: NIL,
                occ: 0,
                bypass: 0,
                cls_occ: [0; 2],
                cls_quota: quota(port),
                arb: RrArbiter::new(n_in),
                queue: VecDeque::new(),
                link: LinkState::with_capacity(window(port)),
            })
            .collect();
        let out_credit = (0..n_own * pp)
            .map(|o| make_occ(fab.port_class[o % pp]))
            .collect();
        let routers = owned_r
            .clone()
            .map(|r| RouterRec {
                alloc_in: false,
                plan_in: false,
                sense_in: false,
                ready: 0,
                rng: SmallRng::seed_from_u64(
                    seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(r as u64 + 1),
                ),
            })
            .collect();

        // Reactive workloads split the offered load between requests and the
        // replies they trigger.
        let gen_load = if cfg.workload.is_reactive() {
            load / 2.0
        } else {
            load
        };
        let nodes = owned_n
            .clone()
            .map(|n| {
                let n = n as usize;
                let r = fab.topo.router_of_node(n);
                NodeRec {
                    gen: NodeTraffic::new(
                        cfg.workload,
                        n,
                        fab.space,
                        gen_load,
                        cfg.packet_size,
                        seed,
                        fab.perm.as_ref().map(|p| p[n]),
                    ),
                    drawn: 0,
                    due: None,
                    input: ((r - r0) * n_in + pp + n - fab.node_base[r] as usize) as u32,
                    staging: VecDeque::new(),
                    reply_in: false,
                    eject_busy: [0; 2],
                    inj_rr: 0,
                }
            })
            .collect();

        let boards = if cfg.routing.uses_boards() {
            let rpg = fab.topo.routers_per_group();
            (0..fab.topo.num_groups())
                .map(|_| GroupBoard::new(rpg, fab.sense_ports.len(), cfg.local_latency as u64))
                .collect()
        } else {
            Vec::new()
        };

        // Generators re-arm at the release wheel's reach.
        let (horizon, rel_horizon) = cfg.wheel_horizons();
        let wait_shift = Self::wait_shift(fab);
        let policy = RoutePolicy::new(&cfg);
        let masks = |class| {
            [
                cfg.qos_vc_mask(class, TrafficClass::Control),
                cfg.qos_vc_mask(class, TrafficClass::Bulk),
            ]
        };
        Engine {
            transit_decisions: policy.decides_in_transit(),
            policy,
            routers,
            inputs,
            outputs,
            out_credit,
            wait_next: vec![NIL; (n_own * n_in) << wait_shift],
            wait_shift,
            nodes,
            out_bound,
            arena: Arena::new(arena_bound, cfg.workload.flow_spec().is_some()),
            boards,
            metrics: Metrics::default(),
            cycle: 0,
            next_id: 0,
            offered: load,
            in_flight: 0,
            last_progress: 0,
            draining: false,
            owned_r,
            owned_n,
            sharded,
            outbox: Outbox::default(),
            alloc_list: Vec::new(),
            plan_list: Vec::new(),
            ser_due: Vec::new(),
            gen_due: Vec::new(),
            reply_list: Vec::new(),
            #[cfg(test)]
            router_visits: 0,
            sense_list: Vec::new(),
            pkt_wheel: Wheel::new(horizon),
            cred_wheel: Wheel::new(horizon),
            rel_wheel: Wheel::new(rel_horizon),
            cand: vec![None; n_in],
            eval_mutated_here: false,
            eval_block: EvalBlock::Never,
            occ_scratch: Vec::new(),
            flag_scratch: Vec::new(),
            qos_active: qos.is_some(),
            bypass_bound: qos.map_or(0, |q| q.bypass_bound),
            qos_masks: [masks(LinkClass::Local), masks(LinkClass::Global)],
            repart,
            cfg,
            fabric,
        }
    }

    /// Bytes of record tables (inputs, outputs, credit mirrors, wait-list
    /// links) one owned router adds to an engine instance: what the phases
    /// of a cycle touch (tests pin it at paper scale). Queue contents are
    /// excluded — they follow the traffic.
    #[cfg(test)]
    pub(crate) fn router_table_bytes(fab: &Fabric) -> usize {
        use std::mem::size_of;
        size_of::<RouterRec>()
            + fab.n_in * size_of::<InputRec<W>>()
            + fab.pp * (size_of::<OutputRec>() + size_of::<Occupancy<W>>())
            + (fab.n_in << Self::wait_shift(fab)) * size_of::<u32>()
    }

    /// Bits of a wait-list entry's VC part: enough for the widest input.
    fn wait_shift(fab: &Fabric) -> u32 {
        let widest = fab.vcs_by_in.iter().copied().max().unwrap_or(1);
        (widest as u32).next_power_of_two().trailing_zeros()
    }

    /// Whether this instance owns (steps) router `r`.
    #[inline]
    fn owns(&self, r: u32) -> bool {
        self.owned_r.contains(&r)
    }

    /// First owned router id: record-table offset `ri` is router `r0 + ri`.
    #[inline]
    fn r0(&self) -> usize {
        self.owned_r.start as usize
    }

    /// Packets held in banks, output queues and link pipelines, counted
    /// queue by queue (the conservation check against the arena).
    fn queued_packets(&self) -> usize {
        let banks: usize = self.inputs.iter().map(|i| i.bank.queued_packets()).sum();
        let outputs: usize = self
            .outputs
            .iter()
            .map(|o| o.queue.len() + o.link.packets_in_flight())
            .sum();
        banks + outputs
    }

    /// See [`Network::pregrow_queues`].
    fn pregrow_queues(&mut self) {
        self.arena.reserve_bound();
        for input in &mut self.inputs {
            input.bank.reserve_bound();
        }
        for out in &mut self.outputs {
            out.queue.reserve_exact(self.out_bound - out.queue.len());
            out.link.reserve_bound();
        }
    }

    /// See [`Network::queue_overshoot`].
    fn queue_overshoot(&self) -> usize {
        let banks = self
            .inputs
            .iter()
            .map(|i| (i.bank.capacity(), i.bank.bound()));
        let queues = self
            .outputs
            .iter()
            .map(|o| (o.queue.capacity(), self.out_bound));
        let links = self
            .outputs
            .iter()
            .map(|o| (o.link.capacity(), o.link.window()));
        let arena = (self.arena.capacity(), self.arena.bound());
        banks
            .chain(queues)
            .chain(links)
            .chain([arena])
            .map(|(capacity, bound)| capacity.saturating_sub(bound))
            .max()
            .unwrap_or(0)
    }

    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.cfg.warmup && cycle < self.cfg.warmup + self.cfg.measure
    }

    /// A flow's ideal (zero-load) completion time: the train's full
    /// serialization at the 1 phit/cycle injection rate plus the unloaded
    /// latency of the minimal path (per-hop link latency plus router
    /// pipeline) — the standard FCT-slowdown denominator. Derived from the
    /// topology's minimal hop classes between the flow's endpoints.
    fn flow_ideal(
        &self,
        tag: &flexvc_traffic::FlowTag,
        src: u32,
        dst_router: u32,
        size: u32,
    ) -> u64 {
        let topo = &self.fabric.topo;
        let src_r = topo.router_of_node(src as usize);
        let path = topo.min_classes(src_r, dst_router as usize);
        let unloaded: u64 = path[..]
            .iter()
            .map(|&c| (self.cfg.pipeline_latency + self.cfg.link_latency(c)) as u64)
            .sum();
        tag.len as u64 * size as u64 + unloaded
    }

    /// See [`Network::drain`].
    fn drain(&mut self, max_cycles: u64) -> i64 {
        self.draining = true;
        let end = self.cycle.saturating_add(max_cycles);
        loop {
            // Staging queues only matter once the network itself is empty,
            // so the O(nodes) scan runs rarely.
            let staged = if self.in_flight > 0 {
                0
            } else {
                self.staged_pending()
            };
            let pending = self.in_flight + staged;
            if pending == 0 || self.cycle >= end || self.metrics.deadlocked {
                return pending;
            }
            self.step();
        }
    }

    /// See [`Network::run`].
    fn run(&mut self) -> SimResult {
        let end = self.cfg.warmup + self.cfg.measure;
        while self.cycle < end && !self.metrics.deadlocked {
            self.step();
        }
        self.metrics.cycles = self
            .cycle
            .saturating_sub(self.cfg.warmup)
            .min(self.cfg.measure);
        SimResult::from_metrics(&self.metrics, self.offered, self.fabric.space.num_nodes)
    }

    /// See [`Network::step`].
    fn step(&mut self) {
        let now = self.cycle;
        self.step_phases(now);
        self.finish_cycle(now, self.in_flight, self.last_progress);
    }

    /// Phases 1–7 of one cycle (everything router-local). The board tick,
    /// the watchdog and the cycle advance are [`Engine::finish_cycle`]'s:
    /// a block must first absorb the cycle's boundary events (board
    /// publishes, the watchdog's global reductions).
    fn step_phases(&mut self, now: u64) {
        debug_assert_eq!(now, self.cycle);
        self.deliver(now);
        self.process_pending(now);
        if self.repart {
            self.repartition(now);
        }
        self.generate(now);
        self.plan_heads(now);
        for _ in 0..self.cfg.speedup {
            self.allocate(now);
        }
        self.serialize_outputs(now);
        if self.cfg.routing.uses_boards() {
            self.update_sensing();
        }
        if now.is_multiple_of(128) && self.in_window(now) {
            self.sample_occupancy();
        }
        // Packet conservation: every live arena slot is queued somewhere,
        // and every queued handle names a live slot.
        debug_assert_eq!(
            self.arena.live(),
            self.queued_packets(),
            "arena and queues disagree at cycle {now}"
        );
    }

    // ------------------------------------------------------------------
    // Shard-execution hooks (driven by `crate::shard::ShardedNetwork`)
    // ------------------------------------------------------------------

    /// Free-run `len` cycles starting at `t0` without an intervening
    /// boundary exchange, leaving the last cycle open for the exchange and
    /// [`Engine::finish_cycle`]. Sound only when the driver caps
    /// `len` at the epoch bound (minimum cut-link latency; see
    /// `crate::shard`): then no foreign effect can land inside `t0 ..
    /// t0 + len`, so intermediate cycles need no absorb. Intermediate
    /// cycles tick the boards (their publishes are all local when the
    /// shard owns every router — the only multi-cycle epoch regime with
    /// boards in play, since foreign publishes are not time-keyed and
    /// would miss their swap if applied late) but skip the watchdog check
    /// (the driver's epoch bound proves those cycles cannot fire; the
    /// epoch's last cycle runs the exact global check as usual).
    fn step_epoch_shard(&mut self, t0: u64, len: u64) {
        debug_assert!(len >= 1);
        debug_assert!(
            len == 1 || self.boards.is_empty() || !self.sharded,
            "multi-cycle epochs with boards require a cut-free shard"
        );
        for c in t0..t0 + len - 1 {
            self.step_phases(c);
            // The epoch bound proves the watchdog cannot fire: skip it.
            self.finish_cycle(c, 0, self.last_progress);
        }
        self.step_phases(t0 + len - 1);
    }

    /// Absorb the boundary events another block addressed to this one
    /// during the epoch ending at cycle `now`. Every event's effect cycle
    /// is strictly in the future (packet heads arrive one link latency
    /// after transmit, credits one latency after their departure — both at
    /// least the cut-link latency the epoch length is capped at — and board
    /// publishes land in the boards' write buffer until the tick), so
    /// applying them here — after this block's own phases — is
    /// indistinguishable from the single-engine schedule, where the same
    /// effects were queued during the phases.
    fn absorb(&mut self, now: u64, mail: &mut Outbox) {
        let fab = &*self.fabric;
        let lid0 = self.r0() * fab.pp;
        for ev in mail.packets.drain(..) {
            let at = ev.flight.head_arrival;
            debug_assert!(at > now);
            let (dr, dp) = fab.adj[ev.lid as usize].expect("wired");
            debug_assert!(self.owned_r.contains(&dr));
            let input = (dr - self.owned_r.start) as usize * fab.n_in + dp as usize;
            self.pkt_wheel.schedule(now, at, input as u32);
            let replica = self.inputs[input].rx as usize;
            let flight = ev.flight.map(|pkt| self.arena.insert(pkt, ev.flow));
            self.outputs[replica].link.receive_flight(flight);
        }
        for ev in &mail.credits {
            let CreditMsg {
                arrival,
                vc,
                phits,
                class,
                tclass,
            } = ev.msg;
            debug_assert!(arrival > now);
            let o = ev.lid as usize - lid0;
            debug_assert!(o < self.out_credit.len(), "credit for a foreign link");
            self.outputs[o]
                .link
                .receive_credit(arrival, vc, phits, class, tclass);
            self.cred_wheel.schedule(now, arrival, o as u32);
        }
        for ev in &mail.boards {
            self.boards[ev.group as usize].publish(
                ev.local as usize,
                ev.port as usize,
                ev.class,
                ev.sat,
            );
        }
    }

    /// Complete cycle `now`: tick the (now fully published) boards, run
    /// the watchdog against the *global* reductions — packets in flight and
    /// the latest progress cycle across all blocks (the engine's own when
    /// it is the whole network) — and advance the cycle counter. Every block
    /// receives identical globals, so the deadlock flag flips on all blocks
    /// in the same cycle and the drivers' stop predicates stay in lockstep.
    fn finish_cycle(&mut self, now: u64, in_flight: i64, progress: u64) {
        debug_assert!(progress >= self.last_progress);
        self.last_progress = progress;
        for b in &mut self.boards {
            b.tick(now);
        }
        if in_flight > 0 && now.saturating_sub(self.last_progress) > self.cfg.watchdog {
            self.metrics.deadlocked = true;
        }
        self.cycle += 1;
    }

    /// Outstanding wake-up bookkeeping — non-empty wait lists, worklist
    /// entries and wheel events — and the allocator's router visits so far
    /// (tests: an idle network holds none and polls nothing).
    #[cfg(test)]
    fn scheduled(&self) -> (usize, u64) {
        let waiting = self.outputs.iter().filter(|o| o.waiters != NIL).count();
        let routers = self.alloc_list.len() + self.plan_list.len() + self.sense_list.len();
        let due = self.ser_due.len() + self.gen_due.len() + self.reply_list.len();
        let wheels = self.pkt_wheel.len() + self.cred_wheel.len() + self.rel_wheel.len();
        (waiting + routers + due + wheels, self.router_visits)
    }

    /// Replies staged at owned nodes but not yet injected (the drain
    /// conservation check counts them as pending).
    fn staged_pending(&self) -> i64 {
        self.nodes.iter().map(|n| n.staging.len()).sum::<usize>() as i64
    }

    /// Periodic per-VC occupancy sampling (the §III-D sensing signal).
    fn sample_occupancy(&mut self) {
        let fab = &*self.fabric;
        let prof = &mut self.metrics.vc_profile;
        if prof.samples == 0 {
            for class in [LinkClass::Local, LinkClass::Global] {
                let i = class.index();
                prof.sums[i] = vec![0; self.cfg.vcs_for_class(class)];
                prof.ports[i] = (fab.port_class.iter().filter(|&&c| c == class).count()
                    * fab.topo.num_routers()) as u64;
            }
        }
        prof.samples += 1;
        // Owned routers only (the full network when not sharded); `ports`
        // above still counts the whole network, so per-shard profiles sum
        // exactly to the single-engine profile.
        for router_inputs in self.inputs.chunks(fab.n_in) {
            for (input, &class) in router_inputs.iter().zip(&fab.port_class) {
                let sums = &mut prof.sums[class.index()];
                for (vc, sum) in sums.iter_mut().enumerate() {
                    *sum += input.bank.occ.occupancy(vc) as u64;
                }
            }
        }
    }

    /// Dynamic per-class buffer repartitioning: once per cycle, each owned
    /// router shifts one packet's worth of quota between the two classes
    /// of an output port when one class is under pressure (above 3/4 of
    /// its own quota) while the other leaves slack (below 1/2 of its own).
    /// Shifts preserve the per-port invariants — the quotas sum to the
    /// port capacity and each class keeps at least one packet — and never
    /// take a quota below the donor's current occupancy, so credits
    /// already granted stay honored. The decision reads only router-local
    /// state and runs in the same phase slot on every shard, so sharded
    /// runs stay bit-identical.
    fn repartition(&mut self, now: u64) {
        let (pp, size) = (self.fabric.pp, self.cfg.packet_size);
        for o in 0..self.out_credit.len() {
            let out = &mut self.outputs[o];
            let [cq, bq] = out.cls_quota;
            if cq + bq != self.fabric.port_total[o % pp] {
                continue; // port too small to split (inert quotas)
            }
            let [co, bo] = out.cls_occ;
            let ctrl_pressed = co * 4 > cq * 3 && bo * 2 < bq;
            let bulk_pressed = bo * 4 > bq * 3 && co * 2 < cq;
            let (donor, taker) = if ctrl_pressed && !bulk_pressed {
                (1, 0)
            } else if bulk_pressed && !ctrl_pressed {
                (0, 1)
            } else {
                continue;
            };
            let floor = out.cls_occ[donor].max(size);
            if out.cls_quota[donor] >= floor + size {
                out.cls_quota[donor] -= size;
                out.cls_quota[taker] += size;
                // The taker's quota gate may pass now: wake the heads
                // asleep on the port (see `OutputRec::waiters`).
                self.wake_waiters(o, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: arrivals
    // ------------------------------------------------------------------

    /// Queue packet `h` on VC `vc` of unified input `in_idx` of router
    /// offset `ri`; a new head is awake (empty VCs always are).
    fn enqueue(&mut self, ri: usize, in_idx: usize, vc: usize, h: Handle, now: u64) {
        debug_assert!(vc < W);
        let input = ri * self.fabric.n_in + in_idx;
        let rec = &mut self.inputs[input];
        let pkt = &mut self.arena[h];
        pkt.enter_buffer();
        rec.bank.enqueue(vc, pkt.size, pkt.buffered_class, h);
        rec.vc_mask |= 1 << vc;
        self.refresh_ready(input, now);
        self.last_progress = now;
    }

    /// Put `input` in its router's `ready` mask — and the router on the
    /// allocation worklist — if the input has an awake head and a free
    /// feed. Called wherever one of the two may have become true: a push,
    /// a wake-up, the feed's release.
    #[inline]
    fn refresh_ready(&mut self, input: usize, now: u64) {
        let rec = &self.inputs[input];
        if rec.busy <= now && rec.vc_mask & rec.awake != 0 {
            let n_in = self.fabric.n_in;
            let ri = input / n_in;
            let router = &mut self.routers[ri];
            router.ready |= 1 << (input % n_in);
            mark(&mut self.alloc_list, &mut router.alloc_in, ri);
        }
    }

    /// Put the head of VC `vc` of `input` (router offset `ri`) to sleep
    /// until the wake-up its rejection `block` names (see [`EvalBlock`]).
    fn sleep(&mut self, ri: usize, input: usize, vc: usize, block: EvalBlock, now: u64) {
        let (input32, vc8) = (input as u32, vc as u8);
        match block {
            EvalBlock::Never => return,
            EvalBlock::Until(t) => {
                let wake = Pending::Wake {
                    input: input32,
                    vc: vc8,
                };
                self.rel_wheel.schedule(now, t, wake);
            }
            EvalBlock::Event(port) => {
                let out = &mut self.outputs[ri * self.fabric.pp + port as usize];
                let id = (input << self.wait_shift | vc) as u32;
                self.wait_next[id as usize] = out.waiters;
                out.waiters = id;
            }
        }
        let rec = &mut self.inputs[input];
        debug_assert!(rec.awake & (1 << vc) != 0, "a sleeping head was evaluated");
        rec.awake &= !(1 << vc);
        if rec.vc_mask & rec.awake == 0 {
            self.routers[ri].ready &= !(1 << (input % self.fabric.n_in));
        }
    }

    /// Wake the head of VC `vc` of `input`: it is evaluated again at its
    /// router's next allocation round with the input's feed free.
    fn wake(&mut self, input: usize, vc: usize, now: u64) {
        let rec = &mut self.inputs[input];
        debug_assert!(rec.awake & (1 << vc) == 0 && rec.vc_mask & (1 << vc) != 0);
        rec.awake |= 1 << vc;
        self.refresh_ready(input, now);
    }

    /// Wake every head asleep on an event of output `o` (a credit return,
    /// an output-buffer release or a per-class quota shift just fired
    /// there).
    fn wake_waiters(&mut self, o: usize, now: u64) {
        let mut id = std::mem::replace(&mut self.outputs[o].waiters, NIL);
        let vc_bits = (1 << self.wait_shift) - 1;
        while id != NIL {
            let next = self.wait_next[id as usize];
            self.wake(id as usize >> self.wait_shift, id as usize & vc_bits, now);
            id = next;
        }
    }

    fn deliver(&mut self, now: u64) {
        let (pp, n_in) = (self.fabric.pp, self.fabric.n_in);
        // Packet arrivals: exactly the inputs with a head phit due now
        // (scheduled at transmit time), popped from the link feeding them.
        let due = self.pkt_wheel.take(now);
        for &input in &due {
            let input = input as usize;
            let link = self.inputs[input].rx as usize;
            while let Some(f) = self.outputs[link].link.pop_arrived(now) {
                let pkt = &mut self.arena[f.packet];
                pkt.head_arrival = f.head_arrival;
                pkt.tail_arrival = f.tail_arrival;
                self.enqueue(input / n_in, input % n_in, f.vc as usize, f.packet, now);
            }
        }
        self.pkt_wheel.put_back(now, due);
        // Credit arrivals: outputs with a credit due now (the credit queue
        // lives on the *upstream* link, owned by the router it returns to).
        // The first wheel entry of a link applies every credit due on it;
        // a later entry for the same link finds none left.
        let due = self.cred_wheel.take(now);
        for &o in &due {
            let o = o as usize;
            let out = &mut self.outputs[o];
            let mut any = false;
            while let Some(c) = out.link.pop_credit(now) {
                self.out_credit[o].remove(c.vc as usize, c.phits, c.class);
                if self.repart {
                    // The downstream buffer drained a packet of this class:
                    // release its share of the class quota.
                    out.cls_occ[c.tclass.index()] -= c.phits;
                }
                // A returning credit is forward progress: downstream
                // drained a buffer we were blocked on. Without this, an
                // extremely congested-but-live network whose grants are
                // spaced by long credit round trips can be misflagged
                // as deadlocked.
                self.last_progress = now;
                any = true;
            }
            if any {
                // Credits restore acceptance on this output port: wake the
                // heads asleep on it (see `OutputRec::waiters`).
                self.wake_waiters(o, now);
                if !self.boards.is_empty()
                    && (self.fabric.sense_all
                        || self.fabric.port_class[o % pp] == LinkClass::Global)
                {
                    let ri = o / pp;
                    mark(&mut self.sense_list, &mut self.routers[ri].sense_in, ri);
                }
            }
        }
        self.cred_wheel.put_back(now, due);
    }

    // ------------------------------------------------------------------
    // Phase 2: scheduled releases
    // ------------------------------------------------------------------

    fn process_pending(&mut self, now: u64) {
        let due = self.rel_wheel.take(now);
        for &rel in &due {
            match rel {
                Pending::Input {
                    input,
                    vc,
                    phits,
                    class,
                } => {
                    let rec = &mut self.inputs[input as usize];
                    rec.bank.release(vc as usize, phits, class);
                    // The transfer that set `busy` is done: the feed is
                    // free again.
                    debug_assert_eq!(rec.busy, now);
                    self.refresh_ready(input as usize, now);
                }
                Pending::OutBuf { output, phits } => {
                    self.outputs[output as usize].occ -= phits;
                    // Output space restored: wake the heads asleep on the
                    // port (see `OutputRec::waiters`).
                    self.wake_waiters(output as usize, now);
                }
                Pending::Wake { input, vc } => self.wake(input as usize, vc as usize, now),
                // Generation and serialization run in their own phases,
                // after every release of the cycle has been applied.
                Pending::Serialize { output } => self.ser_due.push(output),
                Pending::Generate { node } => self.gen_due.push(node),
            }
        }
        self.rel_wheel.put_back(now, due);
    }

    // ------------------------------------------------------------------
    // Phase 3: traffic generation
    // ------------------------------------------------------------------

    fn generate(&mut self, now: u64) {
        // New requests from the pattern generators, muted while draining
        // (staged replies below still flush). Generators are armed in the
        // first cycle, not at build, and from then on each node is visited
        // only when its next emission — or its draw-ahead limit — is due.
        if now == 0 && !self.draining {
            for nl in 0..self.nodes.len() {
                self.draw_ahead(nl, now);
            }
        }
        let mut due = std::mem::take(&mut self.gen_due);
        for &nl in &due {
            let nl = nl as usize;
            let em = self.nodes[nl].due.take();
            // Drawn past the start of a drain: the per-cycle generator
            // would never have been stepped for it.
            if self.draining {
                continue;
            }
            if let Some(em) = em {
                self.emit(nl, em, now);
            }
            self.draw_ahead(nl, now);
        }
        due.clear();
        self.gen_due = due;

        // Staged replies enter the reply injection VC when it has room.
        let size = self.cfg.packet_size;
        let in_window = self.in_window(now);
        let mut list = std::mem::take(&mut self.reply_list);
        let mut li = 0;
        while li < list.len() {
            let nl = list[li] as usize;
            let input = self.nodes[nl].input as usize;
            let (ri, in_idx) = (input / self.fabric.n_in, input % self.fabric.n_in);
            while let Some(&(dst, ready)) = self.nodes[nl].staging.front() {
                if ready > now || !self.inputs[input].bank.occ.can_accept(1, size) {
                    break;
                }
                self.nodes[nl].staging.pop_front();
                if in_window {
                    self.metrics.generated_packets += 1;
                    self.metrics.generated_phits += size as u64;
                }
                // Replies exist only on reactive workloads, which QoS
                // validation rejects: they are always bulk.
                let n = self.owned_n.start + nl as u32;
                let pkt = self.new_packet(n, dst, MessageClass::Reply, TrafficClass::Bulk, now);
                let h = self.arena.insert(pkt, None);
                self.inject(ri, in_idx, 1, h, now);
            }
            if self.nodes[nl].staging.is_empty() {
                self.nodes[nl].reply_in = false;
                list.swap_remove(li);
            } else {
                li += 1;
            }
        }
        self.reply_list = list;
    }

    /// Step node `nl`'s generator from its first undrawn cycle on, exactly
    /// as the per-cycle loop would — one [`NodeTraffic::next`] per cycle,
    /// in cycle order, on the node's own RNG — emitting what falls on
    /// `now` itself, until it yields an emission for a later cycle, which
    /// is kept and scheduled. With none within the wheel's reach, a
    /// re-arm is scheduled at that limit instead.
    fn draw_ahead(&mut self, nl: usize, now: u64) {
        let limit = now + self.rel_wheel.reach();
        let node = Pending::Generate { node: nl as u32 };
        loop {
            let rec = &mut self.nodes[nl];
            let c = rec.drawn;
            if c > limit {
                self.rel_wheel.schedule(now, limit, node);
                return;
            }
            rec.drawn += 1;
            let Some(em) = rec.gen.next(c) else {
                continue;
            };
            if c == now {
                self.emit(nl, em, now);
            } else {
                rec.due = Some(em);
                self.rel_wheel.schedule(now, c, node);
                return;
            }
        }
    }

    /// Inject node `nl`'s emission of cycle `now` into its injection queue
    /// (dropped when the chosen VC is full).
    fn emit(&mut self, nl: usize, em: Emission, now: u64) {
        let size = self.cfg.packet_size;
        let in_window = self.in_window(now);
        if in_window {
            self.metrics.generated_packets += 1;
            self.metrics.generated_phits += size as u64;
        }
        let tclass = em.tclass;
        let node = &mut self.nodes[nl];
        let input = node.input as usize;
        let vc = if self.cfg.workload.is_reactive() {
            0
        } else if self.qos_active && self.cfg.injection_vcs > 1 {
            // Injection-lane dedication: control owns injection VC 0 and
            // bulk round-robins over the remaining lanes, so a saturated
            // bulk queue cannot head-block control at the NIC.
            match tclass {
                TrafficClass::Control => 0,
                TrafficClass::Bulk => {
                    let lanes = self.cfg.injection_vcs as u8 - 1;
                    let v = node.inj_rr % lanes;
                    node.inj_rr = (v + 1) % lanes;
                    v + 1
                }
            }
        } else {
            let v = node.inj_rr;
            node.inj_rr = (v + 1) % self.cfg.injection_vcs as u8;
            v
        } as usize;
        if self.inputs[input].bank.occ.can_accept(vc, size) {
            let n = self.owned_n.start + nl as u32;
            let pkt = self.new_packet(n, em.dest as u32, MessageClass::Request, tclass, now);
            let h = self.arena.insert(pkt, em.flow);
            let n_in = self.fabric.n_in;
            self.inject(input / n_in, input % n_in, vc, h, now);
        } else if in_window {
            self.metrics.dropped_packets += 1;
        }
    }

    /// Enter a new packet into its injection queue: it may be an unplanned
    /// head, so the router also joins the planning worklist.
    fn inject(&mut self, ri: usize, in_idx: usize, vc: usize, h: Handle, now: u64) {
        self.enqueue(ri, in_idx, vc, h, now);
        mark(&mut self.plan_list, &mut self.routers[ri].plan_in, ri);
        self.in_flight += 1;
    }

    fn new_packet(
        &mut self,
        src: u32,
        dst: u32,
        class: MessageClass,
        tclass: TrafficClass,
        now: u64,
    ) -> Packet {
        let id = self.next_id;
        self.next_id += 1;
        Packet {
            id,
            src,
            dst,
            dst_router: self.fabric.topo.router_of_node(dst as usize) as u32,
            class,
            tclass,
            size: self.cfg.packet_size,
            gen_cycle: now,
            head_arrival: now,
            tail_arrival: now,
            position: None,
            plan: PlannedPath::empty(),
            min_routed: true,
            derouted: false,
            buffered_class: CreditClass::MinRouted,
            planned: false,
            par_evaluated: false,
            hop_decided: false,
            flex_opts: None,
            opp_blocked: 0,
            hops: 0,
            reverts: 0,
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: route planning at injection heads
    // ------------------------------------------------------------------

    fn plan_heads(&mut self, _now: u64) {
        // Only routers with injection-bank activity since the last pass
        // can hold an unplanned head: packets are planned exactly when
        // they first become an injection head, which happens on a push
        // (head of an empty VC) or a pop (successor becomes head). Both
        // sites mark the worklist, so draining it each cycle plans exactly
        // the heads the full sweep would have planned.
        let fab = &*self.fabric;
        let (pp, n_in) = (fab.pp, fab.n_in);
        let mut list = std::mem::take(&mut self.plan_list);
        for &ri32 in &list {
            let ri = ri32 as usize;
            let r = self.r0() + ri;
            // Split borrows: heads live in `inputs`, congestion state in
            // `out_credit`/`rng`/boards.
            let router = &mut self.routers[ri];
            router.plan_in = false;
            for input in &mut self.inputs[ri * n_in + pp..(ri + 1) * n_in] {
                for vc in 0..self.cfg.injection_vcs {
                    let Some(&h) = input.bank.head(vc) else {
                        continue;
                    };
                    let head = &mut self.arena[h];
                    if head.planned {
                        continue;
                    }
                    let sense = SenseView {
                        out_credit: &self.out_credit[ri * pp..(ri + 1) * pp],
                        boards: &self.boards,
                        sense_ports: &fab.sense_ports,
                        sense_all: fab.sense_all,
                        min_cred: self.cfg.sensing.min_cred,
                        adj: &fab.adj,
                        port_class: &fab.port_class,
                    };
                    let (plan, min_routed) = self.policy.plan_injection(
                        &*fab.topo,
                        &sense,
                        &mut router.rng,
                        r,
                        head.dst_router as usize,
                        head.class,
                    );
                    head.plan = plan;
                    head.min_routed = min_routed;
                    head.derouted = !min_routed;
                    head.planned = true;
                    head.flex_opts = None;
                }
            }
        }
        list.clear();
        self.plan_list = list;
    }

    // ------------------------------------------------------------------
    // Phase 5: allocation
    // ------------------------------------------------------------------

    fn allocate(&mut self, now: u64) {
        let (pp, n_in) = (self.fabric.pp, self.fabric.n_in);
        let mut cand = std::mem::take(&mut self.cand);
        debug_assert_eq!(cand.len(), n_in);

        // Only routers with an awake head on a free input can produce
        // decisions: arbiters do not advance and RNGs are not drawn on
        // request-free visits, so skipping the rest is exactly the full
        // sweep minus no-ops. Routers are dropped from the worklist lazily
        // once their `ready` mask empties.
        let mut list = std::mem::take(&mut self.alloc_list);
        let mut li = 0;
        // Scratch slots are mask-tracked — `reqs` by the VC mask rebuilt
        // per input, `cand` by the nomination mask (cleared selectively),
        // `port_req` consumed (zeroed) by stage 2 — so nothing is
        // re-initialized per router.
        let mut reqs: [Option<Decision>; W] = [None; W];
        let mut port_req = [0u64; MAX_ROUTER_INPUTS];
        while li < list.len() {
            let ri = list[li] as usize;
            #[cfg(test)]
            {
                self.router_visits += 1;
            }
            let router = &mut self.routers[ri];
            if router.ready == 0 {
                router.alloc_in = false;
                list.swap_remove(li);
                continue;
            }
            li += 1;
            let ready = router.ready;
            // Every sleeping head of the router must still be rejected: it
            // sleeps only while its first failing gate provably fails.
            #[cfg(debug_assertions)]
            for in_idx in 0..n_in {
                let rec = &self.inputs[ri * n_in + in_idx];
                let mut asleep = rec.vc_mask & !rec.awake;
                while asleep != 0 {
                    let vc = asleep.trailing_zeros() as usize;
                    asleep &= asleep - 1;
                    debug_assert!(
                        self.evaluate_head(ri, in_idx, vc, now).is_none(),
                        "sleeping head accepted at cycle {now}"
                    );
                }
            }
            debug_assert!(cand.iter().all(|c| c.is_none()));
            // Stage 1: each ready input nominates one of its awake VCs.
            let mut nominated: u64 = 0;
            // Inputs whose nomination is a control-class head (QoS stage-2
            // priority; stays 0 when QoS is off).
            let mut ctrl_in: u64 = 0;
            let mut inputs = ready;
            while inputs != 0 {
                let in_idx = inputs.trailing_zeros() as usize;
                inputs &= inputs - 1;
                let input = ri * n_in + in_idx;
                debug_assert!(self.inputs[input].busy <= now, "busy input marked ready");
                let mut req_mask: u64 = 0;
                // Requesting VCs whose head is control-class (QoS stage-1
                // priority; stays 0 when QoS is off).
                let mut ctrl_mask: u64 = 0;
                let mut vc_bits = self.inputs[input].vc_mask & self.inputs[input].awake;
                debug_assert!(vc_bits != 0, "ready input without an awake head");
                while vc_bits != 0 {
                    let vc = vc_bits.trailing_zeros() as usize;
                    vc_bits &= vc_bits - 1;
                    debug_assert!(vc < self.fabric.vcs_by_in[in_idx] as usize);
                    self.eval_mutated_here = false;
                    if let Some(d) = self.evaluate_head(ri, in_idx, vc, now) {
                        reqs[vc] = Some(d);
                        req_mask |= 1 << vc;
                        if self.qos_active && self.head_tclass(input, vc) == TrafficClass::Control {
                            ctrl_mask |= 1 << vc;
                        }
                    } else if !self.eval_mutated_here {
                        // Sleep on the first failing gate (see `EvalBlock`).
                        // A head this evaluation mutated (patience tick,
                        // reversion, in-transit latch) stays awake: its
                        // next evaluation may differ.
                        self.sleep(ri, input, vc, self.eval_block, now);
                    }
                }
                // QoS stage-1 strict priority with bounded bypass: when
                // both classes request, control wins — but after
                // `bypass_bound` consecutive mixed rounds won by control,
                // one bulk nomination goes through and the counter resets,
                // so bulk always makes progress.
                let rec = &mut self.inputs[input];
                let grant_mask = if ctrl_mask != 0 && ctrl_mask != req_mask {
                    if rec.bypass >= self.bypass_bound {
                        rec.bypass = 0;
                        req_mask & !ctrl_mask
                    } else {
                        rec.bypass += 1;
                        ctrl_mask
                    }
                } else {
                    req_mask
                };
                // A request-free grant moves nothing.
                if let Some(vc) = rec.arb.grant_mask(grant_mask) {
                    cand[in_idx] = Some((vc as u8, reqs[vc].expect("granted request")));
                    nominated |= 1 << in_idx;
                    ctrl_in |= (ctrl_mask >> vc & 1) << in_idx;
                }
            }
            // Stage 1.5, in ascending input order: ejection grants
            // (consumption channels); each forwarding candidate joins its
            // output's request vector instead.
            let mut ports: u64 = 0;
            let mut noms = nominated;
            while noms != 0 {
                let in_idx = noms.trailing_zeros() as usize;
                noms &= noms - 1;
                match cand[in_idx] {
                    Some((vc, Decision::Eject { channel })) => {
                        cand[in_idx] = None;
                        if *self.eject_busy(channel) <= now {
                            self.grant_eject(ri, in_idx, vc as usize, channel, now);
                        }
                    }
                    Some((_, Decision::Forward { port, .. })) => {
                        ports |= 1 << port;
                        port_req[port as usize] |= 1 << in_idx;
                    }
                    None => unreachable!("nominated input without a candidate"),
                }
            }
            // Stage 2: output-port arbitration over the ports with a
            // forwarding candidate, in ascending port order.
            while ports != 0 {
                let port = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let req = std::mem::take(&mut port_req[port]);
                let out = &mut self.outputs[ri * pp + port];
                // Same strict-priority-with-bounded-bypass rule as stage 1,
                // now among the inputs competing for this output port.
                let (ctrl, bulk) = (req & ctrl_in, req & !ctrl_in);
                let grant_mask = if ctrl != 0 && bulk != 0 {
                    if out.bypass >= self.bypass_bound {
                        out.bypass = 0;
                        bulk
                    } else {
                        out.bypass += 1;
                        ctrl
                    }
                } else {
                    req
                };
                let in_idx = out.arb.grant_mask(grant_mask).expect("port with a request");
                let (vc, d) = cand[in_idx].take().expect("winner has a candidate");
                if let Decision::Forward {
                    port,
                    vc: out_vc,
                    pos,
                } = d
                {
                    self.grant_forward(ri, in_idx, vc as usize, port, out_vc, pos, now);
                }
            }
            // Clear the losers' slots for the next router.
            while nominated != 0 {
                cand[nominated.trailing_zeros() as usize] = None;
                nominated &= nominated - 1;
            }
        }
        self.alloc_list = list;
        self.cand = cand;
    }

    /// Busy-until of a consumption channel (see [`Decision::Eject`]).
    #[inline]
    fn eject_busy(&mut self, channel: u32) -> &mut u64 {
        &mut self.nodes[channel as usize / 2].eject_busy[channel as usize % 2]
    }

    /// Traffic class of the head of VC `vc` of input record `input` (QoS
    /// arbitration; empty VCs read as bulk, but are never consulted).
    #[inline]
    fn head_tclass(&self, input: usize, vc: usize) -> TrafficClass {
        self.inputs[input]
            .bank
            .head(vc)
            .map_or(TrafficClass::Bulk, |&h| self.arena[h].tclass)
    }

    /// Evaluate the head of one input VC of router offset `ri`; may mutate
    /// the packet (planning reversion, PAR divert).
    fn evaluate_head(&mut self, ri: usize, in_idx: usize, vc: usize, now: u64) -> Option<Decision> {
        let (pp, n_in) = (self.fabric.pp, self.fabric.n_in);
        let r = self.r0() + ri;
        let input = ri * n_in + in_idx;
        let size = self.cfg.packet_size;
        self.eval_block = EvalBlock::Never;

        let h = *self.inputs[input].bank.head(vc)?;
        let head = &self.arena[h];
        if head.head_arrival > now {
            // Cut-through eligibility is time-pure.
            self.eval_block = EvalBlock::Until(head.head_arrival);
            return None;
        }
        if !head.planned {
            // Planned by next cycle's planning pass (phase 4 precedes
            // allocation, and the router is already on `plan_list`).
            self.eval_block = EvalBlock::Until(now + 1);
            return None;
        }
        // In-transit routing decisions (PAR divert, DAL per-dimension
        // misroute, adaptive copy re-selection) may replace the plan of an
        // arrived, planned head.
        if self.transit_decisions && self.transit_decide(ri, in_idx, vc) {
            // Latched this visit: the head stays awake for one more visit,
            // and every later evaluation in this buffer is pure.
            self.eval_mutated_here = true;
        }

        // Forwarding evaluation with at most one reversion.
        let mut reverted = false;
        loop {
            let fab = &*self.fabric;
            let head = &self.arena[h];
            // A done plan means ejection (possibly after a reversion of a
            // detour that passed through the destination router).
            if head.plan.is_done() {
                debug_assert_eq!(head.dst_router as usize, r, "done plan away from dst");
                let node_idx = head.dst - self.owned_n.start;
                let node = &self.nodes[node_idx as usize];
                // Protocol coupling: a node whose reply-generation queue is
                // full cannot consume further requests until replies drain.
                if self.cfg.workload.is_reactive()
                    && head.class == MessageClass::Request
                    && node.staging.len() >= self.cfg.reply_queue_packets
                {
                    // Staging drains only in next cycle's generation pass.
                    self.eval_block = EvalBlock::Until(now + 1);
                    return None;
                }
                let busy = node.eject_busy[head.class.index()];
                return if busy <= now {
                    Some(Decision::Eject {
                        channel: node_idx * 2 + head.class.index() as u32,
                    })
                } else {
                    self.eval_block = EvalBlock::Until(busy);
                    None
                };
            }
            let hop = *head.plan.next_hop().expect("plan not done");
            let dst_r = head.dst_router as usize;
            let port = hop.port as usize;
            let pclass = fab.port_class[port];
            let out = &self.outputs[ri * pp + port];
            // Output-side structural checks.
            if out.xbar > now {
                // Time-pure: the crossbar frees at a known cycle (the
                // head sleeps until then; reverted heads never sleep —
                // `eval_mutated_here` is already set).
                self.eval_block = EvalBlock::Until(out.xbar);
                return None;
            }
            if out.occ + size > self.cfg.buffers.output {
                // Improves only on an output-buffer release event.
                self.eval_block = EvalBlock::Event(port as u16);
                return None;
            }
            // Dynamic-repartition admission gate: the head's class must
            // fit inside its phit quota of the downstream buffer.
            // Improves on a same-port credit return or a repartition in
            // this class's favor (both wake the port's waiters).
            if self.repart
                && out.cls_occ[head.tclass.index()] + size > out.cls_quota[head.tclass.index()]
            {
                self.eval_block = EvalBlock::Event(port as u16);
                return None;
            }
            let credit = &self.out_credit[ri * pp + port];
            match self.cfg.policy {
                VcPolicy::Baseline => {
                    // The one VC the distance-based rule assigns this
                    // reference slot.
                    let arr = &self.cfg.arrangement;
                    let reference = self.cfg.routing.reference(self.cfg.topology.family());
                    let (bclass, bvc) = baseline_vc(arr, head.class, reference, hop.slot as usize);
                    debug_assert_eq!(bclass, pclass, "reference class mismatch");
                    if credit.can_accept(bvc, size) {
                        return Some(Decision::Forward {
                            port: port as u16,
                            vc: bvc as u8,
                            pos: arr.position(bclass, bvc).expect("baseline vc") as u16,
                        });
                    }
                    // Improves only on a credit return for this port.
                    self.eval_block = EvalBlock::Event(port as u16);
                    return None;
                }
                VcPolicy::FlexVc => {
                    // The lookahead options are a pure function of the
                    // arrangement, message class, buffer position, and the
                    // plan with its cached escapes — all frozen while the
                    // packet sits in this buffer — so a head blocked over
                    // many allocation rounds computes them once. The cache
                    // is cleared on every buffer entry and plan change; in
                    // debug builds a freshly computed value cross-checks it.
                    // Exact per-hop escapes: the minimal continuation from
                    // every router along the remaining plan (needed by the
                    // opportunistic landing lookahead). Thanks to the
                    // `flex_opts` cache this runs once per (buffer, plan),
                    // not once per allocation round.
                    let arr = &self.cfg.arrangement;
                    let fresh_opts = |head: &Packet| {
                        let rem = head.plan.remaining();
                        let planned: ClassPath = rem.iter().map(|h| h.class).collect();
                        let mut esc_store = [ClassPath::new(); MAX_HOPS];
                        let mut cur_router = r;
                        for (i, h) in rem.iter().enumerate() {
                            let next = fab.adj[cur_router * pp + h.port as usize]
                                .expect("routed port wired")
                                .0 as usize;
                            esc_store[i] = fab.topo.min_classes(next, head.dst_router as usize);
                            cur_router = next;
                        }
                        let escapes: [&[LinkClass]; MAX_HOPS] =
                            std::array::from_fn(|i| &esc_store[i][..]);
                        flexvc_options_lookahead(
                            arr,
                            head.class,
                            head.pos(),
                            &planned,
                            &escapes[..planned.len()],
                        )
                    };
                    // Allowed-VC mask for the head's traffic class on this
                    // link class: full when QoS is off or shared, a strict
                    // subset under class-partitioned VC budgets (whose
                    // per-class deadlock safety `check_qos` proved).
                    let qmask = if self.qos_active {
                        self.qos_masks[pclass.index()][head.tclass.index()]
                    } else {
                        u32::MAX
                    };
                    let opts = match head.flex_opts {
                        Some(cached) => {
                            debug_assert_eq!(cached, fresh_opts(head), "stale lookahead cache");
                            cached
                        }
                        None => {
                            let computed = fresh_opts(head);
                            self.arena[h].flex_opts = Some(computed);
                            computed
                        }
                    };
                    if let Some(opts) = opts {
                        let mut cands: [(usize, usize); W] = [(0, 0); W];
                        let mut nc = 0;
                        for v in opts.lo..=opts.hi {
                            if qmask & (1 << v) != 0 && credit.can_accept(v, size) {
                                cands[nc] = (v, credit.free_for(v) as usize);
                                nc += 1;
                            }
                        }
                        if nc > 0 {
                            let pick = self
                                .cfg
                                .selection
                                .pick(&cands[..nc], &mut self.routers[ri].rng)
                                .expect("non-empty");
                            let pos = arr.position(pclass, pick).expect("picked vc") as u16;
                            return Some(Decision::Forward {
                                port: port as u16,
                                vc: pick as u8,
                                pos,
                            });
                        }
                        if opts.kind == HopKind::Safe {
                            // Blocked safe hop: every candidate VC is out
                            // of credit, which only a credit return for
                            // this port can change.
                            self.eval_block = EvalBlock::Event(port as u16);
                            return None;
                        }
                        // Opportunistic hop without downstream space: wait
                        // out the configured patience, then revert.
                        self.eval_mutated_here = true;
                        let head = &mut self.arena[h];
                        if head.opp_blocked < self.cfg.revert_patience {
                            head.opp_blocked += 1;
                            return None;
                        }
                        head.opp_blocked = 0;
                    }
                    // Revert to the escape path (minimal from here).
                    if reverted {
                        debug_assert!(false, "escape path not safe after reversion");
                        return None;
                    }
                    reverted = true;
                    self.eval_mutated_here = true;
                    let head = &mut self.arena[h];
                    head.plan = min_plan(&*fab.topo, r, dst_r);
                    head.min_routed = true;
                    head.reverts += 1;
                    head.flex_opts = None;
                    continue;
                }
            }
        }
    }

    /// In-transit decision point: hand the head to the routing policy
    /// (PAR divert, DAL per-dimension misroute, adaptive copy
    /// re-selection) with the router-local sensed state. Returns whether
    /// the policy latched a decision on this call.
    fn transit_decide(&mut self, ri: usize, in_idx: usize, vc: usize) -> bool {
        let fab = &*self.fabric;
        let pp = fab.pp;
        let Some(&h) = self.inputs[ri * fab.n_in + in_idx].bank.head(vc) else {
            return false;
        };
        let head = &mut self.arena[h];
        let sense = SenseView {
            out_credit: &self.out_credit[ri * pp..(ri + 1) * pp],
            boards: &self.boards,
            sense_ports: &fab.sense_ports,
            sense_all: fab.sense_all,
            min_cred: self.cfg.sensing.min_cred,
            adj: &fab.adj,
            port_class: &fab.port_class,
        };
        // Injection queues count as local-class inputs.
        let in_class = fab.port_class.get(in_idx).copied();
        self.policy.transit_update(
            &*fab.topo,
            &sense,
            &mut self.routers[ri].rng,
            self.owned_r.start as usize + ri,
            head,
            in_class.is_none(),
            in_class.unwrap_or(LinkClass::Local),
        )
    }

    /// Return the credit for the buffer a grant just vacated on unified
    /// input `in_idx` of router offset `ri`: queue it on the upstream link
    /// (owned by the router it returns to). When that router lives on
    /// another shard, the credit becomes a boundary event — the arrival
    /// cycle `t_c + lat` is strictly beyond the current cycle, so applying
    /// it at the exchange is exact.
    #[allow(clippy::too_many_arguments)]
    fn return_credit(
        &mut self,
        ri: usize,
        in_idx: usize,
        vc_in: usize,
        phits: u32,
        class: CreditClass,
        tclass: TrafficClass,
        t_c: u64,
        now: u64,
    ) {
        let fab = &*self.fabric;
        // Injection queues are node-local: no upstream link.
        let Some(&lat) = fab.port_latency.get(in_idx) else {
            return;
        };
        let Some((ur, up)) = fab.adj[(self.r0() + ri) * fab.pp + in_idx] else {
            return;
        };
        if self.sharded && !self.owns(ur) {
            self.outbox.credits.push(CreditEvent {
                lid: ur * fab.pp as u32 + up as u32,
                dst: ur,
                msg: CreditMsg {
                    arrival: t_c + lat as u64,
                    vc: vc_in as u8,
                    phits,
                    class,
                    tclass,
                },
            });
        } else {
            let up = self.inputs[ri * fab.n_in + in_idx].rx as usize;
            self.outputs[up]
                .link
                .send_credit(t_c, lat, vc_in as u8, phits, class, tclass);
            self.cred_wheel.schedule(now, t_c + lat as u64, up as u32);
        }
    }

    /// Dequeue the granted head of VC `vc_in` of unified input `in_idx` at
    /// router offset `ri`; the input's feed stays busy until `t_c(&pkt)`,
    /// when its buffer space is released and its credit departs upstream.
    fn dequeue(
        &mut self,
        ri: usize,
        in_idx: usize,
        vc_in: usize,
        now: u64,
        t_c: impl FnOnce(&Packet) -> u64,
    ) -> (Handle, u64) {
        let input = ri * self.fabric.n_in + in_idx;
        let rec = &mut self.inputs[input];
        let h = rec.bank.pop(vc_in);
        let pkt = &self.arena[h];
        let t_c = t_c(pkt);
        rec.busy = t_c;
        if rec.bank.vc_is_empty(vc_in) {
            rec.vc_mask &= !(1 << vc_in);
        }
        // The feed is busy until `t_c`, when the input release below makes
        // the input ready again.
        let router = &mut self.routers[ri];
        router.ready &= !(1 << in_idx);
        if in_idx >= self.fabric.pp {
            // The next injection-queue packet (if any) becomes an
            // unplanned head.
            mark(&mut self.plan_list, &mut router.plan_in, ri);
        }
        let (phits, class, tclass) = (pkt.size, pkt.buffered_class, pkt.tclass);
        let release = Pending::Input {
            input: input as u32,
            vc: vc_in as u8,
            phits,
            class,
        };
        self.rel_wheel.schedule(now, t_c, release);
        self.return_credit(ri, in_idx, vc_in, phits, class, tclass, t_c, now);
        self.last_progress = now;
        (h, t_c)
    }

    #[allow(clippy::too_many_arguments)] // a grant is naturally 7-tuple-shaped
    fn grant_forward(
        &mut self,
        ri: usize,
        in_idx: usize,
        vc_in: usize,
        port: u16,
        out_vc: u8,
        pos: u16,
        now: u64,
    ) {
        let pp = self.fabric.pp;
        let size = self.cfg.packet_size;
        let dur = size.div_ceil(self.cfg.speedup);
        // Injection transfers serialize at link rate (the node-to-router
        // channel); network transfers run at crossbar speed, bounded by the
        // packet's own tail arrival (cut-through chaining).
        let (h, t_c) = self.dequeue(ri, in_idx, vc_in, now, |pkt| {
            if in_idx < pp {
                (now + dur as u64).max(pkt.tail_arrival + 1)
            } else {
                now + size as u64
            }
        });
        let o = ri * pp + port as usize;
        let out = &mut self.outputs[o];
        let pkt = &mut self.arena[h];
        out.xbar = t_c;
        self.out_credit[o].add(out_vc as usize, size, pkt.credit_class());
        out.occ += size;
        if self.repart {
            // The head's class now occupies part of the downstream buffer;
            // released when its credit returns (the credit carries the
            // class).
            out.cls_occ[pkt.tclass.index()] += size;
        }
        pkt.position = Some(pos);
        pkt.plan.advance();
        pkt.hops += 1;
        push_bounded(
            &mut out.queue,
            self.out_bound,
            OutPkt {
                pkt: h,
                ready_at: now + self.cfg.pipeline_latency as u64,
                vc: out_vc,
            },
        );
        if out.queue.len() == 1 {
            // Zero pipeline latency on a free link: serialized this cycle.
            let at = (now + self.cfg.pipeline_latency as u64).max(out.link.busy_until());
            if at <= now {
                self.ser_due.push(o as u32);
            } else {
                let ser = Pending::Serialize { output: o as u32 };
                self.rel_wheel.schedule(now, at, ser);
            }
        }
        if !self.boards.is_empty()
            && (self.fabric.sense_all || self.fabric.port_class[port as usize] == LinkClass::Global)
        {
            mark(&mut self.sense_list, &mut self.routers[ri].sense_in, ri);
        }
    }

    fn grant_eject(&mut self, ri: usize, in_idx: usize, vc_in: usize, channel: u32, now: u64) {
        let size = self.cfg.packet_size;
        let done = now + size as u64; // 1 phit/cycle consumption
        let (h, t_c) = self.dequeue(ri, in_idx, vc_in, now, |pkt| done.max(pkt.tail_arrival + 1));
        *self.eject_busy(channel) = t_c;
        self.in_flight -= 1;
        // The slot is free, but its fields stay readable until the next
        // insert.
        let flow = self.arena.free(h);
        let pkt = &self.arena[h];
        if self.in_window(now) {
            self.metrics.consume(
                pkt.class,
                pkt.tclass,
                size,
                done - pkt.gen_cycle,
                pkt.hops,
                !pkt.derouted,
                pkt.reverts,
            );
        }
        // Flow accounting is windowed on the flow's *start* cycle so a
        // flow either has every packet tracked or none: completion order
        // may differ from emission order under adaptive routing, but the
        // first-packet emission cycle is shared by the whole train.
        if let Some(tag) = flow {
            if self.in_window(tag.start) && self.metrics.flow_packet_done(&tag) {
                let ideal = self.flow_ideal(&tag, pkt.src, pkt.dst_router, size);
                self.metrics.complete_flow(&tag, done, ideal, pkt.tclass);
            }
        }
        // Reactive: the destination answers with a reply once the request
        // has fully arrived.
        if self.cfg.workload.is_reactive() && pkt.class == MessageClass::Request {
            let nl = (pkt.dst - self.owned_n.start) as usize;
            let node = &mut self.nodes[nl];
            node.staging.push_back((pkt.src, done));
            mark(&mut self.reply_list, &mut node.reply_in, nl);
        }
    }

    // ------------------------------------------------------------------
    // Phase 6: output serialization
    // ------------------------------------------------------------------

    fn serialize_outputs(&mut self, now: u64) {
        let fab = &*self.fabric;
        let lid0 = self.r0() * fab.pp;
        // Exactly the outputs whose head can start now: every output with
        // a queued packet has one event outstanding, for the first cycle
        // its head has cleared the router pipeline and the link has
        // finished the previous packet (scheduled by `grant_forward` for a
        // head entering an empty queue, below for its successors).
        let mut due = std::mem::take(&mut self.ser_due);
        for &o32 in &due {
            let o = o32 as usize;
            let out = &mut self.outputs[o];
            let OutPkt { pkt, vc, ready_at } = out.queue.pop_front().expect("scheduled head");
            debug_assert!(
                out.link.is_free(now) && ready_at <= now,
                "early serialization"
            );
            let size = self.arena[pkt].size;
            let lat = fab.port_latency[o % fab.pp];
            let (dr, dp) = fab.adj[lid0 + o].expect("transmitting link is wired");
            if self.sharded && !self.owned_r.contains(&dr) {
                // The receiving router lives on another block: keep the
                // serialization state (`busy_until`) here and move the
                // packet, with its flow tag, out of this arena into an
                // in-flight record for the receiver's link replica. Its
                // head arrives at `now + lat`, beyond this cycle, so
                // delivery timing is identical to the local path.
                let flight = out.link.launch(now, lat, vc, size, pkt);
                let (pkt, flow) = self.arena.take(pkt);
                self.outbox.packets.push(PacketEvent {
                    lid: (lid0 + o) as u32,
                    dst: dr,
                    flight: flight.map(|_| pkt),
                    flow,
                });
            } else {
                let flight = out.link.launch(now, lat, vc, size, pkt);
                out.link.receive_flight(flight);
                let input = (dr - self.owned_r.start) as usize * fab.n_in + dp as usize;
                self.pkt_wheel.schedule(now, now + lat as u64, input as u32);
            }
            self.rel_wheel.schedule(
                now,
                now + size as u64,
                Pending::OutBuf {
                    output: o as u32,
                    phits: size,
                },
            );
            // The link is now busy for this packet's `size` cycles.
            if let Some(next) = self.outputs[o].queue.front() {
                let at = next.ready_at.max(now + size as u64);
                self.rel_wheel
                    .schedule(now, at, Pending::Serialize { output: o as u32 });
            }
            // Phits starting to move on a link count as progress.
            self.last_progress = now;
        }
        due.clear();
        self.ser_due = due;
    }

    // ------------------------------------------------------------------
    // Phase 7: Piggyback sensing
    // ------------------------------------------------------------------

    fn update_sensing(&mut self) {
        let fab = &*self.fabric;
        let rpg = fab.topo.routers_per_group();
        let t_phits = self.cfg.sensing.threshold * self.cfg.packet_size;
        let min_cred = self.cfg.sensing.min_cred;
        let classes: &[MessageClass] = if self.cfg.workload.is_reactive() {
            &[MessageClass::Request, MessageClass::Reply]
        } else {
            &[MessageClass::Request]
        };
        // Saturation flags are a pure function of sense-port credit state
        // (global ports in a Dragonfly, every port on single-class
        // topologies): only routers whose state changed since their last
        // publish can produce different flags, and republishing unchanged
        // flags is a no-op on the double-buffered board. The worklist is
        // marked on every sense-port credit add/remove.
        let mut list = std::mem::take(&mut self.sense_list);
        let mut occs = std::mem::take(&mut self.occ_scratch);
        let mut flags = std::mem::take(&mut self.flag_scratch);
        for &ri32 in &list {
            let ri = ri32 as usize;
            self.routers[ri].sense_in = false;
            let r = self.r0() + ri;
            let group = fab.topo.group_of_router(r);
            let local = r - group * rpg;
            for &class in classes {
                occs.clear();
                occs.extend(fab.sense_ports.iter().map(|&gp| {
                    let credit = &self.out_credit[ri * fab.pp + gp];
                    match self.cfg.sensing.mode {
                        SensingMode::PerPort => {
                            if min_cred {
                                credit.split_total().min_occupancy()
                            } else {
                                credit.total()
                            }
                        }
                        SensingMode::PerVc => {
                            // First VC of each subpath: 0 for requests, the
                            // first reply VC of the sensed port's class for
                            // replies.
                            let vc = match class {
                                MessageClass::Request => 0,
                                MessageClass::Reply => {
                                    self.cfg.arrangement.vc_count_request(fab.port_class[gp])
                                }
                            };
                            if min_cred {
                                credit.split(vc).min_occupancy()
                            } else {
                                credit.occupancy(vc)
                            }
                        }
                    }
                }));
                saturated_flags_into(&occs, t_phits, &mut flags);
                for (i, &sat) in flags.iter().enumerate() {
                    self.boards[group].publish(local, i, class, sat);
                    // Groups may straddle a shard cut, and remote groups'
                    // boards are consulted by UGAL-G: replicate every
                    // publish to the other shards' board copies. Publishes
                    // land in the write buffer and become visible at the
                    // tick, which all shards run after the exchange — so
                    // the replicas stay bit-identical to the single-engine
                    // board.
                    if self.sharded {
                        self.outbox.boards.push(BoardEvent {
                            group: group as u32,
                            local: local as u32,
                            port: i as u32,
                            class,
                            sat,
                        });
                    }
                }
            }
        }
        list.clear();
        self.sense_list = list;
        self.occ_scratch = occs;
        self.flag_scratch = flags;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QosConfig;
    use flexvc_core::{Arrangement, RoutingMode};
    use flexvc_traffic::{Pattern, Workload};

    /// The whole-network engine of `cfg` at per-VC width `W`, for tests
    /// that reach into its state.
    fn engine<const W: usize>(cfg: SimConfig, load: f64, seed: u64) -> Engine<W> {
        cfg.validate_point(load).unwrap();
        let fabric = Arc::new(Fabric::new(&cfg, cfg.topology.build(), seed));
        Engine::new_shard(cfg, load, seed, fabric, None)
    }

    /// Nothing sleeps, waits or stays scheduled past the traffic: once a
    /// drained network has been quiet for 1,000 cycles, every wait list,
    /// worklist and wheel is empty, and 1,000 more cycles visit no router.
    /// Saturated request–reply bursts with a zero-cycle pipeline cover
    /// staged replies, sleeping heads, same-cycle serialization and the
    /// generators' re-arms; saturated PAR under FlexVC covers in-transit
    /// latches, patience and reversion; QoS repartitioning covers heads
    /// asleep on class quotas and the shifts that wake them.
    #[test]
    fn a_drained_network_leaks_no_wake_ups() {
        let mut rr = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::reactive(Pattern::bursty()),
        )
        .with_flexvc(Arrangement::dragonfly_rr((3, 2), (2, 1)));
        rr.pipeline_latency = 0;
        let par = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Par,
            Workload::oblivious(Pattern::adv1()),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2));
        let qos = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform).with_mix(0.3),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2))
        .with_qos(QosConfig {
            control_quota_fraction: 0.25,
            ..QosConfig::shared().with_repartition()
        });
        for (name, mut cfg, load, floor) in [
            ("rr", rr, 1.0, 0.3),
            ("par", par, 0.5, 0.15),
            ("qos", qos, 0.8, 0.6),
        ] {
            (cfg.warmup, cfg.measure) = (300, 1_200);
            let mut net = Network::new(cfg, load, 3).unwrap();
            let result = net.run();
            assert!(!result.deadlocked, "{name}: deadlocked");
            assert!(result.accepted > floor, "{name}: {}", result.accepted);
            assert_eq!(net.drain(20_000), 0, "{name}: packets left");
            let idle = |net: &mut Network| (0..1_000).for_each(|_| net.step());
            idle(&mut net);
            let (scheduled, visits) = net.scheduled();
            assert_eq!(scheduled, 0, "{name}: wake-ups outstanding");
            idle(&mut net);
            assert_eq!(net.scheduled(), (0, visits), "{name}: idle routers polled");
        }
    }

    /// A quota shift opens a gate without a credit return or an
    /// output-buffer release: a head asleep on its class quota must wake
    /// when `repartition` grows that quota.
    #[test]
    fn a_quota_shift_wakes_the_ports_sleepers() {
        let cfg = SimConfig::hyperx_baseline(
            2,
            4,
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform).with_mix(0.15),
        )
        .with_flexvc(Arrangement::generic(4))
        .with_qos(QosConfig::shared().with_repartition());
        let mut net = engine::<4>(cfg, 0.0, 1);
        let fab = Arc::clone(&net.fabric);
        let (pp, size, total) = (fab.pp, net.cfg.packet_size, fab.port_total[0]);
        // A bulk packet on router 0's first injection queue, bound for the
        // neighbor behind port 0.
        let (dr, _) = fab.adj[0].expect("port 0 is wired");
        let dst = fab.node_base[dr as usize];
        let pkt = net.new_packet(0, dst, MessageClass::Request, TrafficClass::Bulk, 0);
        let h = net.arena.insert(pkt, None);
        net.inject(0, pp, 0, h, 0);
        net.plan_heads(0);
        // Bulk fills its quota of the downstream buffer; control is idle.
        let out = &mut net.outputs[0];
        (out.cls_quota, out.cls_occ) = ([total - size, size], [0, size]);
        let asleep = |net: &Engine<4>| net.inputs[pp].awake & 1 == 0;
        net.allocate(0);
        assert!(asleep(&net), "the head should sleep on its class quota");
        net.repartition(0);
        assert_eq!(net.outputs[0].cls_quota, [total - 2 * size, 2 * size]);
        assert!(!asleep(&net), "the quota shift left its sleeper asleep");
        assert!(net.evaluate_head(0, pp, 0, 0).is_some(), "the gate is open");
    }
}
