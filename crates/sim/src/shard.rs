//! Deterministic sharded execution: engine-level parallelism.
//!
//! A [`ShardedNetwork`] partitions the routers of one simulation across N
//! worker shards — distinct from the [`crate::runner`]'s *per-point*
//! threading, which parallelizes independent simulations. Each shard is a
//! [`Network`] instance that owns a contiguous router range: it allocates
//! record tables, timing wheels, worklists, buffer banks and credit mirrors
//! for those routers only (plus one link replica per cut link it receives
//! on), while the immutable topology-derived tables are built once into a
//! `Fabric` that every shard shares behind an `Arc`. Router, node and link
//! ids stay global in packets and boundary events.
//!
//! # The boundary exchange
//!
//! Within a cycle every phase is router-local (see the engine's module
//! docs: iteration order across routers is independent by construction).
//! The only effects that cross a shard cut are:
//!
//! * **packet transmits** whose receiving router is foreign — the
//!   [`InFlight`] record ships to the receiver's link replica, arriving at
//!   `now + latency`;
//! * **credit returns** whose upstream router is foreign — the credit
//!   arrives at `t_c + latency`, strictly beyond the current cycle;
//! * **Piggyback board publishes** — replicated to every shard's board
//!   copy, becoming visible only at the next board tick.
//!
//! All three take effect strictly *after* the cycle that emits them, so
//! shards can run a whole cycle without communicating, then exchange:
//!
//! ```text
//!   shard 0:  [cycles t .. t+E)──outbox──┐          ┌─sort──apply──finish┐
//!   shard 1:  [cycles t .. t+E)──outbox──┼─barrier──┼─sort──apply──finish┼─barrier─▶ next epoch
//!   shard 2:  [cycles t .. t+E)──outbox──┘          └─sort──apply──finish┘
//! ```
//!
//! 1. every shard free-runs an **epoch** of `E` cycles on its own routers,
//!    accumulating boundary events into per-destination inboxes;
//! 2. barrier — then every shard sorts its inbox by the canonical
//!    **(cycle, link-id, source-shard, sequence)** key and applies it;
//! 3. every shard computes the same global reductions (total packets in
//!    flight, latest progress cycle), completes the epoch's last cycle
//!    (board tick, watchdog, `t += 1`), and a second barrier releases the
//!    next epoch.
//!
//! # Epoch batching: why E > 1 is exact
//!
//! Packet and credit arrivals crossing the cut are delayed by at least the
//! latency of the cut link they traverse. Let **λ** be the minimum latency
//! over all links cut by the partition ([`Topology::cut_link_classes`]).
//! An event emitted at cycle `c ∈ [t, t+E)` lands at `≥ c + λ ≥ t + E`
//! whenever `E ≤ λ` — i.e. **no event can arrive inside the epoch that
//! emits it**, and applying the whole batch at the epoch-end exchange is
//! indistinguishable from applying each event at its emission cycle. The
//! canonical sort key already orders events across the epoch's cycles.
//! Two caps shorten an epoch below λ:
//!
//! * **boards** — Piggyback publishes are written into the boards' `next`
//!   buffer *without a timestamp* and become visible at the next swap, so
//!   a foreign publish applied late could miss its swap. Whenever the
//!   routing mode uses boards across more than one shard, epochs are
//!   forced to one cycle (the exact per-cycle exchange; a single cut-free
//!   shard has only local publishes and keeps long epochs, ticking its
//!   boards every cycle).
//! * **watchdog headroom** — the watchdog fires at cycle `c` iff the
//!   global in-flight count is positive and `c - progress(c)` exceeds the
//!   threshold `W`. Intermediate epoch cycles skip the check, which is
//!   sound as long as they provably cannot fire: with `P` the global
//!   progress cycle at epoch start, no cycle `c ≤ P + W` can fire (when
//!   packets were in flight at epoch start), and no cycle `c ≤ t + W` can
//!   fire when nothing was in flight (any later in-flight packet implies
//!   an injection after `t`, which itself records progress). The epoch
//!   length is capped accordingly and the epoch's **last** cycle always
//!   runs the exact global check, so the deadlock flag flips on the same
//!   cycle as in the single-engine schedule.
//!
//! Drain mode keeps `E = 1`: its stop predicate (global pending = 0) is
//! evaluated every cycle, exactly like [`Network::drain`].
//!
//! # Topology-aware partitioning
//!
//! [`partition_topology`] aligns shard boundaries with the topology's
//! natural unit ([`Topology::partition_unit`]): Dragonfly/Dragonfly+
//! groups, HyperX last-dimension hyperplanes, FlatButterfly rows. Aligned
//! cuts sever only inter-group (global) links, which both shrinks the cut
//! and raises λ to the global-link latency — an order of magnitude more
//! free-running per barrier under the default `local=10 / global=100`
//! latencies. Units are weighted by [`Topology::router_weight`] (ports +
//! attached terminals, so host-free Dragonfly+ spines don't skew the
//! balance) and packed into contiguous runs minimizing the maximum shard
//! weight (exact min-max via binary search over the bottleneck capacity).
//! When there are fewer units than shards the partitioner falls back to
//! the count-balanced router split ([`partition`]).
//!
//! # Why results are bit-identical to `shards = 1`
//!
//! The sort key makes the exchange deterministic, and the *application
//! order* of boundary events is behavior-neutral on top of that:
//!
//! * each directed link has exactly one transmitting router and one
//!   receiving router, so all `Packet` events for a link come from one
//!   shard and are applied in emission order — the order the receiving
//!   link queue would have seen locally;
//! * all `Credit` events for a link originate from the single downstream
//!   input port feeding it, whose serialization makes departure cycles
//!   strictly monotonic — same argument;
//! * `Board` publishes within a cycle target distinct cells (one router
//!   publishes each cell) and overwrite, so they commute.
//!
//! Since every cross-shard effect lands at a future cycle (beyond its
//! epoch) and intra-cycle state never crosses the cut, the sharded
//! schedule is a reordering of *commuting* operations of the
//! single-engine schedule: counters, RNG draw sequences and arbiter
//! states evolve identically for any shard count and any epoch length,
//! including 1. `tests/engine_equivalence.rs` asserts this exactly
//! (`SimResult` JSON equality) over every recorded golden at shard counts
//! {1, 2, 3, 4}.

use crate::config::SimConfig;
use crate::engine::Network;
use crate::error::ConfigError;
use crate::fabric::Fabric;
use crate::link::InFlight;
use crate::metrics::{Metrics, SimResult};
use flexvc_core::{CreditClass, MessageClass, TrafficClass};
use flexvc_topology::Topology;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// An effect crossing a shard boundary, exchanged at end of epoch.
#[derive(Debug)]
pub(crate) struct BoundaryEvent {
    /// Effect cycle (head/credit arrival; publish cycle for boards).
    pub at: u64,
    /// Flat link id the effect applies to (0 for board publishes).
    pub lid: u32,
    /// Receiving router (owner = destination shard); `u32::MAX` broadcasts
    /// to every other shard (board publishes).
    pub dst: u32,
    /// The effect itself.
    pub payload: BoundaryPayload,
}

/// Payload of a [`BoundaryEvent`].
#[derive(Debug)]
pub(crate) enum BoundaryPayload {
    /// A packet in flight toward a foreign router's input port, with its
    /// flow tag (if any): flow identity lives in an engine-side table, so
    /// the tag migrates to the shard that will eject the packet.
    Packet {
        /// The in-flight link record.
        flight: InFlight,
        /// The packet's flow tag under flow workloads.
        flow: Option<flexvc_traffic::FlowTag>,
    },
    /// A credit returning to a foreign router's credit mirror.
    Credit {
        /// VC whose space is released.
        vc: u8,
        /// Phits released.
        phits: u32,
        /// Routing type of the released packet.
        class: CreditClass,
        /// QoS class of the released packet (per-class occupancy
        /// accounting for the dynamic buffer repartitioner).
        tclass: TrafficClass,
    },
    /// A Piggyback saturation-flag publish, replicated to all shards.
    Board {
        /// Group whose board is written.
        group: u32,
        /// Publishing router's index within the group.
        local: u32,
        /// Sense-port index of the flag.
        port: u32,
        /// Message class of the flag.
        class: MessageClass,
        /// The saturation flag.
        sat: bool,
    },
}

/// Resolve a configured shard count: `0` auto-detects from the host's
/// available parallelism; any request is clamped to the router count
/// (a shard must own at least one router).
pub fn resolve_shards(requested: usize, routers: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, routers.max(1))
}

/// Partition `routers` into `shards` contiguous, near-equal ranges (the
/// first `routers % shards` ranges get one extra router). Deterministic in
/// its inputs — the partition is part of the reproducibility contract.
/// The unaligned fallback of [`partition_topology`].
pub fn partition(routers: usize, shards: usize) -> Vec<Range<u32>> {
    debug_assert!(shards >= 1 && shards <= routers);
    let base = routers / shards;
    let rem = routers % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0u32;
    for s in 0..shards {
        let len = (base + usize::from(s < rem)) as u32;
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start as usize, routers);
    ranges
}

/// Topology-aware shard partition: contiguous router ranges whose
/// boundaries land on [`Topology::partition_unit`] multiples (group /
/// plane boundaries, so no intra-group local link crosses a shard cut),
/// balanced by [`Topology::router_weight`] (ports + terminals) rather
/// than router count. Falls back to the count-balanced [`partition`] when
/// the topology offers no alignment or has fewer units than shards.
/// Deterministic in its inputs, like [`partition`].
pub fn partition_topology(topo: &dyn Topology, shards: usize) -> Vec<Range<u32>> {
    let nr = topo.num_routers();
    debug_assert!(shards >= 1 && shards <= nr);
    let unit = topo.partition_unit();
    if unit <= 1 || !nr.is_multiple_of(unit) || nr / unit < shards {
        return partition(nr, shards);
    }
    let units = nr / unit;
    #[cfg(debug_assertions)]
    for r in 0..nr {
        debug_assert_eq!(
            topo.group_of_router(r),
            r / unit,
            "partition_unit contract: groups must be contiguous id ranges"
        );
    }
    let weights: Vec<u64> = (0..units)
        .map(|u| {
            (u * unit..(u + 1) * unit)
                .map(|r| topo.router_weight(r))
                .sum()
        })
        .collect();
    balanced_units(&weights, shards)
        .into_iter()
        .map(|ur| (ur.start * unit) as u32..(ur.end * unit) as u32)
        .collect()
}

/// Split `weights` into exactly `k` contiguous non-empty segments
/// minimizing the maximum segment weight. Binary-searches the bottleneck
/// capacity `C` (feasibility by greedy first-fit), then packs greedily
/// against the optimal `C`, closing early where needed so every remaining
/// segment keeps at least one unit. Forced closes only ever occur when the
/// tail holds exactly one unit per remaining segment (each ≤ `C` since
/// `C ≥ max(weights)`), so no segment exceeds `C`.
fn balanced_units(weights: &[u64], k: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    debug_assert!(k >= 1 && k <= n);
    let total: u64 = weights.iter().sum();
    let feasible = |cap: u64| {
        let mut segs = 1usize;
        let mut sum = 0u64;
        for &w in weights {
            if sum + w > cap {
                segs += 1;
                sum = w;
            } else {
                sum += w;
            }
        }
        segs <= k
    };
    let mut lo = weights
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(total.div_ceil(k as u64));
    let mut hi = total;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cap = lo;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut sum = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let remaining = k - ranges.len();
        if i > start && remaining > 1 && (sum + w > cap || n - i < remaining) {
            ranges.push(start..i);
            start = i;
            sum = 0;
        }
        sum += w;
    }
    ranges.push(start..n);
    debug_assert_eq!(ranges.len(), k);
    ranges
}

/// Epoch length cap λ for a partition: the minimum latency over cut
/// links, the hard floor below which no cross-shard packet or credit can
/// arrive. Board-using routing modes force per-cycle exchange (publishes
/// are not time-keyed — see the module docs); a cut-free partition
/// (`shards = 1`) leaves the epoch bounded only by the run window and
/// watchdog headroom.
fn epoch_lambda(cfg: &SimConfig, topo: &dyn Topology, owner: &[u32], shards: usize) -> u64 {
    if shards <= 1 {
        return u64::MAX;
    }
    if cfg.routing.uses_boards() {
        return 1;
    }
    let (cut_local, cut_global) = topo.cut_link_classes(owner);
    let mut lambda = u64::MAX;
    if cut_local {
        lambda = lambda.min(cfg.local_latency as u64);
    }
    if cut_global {
        lambda = lambda.min(cfg.global_latency as u64);
    }
    lambda.max(1)
}

/// Length of the epoch starting at `now`: the λ cap, the watchdog
/// headroom (see the module docs — intermediate cycles must provably not
/// fire), and the run window. `g_if`/`g_prog` are the exact global
/// reductions from the previous epoch's exchange, identical on every
/// shard, so all workers compute the same length.
fn epoch_len(now: u64, end: u64, lambda: u64, g_if: i64, g_prog: u64, watchdog: u64) -> u64 {
    let headroom = if g_if > 0 {
        g_prog
            .saturating_add(watchdog)
            .saturating_add(2)
            .saturating_sub(now)
    } else {
        watchdog.saturating_add(2)
    };
    lambda.min(headroom).min(end - now).max(1)
}

/// Per-epoch exchange state shared by the shard workers. All slot accesses
/// are ordered by the barrier (a store before a `wait` happens-before every
/// load after it), so `Relaxed` atomics suffice.
struct Exchange {
    /// Per-destination inboxes: `(source shard, sequence, event)`.
    inboxes: Vec<Mutex<Vec<(u32, u32, BoundaryEvent)>>>,
    /// Per-shard packets-in-flight contribution (signed: a shard ejecting
    /// packets injected elsewhere counts negative).
    in_flight: Vec<AtomicI64>,
    /// Per-shard latest-progress cycle.
    progress: Vec<AtomicU64>,
    /// Per-shard staged-reply count (drain mode only).
    staged: Vec<AtomicI64>,
    /// Per-shard wall-clock nanoseconds spent working (stepping, dispatch,
    /// absorb) as opposed to waiting at barriers — the imbalance signal.
    work_nanos: Vec<AtomicU64>,
    /// Two waits per epoch: after dispatch, after completion.
    barrier: Barrier,
    /// Drain verdict (written by shard 0; all shards compute the same).
    pending: AtomicI64,
}

impl Exchange {
    fn new(shards: usize) -> Self {
        Exchange {
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            in_flight: (0..shards).map(|_| AtomicI64::new(0)).collect(),
            progress: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            staged: (0..shards).map(|_| AtomicI64::new(0)).collect(),
            work_nanos: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            barrier: Barrier::new(shards),
            pending: AtomicI64::new(0),
        }
    }

    fn global_in_flight(&self) -> i64 {
        self.in_flight
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    fn global_progress(&self) -> u64 {
        self.progress
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// Per-shard execution statistics (machine timing — deliberately kept out
/// of [`SimResult`], whose contents are shard-invariant).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Contiguous router range this shard owns.
    pub routers: Range<u32>,
    /// Partition weight of the range (ports + terminals; see
    /// [`Topology::router_weight`]).
    pub weight: u64,
    /// Wall-clock seconds this shard's worker spent doing work (stepping,
    /// dispatching, absorbing) across all `run`/`drain` calls — barrier
    /// wait time excluded. `max / mean` across shards is the load
    /// imbalance.
    pub work_seconds: f64,
}

/// A simulation partitioned across shard workers, bit-identical to the
/// single-engine [`Network`] for any shard count (see the module docs).
pub struct ShardedNetwork {
    shards: Vec<Network>,
    /// Router -> owning shard.
    owner: Vec<u32>,
    /// Epoch cap λ (minimum cut-link latency; see [`epoch_lambda`]).
    lambda: u64,
    /// Per-shard partition info and accumulated work time.
    stats: Vec<ShardStats>,
    offered: f64,
    nodes: usize,
}

impl ShardedNetwork {
    /// Build a sharded simulation for `cfg` (shard count from
    /// [`SimConfig::shards`](crate::SimConfig), `0` = auto-detect) at
    /// offered load `load` with deterministic `seed`. Results do not depend
    /// on the shard count; wall-clock time does.
    pub fn new(cfg: SimConfig, load: f64, seed: u64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let topo = cfg.topology.build();
        Ok(Self::build(cfg, load, seed, topo))
    }

    /// Like [`ShardedNetwork::new`] with a pre-built topology (shared, not
    /// rebuilt per shard or per sweep point).
    pub fn with_topology(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::build(cfg, load, seed, topo))
    }

    fn build(cfg: SimConfig, load: f64, seed: u64, topo: Arc<dyn Topology>) -> Self {
        let nr = topo.num_routers();
        let n = resolve_shards(cfg.shards, nr);
        let ranges = partition_topology(topo.as_ref(), n);
        let mut owner = vec![0u32; nr];
        for (s, range) in ranges.iter().enumerate() {
            for r in range.clone() {
                owner[r as usize] = s as u32;
            }
        }
        let lambda = epoch_lambda(&cfg, topo.as_ref(), &owner, n);
        let stats = ranges
            .iter()
            .map(|range| ShardStats {
                routers: range.clone(),
                weight: range.clone().map(|r| topo.router_weight(r as usize)).sum(),
                work_seconds: 0.0,
            })
            .collect();
        let nodes = topo.num_nodes();
        let fabric = Arc::new(Fabric::new(&cfg, topo, seed));
        let shards = ranges
            .into_iter()
            .map(|range| {
                Network::new_shard(cfg.clone(), load, seed, Arc::clone(&fabric), Some(range))
            })
            .collect();
        ShardedNetwork {
            shards,
            owner,
            lambda,
            stats,
            offered: load,
            nodes,
        }
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current cycle (all shards advance in lockstep).
    pub fn cycle(&self) -> u64 {
        self.shards[0].cycle()
    }

    /// Whether the watchdog flagged a deadlock (identically on all shards).
    pub fn deadlocked(&self) -> bool {
        self.shards[0].deadlocked()
    }

    /// Packets currently in queues, buffers or links, network-wide.
    pub fn packets_in_flight(&self) -> i64 {
        self.shards.iter().map(|s| s.packets_in_flight()).sum()
    }

    /// The epoch cap λ: the most cycles any shard may free-run between
    /// boundary exchanges (`u64::MAX` when no link crosses the partition).
    pub fn epoch_cycles(&self) -> u64 {
        self.lambda
    }

    /// Per-shard partition info and accumulated work time (see
    /// [`ShardStats`]).
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Run to completion and aggregate the result (exact counter merge —
    /// bit-identical to the single-engine run).
    pub fn run(&mut self) -> SimResult {
        let cfg = self.shards[0].config();
        let (warmup, measure) = (cfg.warmup, cfg.measure);
        self.advance(warmup + measure, false);
        let cycles = self.cycle().saturating_sub(warmup).min(measure);
        let mut merged = self.merged_metrics();
        merged.cycles = cycles;
        SimResult::from_metrics(&merged, self.offered, self.nodes)
    }

    /// Mute the traffic generators and step until every in-flight packet
    /// (including staged replies) is consumed, `max_cycles` elapse, or the
    /// watchdog fires. Returns the packets still pending — the sharded
    /// counterpart of [`Network::drain`]'s conservation check.
    pub fn drain(&mut self, max_cycles: u64) -> i64 {
        for shard in &mut self.shards {
            shard.begin_drain();
        }
        let end = self.cycle().saturating_add(max_cycles);
        self.advance(end, true)
    }

    fn merged_metrics(&self) -> Metrics {
        let mut merged = self.shards[0].metrics().clone();
        for shard in &self.shards[1..] {
            merged.absorb(shard.metrics());
        }
        merged
    }

    /// Drive all shards to cycle `end` (or drain completion / deadlock),
    /// one worker thread per shard, two barriers per epoch. Returns the
    /// drain verdict (pending packets) in drain mode, 0 otherwise.
    fn advance(&mut self, end: u64, draining: bool) -> i64 {
        let shards = self.shards.len();
        let ex = Exchange::new(shards);
        let owner = &self.owner;
        let lambda = self.lambda;
        std::thread::scope(|scope| {
            for (s, net) in self.shards.iter_mut().enumerate() {
                let ex = &ex;
                scope.spawn(move || {
                    if draining {
                        let pending = drain_worker(net, s, owner, ex, end);
                        if s == 0 {
                            ex.pending.store(pending, Ordering::Relaxed);
                        }
                    } else {
                        run_worker(net, s, owner, ex, end, lambda);
                    }
                });
            }
        });
        for (s, stat) in self.stats.iter_mut().enumerate() {
            stat.work_seconds += ex.work_nanos[s].load(Ordering::Relaxed) as f64 * 1e-9;
        }
        ex.pending.load(Ordering::Relaxed)
    }
}

/// Route an epoch's outbox into the per-destination inboxes. Events are
/// tagged `(source shard, emission sequence)` so receivers can sort into
/// the canonical order; board publishes broadcast to every other shard.
fn dispatch(
    net: &mut Network,
    s: usize,
    owner: &[u32],
    ex: &Exchange,
    batches: &mut [Vec<(u32, u32, BoundaryEvent)>],
) {
    let mut out = net.take_outbox();
    for (seq, ev) in out.drain(..).enumerate() {
        let seq = seq as u32;
        if ev.dst == u32::MAX {
            let BoundaryPayload::Board {
                group,
                local,
                port,
                class,
                sat,
            } = ev.payload
            else {
                unreachable!("only board publishes broadcast");
            };
            for (d, batch) in batches.iter_mut().enumerate() {
                if d != s {
                    batch.push((
                        s as u32,
                        seq,
                        BoundaryEvent {
                            at: ev.at,
                            lid: ev.lid,
                            dst: u32::MAX,
                            payload: BoundaryPayload::Board {
                                group,
                                local,
                                port,
                                class,
                                sat,
                            },
                        },
                    ));
                }
            }
        } else {
            let d = owner[ev.dst as usize] as usize;
            debug_assert_ne!(d, s, "boundary event addressed to its own shard");
            batches[d].push((s as u32, seq, ev));
        }
    }
    net.put_outbox(out);
    for (d, batch) in batches.iter_mut().enumerate() {
        if !batch.is_empty() {
            ex.inboxes[d].lock().expect("inbox poisoned").append(batch);
        }
    }
}

/// Sort this shard's inbox into the canonical (cycle, link, source, seq)
/// order and apply it, then complete cycle `now` (the epoch's last) with
/// the global reductions. Returns the globals so the next epoch's length
/// can be computed identically on every shard.
fn absorb_and_finish(net: &mut Network, s: usize, ex: &Exchange, now: u64) -> (i64, u64) {
    let mut inbox = std::mem::take(&mut *ex.inboxes[s].lock().expect("inbox poisoned"));
    inbox.sort_by_key(|&(src, seq, ref ev)| (ev.at, ev.lid, src, seq));
    for (_, _, ev) in inbox.drain(..) {
        net.apply_boundary(now, ev);
    }
    // Give the buffer back for reuse; only this shard touches its inbox
    // between the two barriers.
    *ex.inboxes[s].lock().expect("inbox poisoned") = inbox;
    let g_if = ex.global_in_flight();
    let g_prog = ex.global_progress();
    net.finish_cycle_shard(now, g_if, g_prog);
    (g_if, g_prog)
}

fn run_worker(net: &mut Network, s: usize, owner: &[u32], ex: &Exchange, end: u64, lambda: u64) {
    let mut batches: Vec<Vec<(u32, u32, BoundaryEvent)>> =
        (0..ex.inboxes.len()).map(|_| Vec::new()).collect();
    let watchdog = net.config().watchdog;
    let mut work = Duration::ZERO;
    // Globals from the previous epoch's reduction — exact on entry (a
    // fresh network has nothing in flight and no progress recorded), and
    // identical on every shard, so all workers agree on every epoch
    // length and barrier participation stays consistent.
    let mut g_if: i64 = 0;
    let mut g_prog: u64 = 0;
    loop {
        let now = net.cycle();
        if now >= end || net.deadlocked() {
            break;
        }
        let e = epoch_len(now, end, lambda, g_if, g_prog, watchdog);
        let last = now + e - 1;
        let t = Instant::now();
        net.step_epoch_shard(now, e);
        dispatch(net, s, owner, ex, &mut batches);
        ex.in_flight[s].store(net.packets_in_flight(), Ordering::Relaxed);
        ex.progress[s].store(net.last_progress(), Ordering::Relaxed);
        work += t.elapsed();
        ex.barrier.wait();
        let t = Instant::now();
        (g_if, g_prog) = absorb_and_finish(net, s, ex, last);
        work += t.elapsed();
        ex.barrier.wait();
    }
    ex.work_nanos[s].fetch_add(work.as_nanos() as u64, Ordering::Relaxed);
}

/// Drain loop: per-cycle epochs (the stop predicate is evaluated every
/// cycle, mirroring [`Network::drain`]) plus the conservation check.
/// Staged replies are only counted once the network itself is empty,
/// using the *global* in-flight total from the previous cycle's reduction
/// so every shard evaluates the same predicate.
fn drain_worker(net: &mut Network, s: usize, owner: &[u32], ex: &Exchange, end: u64) -> i64 {
    let mut batches: Vec<Vec<(u32, u32, BoundaryEvent)>> =
        (0..ex.inboxes.len()).map(|_| Vec::new()).collect();
    let mut work = Duration::ZERO;
    ex.in_flight[s].store(net.packets_in_flight(), Ordering::Relaxed);
    ex.barrier.wait();
    let mut g_if = ex.global_in_flight();
    let pending = loop {
        let now = net.cycle();
        let staged = if g_if > 0 { 0 } else { net.staged_pending() };
        ex.staged[s].store(staged, Ordering::Relaxed);
        ex.barrier.wait();
        let staged_total: i64 = ex.staged.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        let pending = g_if + staged_total;
        if pending == 0 || now >= end || net.deadlocked() {
            break pending;
        }
        let t = Instant::now();
        net.step_epoch_shard(now, 1);
        dispatch(net, s, owner, ex, &mut batches);
        ex.in_flight[s].store(net.packets_in_flight(), Ordering::Relaxed);
        ex.progress[s].store(net.last_progress(), Ordering::Relaxed);
        work += t.elapsed();
        ex.barrier.wait();
        let t = Instant::now();
        (g_if, _) = absorb_and_finish(net, s, ex, now);
        work += t.elapsed();
        ex.barrier.wait();
    };
    ex.work_nanos[s].fetch_add(work.as_nanos() as u64, Ordering::Relaxed);
    pending
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let ranges = partition(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let ranges = partition(4, 4);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..4]);
        let ranges = partition(7, 1);
        assert_eq!(ranges, vec![0..7]);
    }

    #[test]
    fn resolve_clamps_to_router_count() {
        assert_eq!(resolve_shards(8, 3), 3);
        assert_eq!(resolve_shards(2, 100), 2);
        assert_eq!(resolve_shards(1, 1), 1);
        assert!(resolve_shards(0, 1_000_000) >= 1);
    }

    #[test]
    fn resolve_auto_detects_and_clamps() {
        // Auto mode (0) must yield something in [1, routers] regardless of
        // the host's core count.
        for routers in [1, 2, 3, 1_000_000] {
            let n = resolve_shards(0, routers);
            assert!(n >= 1 && n <= routers, "auto gave {n} for {routers}");
        }
        // Clamp floor: zero routers still resolves to one shard.
        assert_eq!(resolve_shards(0, 0), 1);
        assert_eq!(resolve_shards(5, 0), 1);
    }

    #[test]
    fn balanced_units_is_minmax_and_exact() {
        // Exactly k non-empty contiguous segments covering all units.
        let w = [5, 5, 1, 1];
        let r = balanced_units(&w, 3);
        assert_eq!(r, vec![0..1, 1..2, 2..4]);
        // Forced closes keep every remaining segment non-empty.
        let r = balanced_units(&[1, 1, 10], 3);
        assert_eq!(r, vec![0..1, 1..2, 2..3]);
        // Uniform weights reduce to near-equal counts.
        let r = balanced_units(&[2; 10], 4);
        let max = r.iter().map(|s| s.len()).max().unwrap();
        assert!(max <= 3);
        assert_eq!(r.iter().map(|s| s.len()).sum::<usize>(), 10);
        // Single segment swallows everything.
        assert_eq!(balanced_units(&[3, 4, 5], 1), vec![0..3]);
    }

    #[test]
    fn shards_share_one_fabric_and_hold_state_for_owned_routers_only() {
        use flexvc_core::RoutingMode;
        use flexvc_traffic::{Pattern, Workload};
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        );
        cfg.shards = 2;
        let net = ShardedNetwork::new(cfg, 0.3, 1).unwrap();
        let fabric = net.shards[0].fabric();
        assert!(Arc::ptr_eq(fabric, net.shards[1].fabric()));
        let (pp, n_in) = (fabric.pp, fabric.n_in);
        for (s, shard) in net.shards.iter().enumerate() {
            let owned = net.stats[s].routers.clone();
            // Links received across the cut: transmitter foreign, far end
            // owned.
            let cut_rx = fabric
                .adj
                .iter()
                .enumerate()
                .filter(|&(lid, far)| {
                    !owned.contains(&((lid / pp) as u32))
                        && far.is_some_and(|(r, _)| owned.contains(&r))
                })
                .count();
            assert!(cut_rx > 0, "shard {s} should receive on some cut link");
            assert_eq!(
                shard.table_sizes(),
                (
                    owned.len() * n_in,
                    owned.len() * pp + cut_rx,
                    owned.len() * pp
                ),
                "shard {s} tables: inputs, outputs + replicas, credit mirrors"
            );
        }
    }

    #[test]
    fn epoch_len_respects_caps() {
        // λ dominates when the window and watchdog allow.
        assert_eq!(epoch_len(0, 1_000, 100, 0, 0, 10_000), 100);
        // The run window truncates the last epoch.
        assert_eq!(epoch_len(950, 1_000, 100, 0, 0, 10_000), 50);
        // Stale progress with packets in flight shrinks the epoch...
        assert_eq!(epoch_len(10_000, 20_000, 100, 5, 500, 10_000), 100);
        assert_eq!(epoch_len(10_450, 20_000, 100, 5, 500, 10_000), 52);
        // ...down to per-cycle exchange near the firing threshold.
        assert_eq!(epoch_len(10_502, 20_000, 100, 5, 500, 10_000), 1);
        assert_eq!(epoch_len(15_000, 20_000, 100, 5, 500, 10_000), 1);
        // Idle networks only need the injection-progress bound.
        assert_eq!(epoch_len(15_000, 20_000, u64::MAX, 0, 500, 100), 102);
    }
}
