//! The engine driver: deterministic sharded, cache-blocked execution.
//!
//! A [`ShardedNetwork`] cuts the routers of one simulation twice — distinct
//! from the [`crate::runner`]'s *per-point* threading, which parallelizes
//! independent simulations:
//!
//! * into one contiguous range per **worker** thread (`cfg.shards` of them;
//!   [`partition_topology`]) — how much of the host is used;
//! * and each worker's range into **blocks** ([`partition_blocks`]) whose
//!   weight fits [`BLOCK_BUDGET`] — how much of the network is stepped at
//!   once. A worker steps its blocks one after the other, each for a whole
//!   epoch, so a block's state stays cache-resident across the epoch's
//!   cycles instead of being streamed through the cache once per phase per
//!   cycle (temporal cache blocking).
//!
//! Each block is a [`Network`] instance that owns a contiguous router
//! range: it allocates record tables, timing wheels, worklists, buffer
//! banks and credit mirrors for those routers only (plus one link replica
//! per cut link it receives on), while the immutable topology-derived
//! tables are built once into a `Fabric` that every block shares behind an
//! `Arc`. Router, node and link ids stay global in packets and boundary
//! events. One worker with one block is the plain single engine under this
//! driver; one worker runs on the calling thread.
//!
//! # The boundary exchange
//!
//! Within a cycle every phase is router-local (see the engine's module
//! docs: iteration order across routers is independent by construction).
//! The only effects that cross a block cut are:
//!
//! * **packet transmits** whose receiving router is foreign — the packet
//!   leaves the sender's arena in an [`InFlight`] record for the
//!   receiver's link replica (and arena), arriving at `now + latency`;
//! * **credit returns** whose upstream router is foreign — the credit
//!   arrives at `t_c + latency`, strictly beyond the current cycle;
//! * **Piggyback board publishes** — replicated to every block's board
//!   copy, becoming visible only at the next board tick.
//!
//! All three take effect strictly *after* the cycle that emits them, so
//! blocks can run a whole cycle without communicating, then exchange:
//!
//! ```text
//!   worker 0:  [b0: t..t+E)[b1: t..t+E)──mail──┐          ┌─absorb b0,b1──finish┐
//!   worker 1:  [b2: t..t+E)[b3: t..t+E)──mail──┼─barrier──┼─absorb b2,b3──finish┼─barrier─▶
//!   worker 2:  [b4: t..t+E)[b5: t..t+E)──mail──┘          └─absorb b4,b5──finish┘
//! ```
//!
//! 1. every worker free-runs each of its blocks for an **epoch** of `E`
//!    cycles, sorting the block's boundary events by destination block
//!    into the worker's row of mail cells;
//! 2. barrier — then every block absorbs the cells addressed to it, rows
//!    in worker order: the canonical **(source block, emission sequence)**
//!    order, whatever the worker count or thread timing;
//! 3. every worker computes the same global reductions (total packets in
//!    flight, latest progress cycle), completes the epoch's last cycle on
//!    each block (board tick, watchdog, `t += 1`), and a second barrier
//!    releases the next epoch.
//!
//! # Epoch batching: why E > 1 is exact
//!
//! Packet and credit arrivals crossing a cut are delayed by at least the
//! latency of the cut link they traverse. Let **λ** be the minimum latency
//! over all links cut by the block partition
//! ([`Topology::cut_link_classes`]). An event emitted at cycle
//! `c ∈ [t, t+E)` lands at `≥ c + λ ≥ t + E` whenever `E ≤ λ` — i.e. **no
//! event can arrive inside the epoch that emits it**, and applying the
//! whole batch at the epoch-end exchange is indistinguishable from applying
//! each event at its emission cycle. The argument never asks which thread
//! steps a block, so a cut between two blocks of one worker is exact for
//! the same reason a cut between workers is. Two caps shorten an epoch
//! below λ:
//!
//! * **boards** — Piggyback publishes are written into the boards' `next`
//!   buffer *without a timestamp* and become visible at the next swap, so
//!   a foreign publish applied late could miss its swap. Whenever the
//!   routing mode uses boards across more than one block, epochs are
//!   forced to one cycle (the exact per-cycle exchange; a single cut-free
//!   block has only local publishes and keeps long epochs, ticking its
//!   boards every cycle). A one-cycle epoch has nothing to keep cached, so
//!   board users are never cut into more blocks than workers.
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
//! [`partition_topology`] aligns worker boundaries with the topology's
//! natural unit ([`Topology::partition_unit`]): Dragonfly/Dragonfly+
//! groups, HyperX last-dimension hyperplanes. Aligned cuts sever only
//! inter-group (global) links, which both shrinks the cut and raises λ to
//! the global-link latency — an order of magnitude more free-running per
//! barrier under the default `local=10 / global=100` latencies. Units are
//! weighted by [`cumulative_weights`] (ports + attached terminals, so
//! host-free Dragonfly+ spines don't skew the balance) and packed into
//! contiguous runs minimizing the maximum worker weight exactly. With
//! fewer units than workers the partitioner falls back to the
//! count-balanced router split ([`partition`]). [`partition_blocks`] then
//! fills blocks by the same weights, cutting at unit boundaries only (so
//! blocks keep the same λ) and only where a worker's range outgrows
//! [`BLOCK_BUDGET`]: a range that fits is one block.
//!
//! # Why results are bit-identical to the single engine
//!
//! The mail order makes the exchange deterministic, and the *application
//! order* of boundary events is behavior-neutral on top of that:
//!
//! * each directed link has exactly one transmitting router and one
//!   receiving router, so all packet events for a link come from one
//!   block and are applied in emission order — the order the receiving
//!   link queue would have seen locally;
//! * all credit events for a link originate from the single downstream
//!   input port feeding it, whose serialization makes departure cycles
//!   strictly monotonic — same argument;
//! * board publishes within a cycle target distinct cells (one router
//!   publishes each cell) and overwrite, so they commute.
//!
//! Since every cross-block effect lands at a future cycle (beyond its
//! epoch) and intra-cycle state never crosses a cut, the blocked schedule
//! is a reordering of *commuting* operations of the single-engine
//! schedule: counters, RNG draw sequences and arbiter states evolve
//! identically for any worker count, any block size and any epoch length,
//! including 1. `tests/engine_equivalence.rs` asserts this exactly
//! (`SimResult` JSON equality against [`Network::run`]) over every recorded
//! golden at worker counts {1, 2, 3, 4, 5}, and again with every block
//! forced down to one unit.

use crate::config::SimConfig;
use crate::engine::Network;
use crate::error::ConfigError;
use crate::fabric::Fabric;
use crate::link::{CreditMsg, InFlight};
use crate::metrics::{Metrics, SimResult};
use flexvc_core::MessageClass;
use flexvc_topology::Topology;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A packet in flight toward a foreign router's input port. It carries the
/// packet itself: the sending block moves it out of its arena at transmit,
/// the receiving block moves it into its own at the exchange.
#[derive(Debug)]
pub(crate) struct PacketEvent {
    /// Flat id of the link the packet travels on.
    pub lid: u32,
    /// Receiving router (its owner is the destination block).
    pub dst: u32,
    /// The in-flight link record with the packet (its head arrival is the
    /// effect cycle).
    pub flight: InFlight,
    /// The packet's flow tag under flow workloads, moved from the sending
    /// arena's side table to the receiving one's with the packet.
    pub flow: Option<flexvc_traffic::FlowTag>,
}

/// A credit returning to a foreign router's credit mirror.
#[derive(Debug)]
pub(crate) struct CreditEvent {
    /// Flat id of the link whose downstream space is released.
    pub lid: u32,
    /// Upstream router (its owner is the destination block).
    pub dst: u32,
    /// The credit, stamped with its arrival cycle.
    pub msg: CreditMsg,
}

/// A Piggyback saturation-flag publish, replicated to every other block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoardEvent {
    /// Group whose board is written.
    pub group: u32,
    /// Publishing router's index within the group.
    pub local: u32,
    /// Sense-port index of the flag.
    pub port: u32,
    /// Message class of the flag.
    pub class: MessageClass,
    /// The saturation flag.
    pub sat: bool,
}

/// Effects crossing a block boundary, one queue per kind, each in emission
/// order: what a block emits during an epoch, and (as a mail cell) what
/// one worker's blocks addressed to one destination block. Queues are
/// per kind because the kinds touch disjoint state, so their relative
/// order is immaterial — and a credit is an eighth the size of a packet.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub packets: Vec<PacketEvent>,
    pub credits: Vec<CreditEvent>,
    pub boards: Vec<BoardEvent>,
}

/// The outbox behind a mail cell of the row a worker holds for writing
/// (no locking: the row lock already excludes every reader).
fn cell(c: &mut Mutex<Outbox>) -> &mut Outbox {
    c.get_mut().expect("mail cell poisoned")
}

impl Outbox {
    fn clear(&mut self) {
        self.packets.clear();
        self.credits.clear();
        self.boards.clear();
    }
}

/// Weight (see [`cumulative_weights`]) one block may hold: a block's
/// tables, queues and packets all scale with its ports and terminals, and
/// this unit, which also balances the workers, does not move with the
/// per-VC width. An h = 8 Dragonfly group weighs 496, so blocks hold 3
/// groups (any budget in [1,488, 1,984) gives 3), at h = 6 and h = 4 they
/// hold 5 and 12, and a whole h = 3 Dragonfly (1,254) is one block. On one
/// worker at h = 8, one group per block stepped 590 cycles/s, three 560,
/// six 450, twelve 350, the unblocked engine 220; an h = 3 Dragonfly
/// split in two loses a tenth, so a range that fits is left whole
/// (DESIGN.md §5).
pub const BLOCK_BUDGET: u64 = 1_536;

/// Resolve a configured shard count: `0` auto-detects from the host's
/// available parallelism ([`default_threads`](crate::runner::default_threads));
/// any request is clamped to the router count (a shard must own at least
/// one router).
pub fn resolve_shards(requested: usize, routers: usize) -> usize {
    let n = if requested == 0 {
        crate::runner::default_threads()
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

/// The partition cost model: [`Topology::router_weight`] (ports +
/// attached terminals) summed along router ids. `w[r]` weighs routers
/// `0..r`, so a range weighs `w[end] - w[start]`. Worker ranges are
/// balanced by it and blocks are filled by it.
pub fn cumulative_weights(topo: &dyn Topology) -> Vec<u64> {
    let mut w = vec![0];
    for r in 0..topo.num_routers() {
        w.push(w[r] + topo.router_weight(r));
    }
    w
}

/// Topology-aware shard partition: contiguous router ranges whose
/// boundaries land on [`Topology::partition_unit`] multiples (group /
/// plane boundaries, so no intra-group local link crosses a shard cut),
/// balanced by weight (`w`: the [`cumulative_weights`] of `topo`) rather
/// than router count. Falls back to the count-balanced [`partition`] when
/// the topology offers no alignment or has fewer units than shards.
/// Deterministic in its inputs, like [`partition`].
pub fn partition_topology(topo: &dyn Topology, w: &[u64], shards: usize) -> Vec<Range<u32>> {
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
        .map(|u| w[(u + 1) * unit] - w[u * unit])
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

/// Cut a worker's router range into blocks of at most `budget` weight
/// (`w`: [`cumulative_weights`]), cutting only at multiples of `unit` (so
/// a block cut severs the same link classes as a worker cut) and never
/// below one unit: blocks are filled greedily, and a single unit heavier
/// than the budget stays whole. A range that fits is returned as one
/// block.
pub fn partition_blocks(w: &[u64], unit: usize, range: Range<u32>, budget: u64) -> Vec<Range<u32>> {
    let unit = unit.max(1) as u32;
    let mut blocks = Vec::new();
    let mut start = range.start;
    let mut cut = (start / unit + 1) * unit;
    while cut < range.end {
        let next = (cut + unit).min(range.end);
        if w[next as usize] - w[start as usize] > budget {
            blocks.push(start..cut);
            start = cut;
        }
        cut = next;
    }
    blocks.push(start..range.end);
    blocks
}

/// Epoch length cap λ for a block partition: the minimum latency over cut
/// links, the hard floor below which no cross-block packet or credit can
/// arrive. Board-using routing modes force per-cycle exchange (publishes
/// are not time-keyed — see the module docs); a cut-free partition (one
/// block) leaves the epoch bounded only by the run window and watchdog
/// headroom.
fn epoch_lambda(cfg: &SimConfig, topo: &dyn Topology, owner: &[u32], blocks: usize) -> u64 {
    if blocks <= 1 {
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
/// worker, so all workers compute the same length.
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

/// State the workers share, kept for the life of the simulation. All slot
/// accesses are ordered by the barrier (a store before a `wait`
/// happens-before every load after it), so `Relaxed` atomics suffice.
struct Exchange {
    /// Router -> owning block.
    owner: Vec<u32>,
    /// Epoch cap λ (minimum cut-link latency; see [`epoch_lambda`]).
    lambda: u64,
    /// Mail, `[source worker][destination block]`: a worker holds its row
    /// for writing while it steps, every worker reads every row while it
    /// absorbs, locking only the cells of its own blocks (whose packets it
    /// moves out); the barriers keep the two apart.
    mail: Vec<RwLock<Vec<Mutex<Outbox>>>>,
    /// Per-worker packets-in-flight contribution (signed: a block ejecting
    /// packets injected elsewhere counts negative).
    in_flight: Vec<AtomicI64>,
    /// Per-worker latest-progress cycle.
    progress: Vec<AtomicU64>,
    /// Per-worker staged-reply count (drain mode only).
    staged: Vec<AtomicI64>,
    /// Two waits per epoch: after dispatch, after completion.
    barrier: Barrier,
}

impl Exchange {
    /// Wait for every worker; a lone worker has nobody to wait for.
    fn sync(&self) {
        if self.mail.len() > 1 {
            self.barrier.wait();
        }
    }
}

/// Per-worker execution statistics (machine timing and the partition —
/// deliberately kept out of [`SimResult`], whose contents are
/// shard-invariant).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Contiguous router range this worker owns.
    pub routers: Range<u32>,
    /// Partition weight of the range (ports + terminals; see
    /// [`Topology::router_weight`]).
    pub weight: u64,
    /// The blocks the range is stepped in, in router order (see
    /// [`partition_blocks`]); one block = the whole range.
    pub blocks: Vec<Range<u32>>,
    /// Wall-clock seconds this worker spent doing work (stepping,
    /// dispatching, absorbing) across all `run`/`drain` calls — barrier
    /// wait time excluded. `max / mean` across workers is the load
    /// imbalance.
    pub work_seconds: f64,
}

/// Boundary events delivered by the exchange, by kind (a board publish
/// counts once per block it is replicated to). A function of the block
/// partition and the simulated traffic only — not of the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCounts {
    /// Packets transmitted across a block cut.
    pub packets: u64,
    /// Credits returned across a block cut.
    pub credits: u64,
    /// Piggyback board publishes replicated to another block.
    pub boards: u64,
}

/// One worker thread's share of the simulation.
struct Worker {
    /// Index of the worker's first block; it owns `first .. first +
    /// blocks.len()`.
    first: usize,
    blocks: Vec<Network>,
    /// The outbox buffer lent to whichever block is stepping.
    outbox: Outbox,
    /// Global reductions of the last exchange (packets in flight, latest
    /// progress cycle): exact, and identical on every worker, so all
    /// workers agree on every epoch length and stop predicate and barrier
    /// participation stays consistent. A fresh network has nothing in
    /// flight and no progress recorded.
    in_flight: i64,
    progress: u64,
    /// Epochs run (the same on every worker).
    epochs: u64,
    /// Events this worker's blocks emitted.
    events: BoundaryCounts,
}

impl Worker {
    /// Drive this worker's blocks to cycle `end`, or until the watchdog
    /// fires, or — when `draining`, in per-cycle epochs mirroring
    /// [`Network::drain`] — until nothing is pending. Returns the packets
    /// pending (in flight + staged) as of the last stop check.
    fn advance(
        &mut self,
        w: usize,
        stat: &mut ShardStats,
        ex: &Exchange,
        end: u64,
        draining: bool,
    ) -> i64 {
        let watchdog = self.blocks[0].config().watchdog;
        let mut work = Duration::ZERO;
        let pending = loop {
            let now = self.blocks[0].cycle();
            let mut pending = self.in_flight;
            if draining {
                // Staging queues only matter once the network itself is
                // empty, so the O(nodes) scan runs rarely; `in_flight` is
                // global, so every worker evaluates the same predicate.
                let staged = if self.in_flight > 0 {
                    0
                } else {
                    self.blocks.iter().map(Network::staged_pending).sum()
                };
                ex.staged[w].store(staged, Ordering::Relaxed);
                ex.sync();
                pending += ex
                    .staged
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed))
                    .sum::<i64>();
            }
            if (draining && pending == 0) || now >= end || self.blocks[0].deadlocked() {
                break pending;
            }
            let len = if draining {
                1
            } else {
                epoch_len(now, end, ex.lambda, self.in_flight, self.progress, watchdog)
            };
            let t = Instant::now();
            self.step_epoch(w, ex, now, len);
            work += t.elapsed();
            ex.sync();
            let t = Instant::now();
            self.finish_epoch(ex, now + len - 1);
            work += t.elapsed();
            ex.sync();
        };
        stat.work_seconds += work.as_secs_f64();
        pending
    }

    /// Free-run every block for `len` cycles from `now`, one block after
    /// the other, routing each block's boundary events into this worker's
    /// mail row, and publish the worker's share of the global reductions.
    fn step_epoch(&mut self, w: usize, ex: &Exchange, now: u64, len: u64) {
        let mut row = ex.mail[w].write().expect("mail row poisoned");
        row.iter_mut().for_each(|c| cell(c).clear());
        let (mut in_flight, mut progress) = (0, 0);
        for (i, net) in self.blocks.iter_mut().enumerate() {
            net.swap_outbox(&mut self.outbox);
            net.step_epoch_shard(now, len);
            net.swap_outbox(&mut self.outbox);
            let s = self.first + i;
            let out = &mut self.outbox;
            self.events.packets += out.packets.len() as u64;
            self.events.credits += out.credits.len() as u64;
            self.events.boards += (out.boards.len() * (row.len() - 1)) as u64;
            for ev in out.packets.drain(..) {
                let d = ex.owner[ev.dst as usize] as usize;
                debug_assert_ne!(d, s, "boundary packet addressed to its own block");
                cell(&mut row[d]).packets.push(ev);
            }
            for ev in out.credits.drain(..) {
                let d = ex.owner[ev.dst as usize] as usize;
                debug_assert_ne!(d, s, "boundary credit addressed to its own block");
                cell(&mut row[d]).credits.push(ev);
            }
            for ev in out.boards.drain(..) {
                for (d, c) in row.iter_mut().enumerate() {
                    if d != s {
                        cell(c).boards.push(ev);
                    }
                }
            }
            in_flight += net.packets_in_flight();
            progress = progress.max(net.last_progress());
        }
        ex.in_flight[w].store(in_flight, Ordering::Relaxed);
        ex.progress[w].store(progress, Ordering::Relaxed);
        self.epochs += 1;
    }

    /// After the barrier: every block absorbs its mail — rows in worker
    /// order, which with each row in (block, emission) order is the
    /// canonical (source block, sequence) order — and completes cycle
    /// `last` (the epoch's last) with the global reductions.
    fn finish_epoch(&mut self, ex: &Exchange, last: u64) {
        self.in_flight = ex.in_flight.iter().map(|a| a.load(Ordering::Relaxed)).sum();
        self.progress = ex
            .progress
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        for (i, net) in self.blocks.iter_mut().enumerate() {
            for row in &ex.mail {
                let row = row.read().expect("mail row poisoned");
                let mut mail = row[self.first + i].lock().expect("mail cell poisoned");
                net.absorb(last, &mut mail);
            }
            net.finish_cycle(last, self.in_flight, self.progress);
        }
    }
}

/// A simulation partitioned across worker threads and cache-sized blocks,
/// bit-identical to the single-engine [`Network`] for any worker count and
/// block size (see the module docs).
pub struct ShardedNetwork {
    workers: Vec<Worker>,
    ex: Exchange,
    /// Per-worker partition info and accumulated work time.
    stats: Vec<ShardStats>,
    offered: f64,
    nodes: usize,
}

impl ShardedNetwork {
    /// Build a sharded simulation for `cfg` (worker count from
    /// [`SimConfig::shards`](crate::SimConfig), `0` = auto-detect) at
    /// offered load `load` with deterministic `seed`. Results do not depend
    /// on the worker count; wall-clock time does.
    pub fn new(cfg: SimConfig, load: f64, seed: u64) -> Result<Self, ConfigError> {
        Self::with_block_budget(cfg, load, seed, BLOCK_BUDGET)
    }

    /// Like [`ShardedNetwork::new`] with a pre-built topology (shared, not
    /// rebuilt per block or per sweep point).
    pub fn with_topology(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
    ) -> Result<Self, ConfigError> {
        cfg.validate_point(load)?;
        Ok(Self::build(cfg, load, seed, topo, BLOCK_BUDGET, None))
    }

    /// [`ShardedNetwork::new`] with another block budget than
    /// [`BLOCK_BUDGET`] — for the tests that show blocks are unobservable
    /// (`0` forces one block per partition unit).
    #[doc(hidden)]
    pub fn with_block_budget(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        budget: u64,
    ) -> Result<Self, ConfigError> {
        cfg.validate_point(load)?;
        let topo = cfg.topology.build();
        Ok(Self::build(cfg, load, seed, topo, budget, None))
    }

    /// [`ShardedNetwork::new`] with every block at per-VC width `width`
    /// instead of the narrowest (tests: results do not depend on the
    /// width).
    #[cfg(test)]
    pub(crate) fn at_width(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        width: usize,
    ) -> Result<Self, ConfigError> {
        cfg.validate_point(load)?;
        let topo = cfg.topology.build();
        Ok(Self::build(
            cfg,
            load,
            seed,
            topo,
            BLOCK_BUDGET,
            Some(width),
        ))
    }

    /// The driver over `topo` (`cfg` and `load` are validated), its blocks
    /// at per-VC `width`, or at the narrowest width when `None`.
    fn build(
        cfg: SimConfig,
        load: f64,
        seed: u64,
        topo: Arc<dyn Topology>,
        budget: u64,
        width: Option<usize>,
    ) -> Self {
        let nr = topo.num_routers();
        let n = resolve_shards(cfg.shards, nr);
        let fabric = Arc::new(Fabric::new(&cfg, Arc::clone(&topo), seed));
        // Board users exchange every cycle: nothing stays cached across a
        // one-cycle epoch, so more blocks would only add exchange work.
        let budget = if cfg.routing.uses_boards() {
            u64::MAX
        } else {
            budget
        };
        let width = width.unwrap_or_else(|| Network::width(&fabric));
        let weights = cumulative_weights(topo.as_ref());
        let mut owner = vec![0u32; nr];
        let mut workers = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        let mut first = 0;
        for range in partition_topology(topo.as_ref(), &weights, n) {
            let blocks = partition_blocks(&weights, topo.partition_unit(), range.clone(), budget);
            for (i, block) in blocks.iter().enumerate() {
                owner[block.start as usize..block.end as usize].fill((first + i) as u32);
            }
            workers.push(Worker {
                first,
                blocks: blocks
                    .iter()
                    .map(|b| {
                        let fabric = Arc::clone(&fabric);
                        let owned = Some(b.clone());
                        Network::new_shard(cfg.clone(), load, seed, fabric, owned, width)
                    })
                    .collect(),
                outbox: Outbox::default(),
                in_flight: 0,
                progress: 0,
                epochs: 0,
                events: BoundaryCounts::default(),
            });
            first += blocks.len();
            stats.push(ShardStats {
                weight: weights[range.end as usize] - weights[range.start as usize],
                routers: range,
                blocks,
                work_seconds: 0.0,
            });
        }
        let cells = || (0..first).map(|_| Mutex::default()).collect();
        let ex = Exchange {
            lambda: epoch_lambda(&cfg, topo.as_ref(), &owner, first),
            owner,
            mail: (0..n).map(|_| RwLock::new(cells())).collect(),
            in_flight: (0..n).map(|_| AtomicI64::new(0)).collect(),
            progress: (0..n).map(|_| AtomicU64::new(0)).collect(),
            staged: (0..n).map(|_| AtomicI64::new(0)).collect(),
            barrier: Barrier::new(n),
        };
        ShardedNetwork {
            workers,
            ex,
            stats,
            offered: load,
            nodes: topo.num_nodes(),
        }
    }

    fn blocks(&self) -> impl Iterator<Item = &Network> {
        self.workers.iter().flat_map(|w| &w.blocks)
    }

    /// Current cycle (all blocks advance in lockstep).
    pub fn cycle(&self) -> u64 {
        self.workers[0].blocks[0].cycle()
    }

    /// Whether the watchdog flagged a deadlock (identically on all blocks).
    pub fn deadlocked(&self) -> bool {
        self.workers[0].blocks[0].deadlocked()
    }

    /// Packets currently in queues, buffers or links, network-wide.
    pub fn packets_in_flight(&self) -> i64 {
        self.blocks().map(Network::packets_in_flight).sum()
    }

    /// The epoch cap λ: the most cycles any block may free-run between
    /// boundary exchanges (`u64::MAX` when no link crosses the partition).
    pub fn epoch_cycles(&self) -> u64 {
        self.ex.lambda
    }

    /// Per-worker partition info and accumulated work time (see
    /// [`ShardStats`]).
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Epochs run so far, over all `run`/`drain` calls.
    pub fn epochs(&self) -> u64 {
        self.workers[0].epochs
    }

    /// Boundary events exchanged so far, over all `run`/`drain` calls.
    pub fn boundary_events(&self) -> BoundaryCounts {
        let mut total = BoundaryCounts::default();
        for w in &self.workers {
            total.packets += w.events.packets;
            total.credits += w.events.credits;
            total.boards += w.events.boards;
        }
        total
    }

    /// Run to completion and aggregate the result (exact counter merge —
    /// bit-identical to the single-engine run).
    pub fn run(&mut self) -> SimResult {
        let cfg = self.workers[0].blocks[0].config();
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
        for worker in &mut self.workers {
            worker.blocks.iter_mut().for_each(Network::begin_drain);
        }
        let end = self.cycle().saturating_add(max_cycles);
        self.advance(end, true)
    }

    fn merged_metrics(&self) -> Metrics {
        let mut blocks = self.blocks();
        let mut merged = blocks.next().expect("a block").metrics().clone();
        for block in blocks {
            merged.absorb(block.metrics());
        }
        merged
    }

    /// Drive all workers to cycle `end` (or drain completion / deadlock):
    /// the first on the calling thread, one spawned thread for each of the
    /// others, two barriers per epoch. Returns the packets pending at the
    /// stop (every worker computes the same).
    fn advance(&mut self, end: u64, draining: bool) -> i64 {
        let ex = &self.ex;
        let mut crew = self.workers.iter_mut().zip(&mut self.stats).enumerate();
        let (_, (lead, lead_stat)) = crew.next().expect("at least one worker");
        std::thread::scope(|scope| {
            for (w, (worker, stat)) in crew {
                scope.spawn(move || worker.advance(w, stat, ex, end, draining));
            }
            lead.advance(0, lead_stat, ex, end, draining)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use flexvc_core::{Arrangement, RoutingMode};
    use flexvc_traffic::{FlowSpec, Pattern, SizeDist, Workload};

    /// Packet conservation through the arenas: after a saturated run, a
    /// drained single engine and every block of a drained two-worker,
    /// one-unit-block driver hold zero live packet slots — with replies
    /// (packets created at the destination) and with flows (packets
    /// carrying flow tags), whose packets cross block cuts both ways.
    #[test]
    fn drained_arenas_hold_no_packets() {
        let replies = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::reactive(Pattern::Uniform),
        )
        .with_flexvc(Arrangement::dragonfly_rr((3, 2), (2, 1)));
        let flows = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::flows(FlowSpec::uniform(SizeDist::mice_elephants())),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2));
        for (name, mut cfg) in [("replies", replies), ("flows", flows)] {
            (cfg.warmup, cfg.measure) = (300, 700);
            let mut net = Network::new(cfg.clone(), 1.0, 3).unwrap();
            assert!(!net.run().deadlocked, "{name}: deadlocked");
            assert!(net.live_packets() > 0, "{name}: not saturated");
            assert_eq!(net.drain(20_000), 0, "{name}: packets left");
            assert_eq!(net.live_packets(), 0, "{name}: live arena slots");

            cfg.shards = 2;
            let mut net = ShardedNetwork::with_block_budget(cfg, 1.0, 3, 0).unwrap();
            assert!(!net.run().deadlocked, "{name}: sharded run deadlocked");
            assert!(net.boundary_events().packets > 0, "{name}: nothing crossed");
            assert!(net.blocks().map(Network::live_packets).sum::<usize>() > 0);
            assert_eq!(net.drain(20_000), 0, "{name}: sharded packets left");
            for (b, block) in net.blocks().enumerate() {
                assert_eq!(block.live_packets(), 0, "{name}: block {b} holds packets");
            }
        }
    }

    /// The per-VC width changes storage, never a result: every golden
    /// point, rerun at each width wider than the one it is built at, on
    /// the single engine and on the two-worker driver, serializes to the
    /// same `SimResult` JSON as the single engine at its own width.
    #[test]
    fn cross_width_goldens_are_bit_identical() {
        let mut natural = std::collections::BTreeSet::new();
        let mut wider_runs = 0;
        for (name, cfg, load, seed) in crate::equivalence::points() {
            let mut net = Network::new(cfg.clone(), load, seed).unwrap();
            let width = net.vc_width();
            natural.insert(width);
            let reference = flexvc_serde::to_json(&net.run());
            for wider in [8, 16].into_iter().filter(|&w| w > width) {
                let mut single = Network::at_width(cfg.clone(), load, seed, wider).unwrap();
                let mut sharded_cfg = cfg.clone();
                sharded_cfg.shards = 2;
                let mut sharded = ShardedNetwork::at_width(sharded_cfg, load, seed, wider).unwrap();
                assert!(sharded.blocks().all(|b| b.vc_width() == wider));
                for (driver, result) in [
                    ("single engine", single.run()),
                    ("2 workers", sharded.run()),
                ] {
                    assert_eq!(
                        reference,
                        flexvc_serde::to_json(&result),
                        "{name}: {driver} at width {wider} diverged from width {width}"
                    );
                }
                wider_runs += 1;
            }
        }
        // The goldens are built at both narrow widths, and every one of
        // them reruns at 16.
        assert_eq!(natural.into_iter().collect::<Vec<_>>(), [4, 8]);
        assert!(wider_runs > crate::equivalence::points().len());
    }

    /// The 16-wide engine under load: a saturated FlexVC configuration
    /// with 16 local VCs, which only the widest engine holds, drains the
    /// single engine and every block of a two-worker, one-unit-block
    /// driver to zero live packets.
    #[test]
    fn cross_width_sixteen_vc_flexvc_drains_every_arena() {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .with_flexvc(Arrangement::dragonfly(16, 8));
        (cfg.warmup, cfg.measure) = (300, 700);
        let mut net = Network::new(cfg.clone(), 1.0, 3).unwrap();
        assert_eq!(net.vc_width(), 16);
        assert!(!net.run().deadlocked);
        assert!(net.live_packets() > 0, "not saturated");
        assert_eq!(net.drain(20_000), 0);
        assert_eq!(net.live_packets(), 0);

        cfg.shards = 2;
        let mut net = ShardedNetwork::with_block_budget(cfg, 1.0, 3, 0).unwrap();
        assert!(net.blocks().all(|b| b.vc_width() == 16));
        assert!(!net.run().deadlocked);
        assert!(net.blocks().map(Network::live_packets).sum::<usize>() > 0);
        assert_eq!(net.drain(20_000), 0);
        for (b, block) in net.blocks().enumerate() {
            assert_eq!(block.live_packets(), 0, "block {b} holds packets");
        }
    }

    /// The first point of the repo benchmark's `paper_h8` (h = 8, FlexVC 4/2).
    fn paper_h8() -> SimConfig {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmark/workloads/paper_h8.toml"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let root = flexvc_serde::toml::parse(&text).unwrap();
        let points: Vec<flexvc_serde::Value> = root.field("points").unwrap();
        points[0].as_map().unwrap().field("cfg").unwrap()
    }

    /// At `paper_h8`'s configuration every port fits the 4-wide engine,
    /// whose record tables take at most 10.5 KB per router (18,292 B when
    /// all per-VC state was 16 wide).
    #[test]
    fn paper_h8_router_tables_are_four_vcs_wide() {
        let cfg = paper_h8();
        let fabric = Fabric::new(&cfg, cfg.topology.build(), 1);
        assert_eq!(Network::width(&fabric), 4);
        let bytes = crate::engine::Engine::<4>::router_table_bytes(&fabric);
        assert!(bytes <= 10_500, "{bytes} B of record tables per router");
    }

    /// Blocks are cut by partition weight, which does not depend on the
    /// per-VC width: at `paper_h8`'s shape every width gives the same
    /// blocks, 3 whole groups each but a shorter last one per worker.
    #[test]
    fn paper_h8_blocks_are_three_groups_at_every_width() {
        let mut cfg = paper_h8();
        let group = cfg.topology.build().routers_per_group() as u32;
        for (shards, width) in [1, 2].into_iter().flat_map(|n| [(n, 4), (n, 8), (n, 16)]) {
            cfg.shards = shards;
            let net = ShardedNetwork::at_width(cfg.clone(), 0.3, 1, width).unwrap();
            assert_eq!(net.shard_stats().len(), shards);
            for s in net.shard_stats() {
                let r = &s.routers;
                assert_eq!((r.start % group, r.end % group), (0, 0), "{r:?}");
                let three: Vec<_> = (r.start..r.end)
                    .step_by(3 * group as usize)
                    .map(|b| b..(b + 3 * group).min(r.end))
                    .collect();
                assert_eq!(s.blocks, three, "width {width} on {shards} workers");
            }
        }
    }

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
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        );
        cfg.shards = 2;
        let net = ShardedNetwork::new(cfg, 0.3, 1).unwrap();
        let blocks: Vec<&Network> = net.blocks().collect();
        let fabric = blocks[0].fabric();
        assert!(Arc::ptr_eq(fabric, blocks[1].fabric()));
        let (pp, n_in) = (fabric.pp, fabric.n_in);
        for (s, shard) in blocks.iter().enumerate() {
            assert_eq!(net.stats[s].blocks, [net.stats[s].routers.clone()]);
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
    fn blocks_are_cut_greedily_on_unit_multiples() {
        // 2 units of 4 routers fit a budget of 100 at weight 10 a router.
        let w: Vec<u64> = (0..=20).map(|r| 10 * r).collect();
        assert_eq!(
            partition_blocks(&w, 4, 0..20, 100),
            vec![0..8, 8..16, 16..20]
        );
        // A range that fits is one block; so is a lone overweight unit.
        assert_eq!(partition_blocks(&w, 4, 8..20, 120), vec![8..20]);
        assert_eq!(partition_blocks(&w, 4, 4..8, 0), vec![4..8]);
        // No budget at all: one block per unit, partial units at the ends
        // of an unaligned range included.
        assert_eq!(partition_blocks(&w, 4, 2..11, 0), vec![2..4, 4..8, 8..11]);
        // No alignment offered: every router is a unit.
        assert_eq!(partition_blocks(&w, 1, 0..3, 20), vec![0..2, 2..3]);
        // Blocks follow the weights, not the router count: with router
        // weights 1, 1, 1, 1, 9, 9, 9, 9, 1, 1, 1, 1 the heavy middle unit
        // fills its block early.
        let w = [0, 1, 2, 3, 4, 13, 22, 31, 40, 41, 42, 43, 44];
        assert_eq!(partition_blocks(&w, 4, 0..12, 40), vec![0..8, 8..12]);
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
