//! Allocation instrument: engine storage follows the traffic.
//!
//! A counting `#[global_allocator]` (per-thread counters, so the harness's
//! parallel test threads do not disturb each other) measures what
//! `Network::with_topology` and a run allocate:
//!
//! * build-time allocations are O(1) in the network size — a handful of
//!   flat record tables, not a heap block per queue;
//! * build-time bytes grow no faster than the network's unified inputs
//!   (router ports + nodes);
//! * queues grow on demand and never past the worst-case bound the engine
//!   used to preallocate;
//! * a run's peak heap growth follows the packets alive at once (one
//!   arena slot each), not the high-water marks of every queue they
//!   passed through.
//! * once warm, a run makes far fewer allocations than it delivers
//!   packets: routes, class paths and plans are inline sequences.
//!
//! Run in release mode on CI as well: the bound checks at the growth sites
//! are `debug_assert`s, the capacity probe works in both.

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_sim::prelude::*;
use flexvc_traffic::{Pattern, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialized and destructor-free: reading them inside the
    // allocator neither allocates nor registers a TLS destructor.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated and not yet freed, and their running maximum. A
    // reallocation counts its old and new blocks together at its peak: a
    // moving `realloc` holds both while it copies.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Add `delta` live bytes after a moment at which `transient` more were
/// held.
fn track(transient: usize, delta: i64) {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(p.get().max(live + transient as i64)));
    LIVE.with(|l| l.set(live + delta));
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// plain thread-local cells touched by no one else.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        track(layout.size(), layout.size() as i64);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + new_size.saturating_sub(layout.size()) as u64));
        track(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, bytes requested)` made by `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (COUNT.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, COUNT.with(Cell::get) - c0, BYTES.with(Cell::get) - b0)
}

/// `f`'s result and how far this thread's live heap rose above its level
/// at the call, at the peak.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let live0 = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live0));
    let out = f();
    (out, (PEAK.with(Cell::get) - live0) as u64)
}

/// The paper's FlexVC 4/2 MIN/UN configuration on a balanced Dragonfly.
fn flexvc_4_2(h: usize) -> SimConfig {
    SimConfig::dragonfly_baseline(h, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
        .with_flexvc(Arrangement::dragonfly(4, 2))
}

/// Allocations and bytes of one engine build (topology construction
/// excluded), and the network's size in unified inputs: network ports plus
/// attached nodes, summed over routers — what per-port state scales with
/// (the radix grows with `h`, so routers + nodes alone undercounts it).
fn build_cost(h: usize) -> (u64, u64, usize) {
    let cfg = flexvc_4_2(h);
    let topo = cfg.topology.build();
    let inputs = topo.num_routers() * topo.num_ports() + topo.num_nodes();
    let (net, count, bytes) = counted(|| Network::with_topology(cfg, 0.3, 1, topo).unwrap());
    drop(net);
    (count, bytes, inputs)
}

#[test]
fn build_allocates_a_handful_of_tables_not_a_block_per_queue() {
    // The parent commit (`Vec<Router>` → `Vec<BufferBank>` → nine `Vec`s
    // per bank, every queue preallocated) made 3,350 allocations building
    // this h = 2 network, 16,226 at h = 3 and 809,127 at h = 8. One
    // twentieth of the h = 2 figure is the pin; the flat tables need 21.
    const PARENT_H2_BUILD_ALLOCATIONS: u64 = 3_350;
    let (count, ..) = build_cost(2);
    assert!(
        count <= PARENT_H2_BUILD_ALLOCATIONS / 20,
        "h = 2 build made {count} allocations"
    );
}

#[test]
fn build_cost_scales_no_faster_than_ports_plus_nodes() {
    let (c2, b2, inputs2) = build_cost(2);
    let (c3, b3, inputs3) = build_cost(3);
    let scale = inputs3 as f64 / inputs2 as f64;
    assert!(scale > 2.0, "h = 3 should be a much larger network");
    // Counts are per table, not per router: growing the network adds none
    // (a little slack for amortized `Vec` growth inside the constructors).
    assert!(c3 <= c2 + 8, "allocations grew {c2} -> {c3}");
    assert!(
        (b3 as f64) <= b2 as f64 * scale,
        "bytes grew {b2} -> {b3}, network {scale:.2}x"
    );
}

#[test]
fn saturated_queues_grow_on_demand_and_stay_within_their_bounds() {
    let mut cfg = flexvc_4_2(2);
    cfg.warmup = 1_000;
    cfg.measure = 3_000;
    cfg.watchdog = 8_000;
    let mut net = Network::new(cfg, 1.0, 3).unwrap();
    assert_eq!(net.queue_overshoot(), 0);
    // Debug builds assert the bound at every growth site while this runs.
    let (result, count, _) = counted(|| net.run());
    assert!(!result.deadlocked);
    assert!(result.accepted > 0.5, "accepted {}", result.accepted);
    assert!(count > 0, "saturation must have grown some queue");
    assert_eq!(
        net.queue_overshoot(),
        0,
        "a queue outgrew its worst-case bound"
    );
}

#[test]
fn sub_saturation_heap_growth_tracks_live_packets() {
    // The parent commit queued whole packets in every bank slab, output
    // queue and link pipeline, each growing to its own high-water mark:
    // this h = 3 run at 0.3 load grew the heap by 1,835,120 bytes at its
    // peak. Queues of 32-bit handles into one packet arena need less than
    // half of that.
    const PARENT_H3_RUN_PEAK_GROWTH: u64 = 1_835_120;
    let mut cfg = flexvc_4_2(3);
    cfg.warmup = 1_000;
    cfg.measure = 3_000;
    let mut net = Network::new(cfg, 0.3, 3).unwrap();
    let (result, growth) = peak_growth(|| net.run());
    assert!(!result.deadlocked);
    assert!(result.accepted > 0.25, "accepted {}", result.accepted);
    assert!(
        growth <= PARENT_H3_RUN_PEAK_GROWTH / 2,
        "peak heap growth {growth} B"
    );
}

#[test]
fn warm_route_planning_allocates_nothing_per_packet() {
    // Every injection, detour and lookahead asks the topology for a path;
    // paths are inline, so once queues have grown to the traffic a run
    // allocates next to nothing per packet. The parent commit returned
    // routes as `Vec`s and made 3,028–19,658 allocations over the measured
    // 2,000 cycles of these points (5,572 for MIN, 13,715 for Dragonfly+
    // UGAL-G), one to nine per packet delivered; inline paths make 57–377.
    let dragonfly = |routing, pattern| {
        SimConfig::dragonfly_baseline(2, routing, Workload::oblivious(pattern))
            .with_flexvc(Arrangement::dragonfly(4, 2))
    };
    let points = [
        ("MIN", dragonfly(RoutingMode::Min, Pattern::Uniform)),
        ("VAL", dragonfly(RoutingMode::Valiant, Pattern::Uniform)),
        ("UGAL-L", dragonfly(RoutingMode::UgalL, Pattern::adv1())),
        ("PB", dragonfly(RoutingMode::Piggyback, Pattern::adv1())),
        ("PAR", dragonfly(RoutingMode::Par, Pattern::adv1())),
        (
            "Dragonfly+ UGAL-G",
            SimConfig::dfplus_baseline(
                2,
                2,
                2,
                5,
                RoutingMode::UgalG,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
        (
            "HyperX DAL",
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Dal,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(4)),
        ),
    ];
    for (name, mut cfg) in points {
        cfg.warmup = 2_000;
        cfg.measure = 2_000;
        let nodes = cfg.topology.num_nodes() as f64;
        let (cycles, size) = (cfg.measure as f64, cfg.packet_size as f64);
        let mut net = Network::new(cfg, 0.3, 3).unwrap();
        for _ in 0..2_000 {
            net.step();
        }
        let (result, count, _) = counted(|| net.run());
        assert!(!result.deadlocked, "{name}");
        let delivered = (result.accepted * nodes * cycles / size).round() as u64;
        assert!(delivered > 1_000, "{name}: {delivered} packets delivered");
        assert!(
            count * 10 < delivered,
            "{name}: {count} allocations for {delivered} packets delivered"
        );
    }
}
