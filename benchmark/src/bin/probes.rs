//! `flexvc-probes` — the layer probes of a traced run.
//!
//! Times each layer's public functions from outside, fed the workload's
//! own first-kernel configuration (topology, arrangement, routing,
//! traffic, seed), and prints one JSON object: `metrics` (probe name →
//! value) and `spans` (one per probe). Unlike the runner this binary
//! reaches into `sim::bank`, `sim::plan`, `sim::link` and friends, so a
//! refactor of those internals may stop it compiling — without touching
//! the end-to-end numbers, which is why it is a binary of its own.
//!
//! A probe's figure is the median over [`BATCHES`] batches of calls, each
//! batch sized to run for about [`BATCH_S`].

use flexvc::bench::scenario::{render_markdown, run_scenario, Scenario};
use flexvc::core::classify::classify;
use flexvc::core::{
    baseline_vc, flexvc_options, policy::flexvc_options_lookahead, CreditClass, LinkClass,
    MessageClass, RoutingMode, TrafficClass,
};
use flexvc::serde::{json, to_json, toml, Deserialize, Map, Serialize, Value};
use flexvc::sim::arbiter::RrArbiter;
use flexvc::sim::bank::{BufferBank, Occupancy};
use flexvc::sim::link::LinkState;
use flexvc::sim::packet::{Packet, PlannedPath};
use flexvc::sim::plan::{RoutePolicy, SenseView};
use flexvc::sim::sensing::{saturated_flags_into, GroupBoard};
use flexvc::sim::{BufferOrg, SimConfig, SimResult};
use flexvc::topology::Topology;
use flexvc::traffic::flow::random_permutation;
use flexvc::traffic::generator::NodeSpace;
use flexvc::traffic::{FlowPattern, NodeTraffic};
use flexvc_benchmark::defs;
use flexvc_benchmark::run::THREADS;
use flexvc_benchmark::stats::median;
use flexvc_benchmark::trace::Tracer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the figure is their median.
const BATCHES: usize = 9;
/// Target wall time of one batch, seconds.
const BATCH_S: f64 = 0.003;
/// Router pairs a routing probe cycles through.
const PAIRS: usize = 256;
/// Node-cycles of simulated time the short runs behind `serde.result_json`
/// and the runner probes may cost: windows shrink as the network grows, so
/// the h = 8 shape steps a dozen cycles where h = 2 steps hundreds.
const SHORT_RUN_NODE_CYCLES: u64 = 200_000;
/// Node count above which one engine build takes seconds (the h = 8 shape).
const SLOW_BUILD_NODES: usize = 4096;

struct Probes {
    tracer: Tracer,
    metrics: Map,
}

impl Probes {
    /// Time `call` (which receives a running call index) and record the
    /// median seconds per call, scaled by `scale`, under `name`.
    fn per_call(&mut self, name: &'static str, scale: f64, mut call: impl FnMut(usize)) {
        let span = self.tracer.begin(name, None);
        let mut n = 1usize;
        let mut i = 0usize;
        // Size a batch: double until it runs long enough to time.
        loop {
            let t0 = Instant::now();
            for _ in 0..n {
                call(i);
                i = i.wrapping_add(1);
            }
            if t0.elapsed().as_secs_f64() >= BATCH_S || n >= 1 << 26 {
                break;
            }
            n *= 2;
        }
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..n {
                    call(i);
                    i = i.wrapping_add(1);
                }
                t0.elapsed().as_secs_f64() / n as f64
            })
            .collect();
        self.tracer.end(span);
        self.metrics
            .insert(name, (median(&samples) * scale).to_value());
    }

    /// Record a figure measured some other way, under a span of its own.
    fn once<T>(&mut self, name: &'static str, measure: impl FnOnce() -> (f64, T)) -> T {
        let span = self.tracer.begin(name, None);
        let (value, rest) = measure();
        self.tracer.end(span);
        self.metrics.insert(name, value.to_value());
        rest
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

fn packet(id: u64, size: u32) -> Packet {
    Packet {
        id,
        src: 0,
        dst: 1,
        dst_router: 0,
        class: MessageClass::Request,
        tclass: TrafficClass::Bulk,
        size,
        gen_cycle: 0,
        head_arrival: 0,
        tail_arrival: u64::from(size) - 1,
        position: None,
        plan: PlannedPath::empty(),
        min_routed: true,
        derouted: false,
        buffered_class: CreditClass::MinRouted,
        planned: true,
        par_evaluated: false,
        hop_decided: false,
        flex_opts: None,
        opp_blocked: 0,
        hops: 0,
        reverts: 0,
    }
}

/// Input-port occupancy model of the configuration, as the engine builds it.
fn occupancy(cfg: &SimConfig, class: LinkClass) -> Occupancy {
    let vcs = cfg.vcs_for_class(class).max(1);
    match cfg.buffers.organization {
        BufferOrg::Static => Occupancy::new_static(vcs, cfg.vc_capacity(class)),
        BufferOrg::Damq { private_fraction } => {
            let total = cfg.port_capacity(class);
            Occupancy::new_damq(
                vcs,
                total,
                ((f64::from(total) * private_fraction) / vcs as f64).floor() as u32,
            )
        }
    }
}

/// The hop classes a packet of this configuration plans at injection from
/// `src` to `dst` (through `via` when the routing is non-minimal), and the
/// minimal continuation after each hop.
fn planned_path(
    topo: &dyn Topology,
    routing: RoutingMode,
    src: usize,
    via: usize,
    dst: usize,
) -> (Vec<LinkClass>, Vec<Vec<LinkClass>>) {
    let mut hops = if routing.is_nonminimal() {
        let mut r = topo.min_route(src, via);
        r.extend(topo.min_route(via, dst));
        r
    } else {
        topo.min_route(src, dst)
    };
    // A detour through the source or destination can exceed what the
    // arrangement embeds; the engine never plans those, nor do we.
    if hops.len() > 2 * topo.diameter() || hops.is_empty() {
        hops = topo.min_route(src, dst);
    }
    let mut at = src;
    let mut escapes = Vec::with_capacity(hops.len());
    for hop in &hops {
        at = topo
            .neighbor(at, usize::from(hop.port))
            .expect("route follows wired ports")
            .0;
        escapes.push(topo.min_classes(at, dst).to_vec());
    }
    (hops.iter().map(|h| h.class).collect(), escapes)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("flexvc-probes: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let workload = flag("--workload").ok_or("usage: flexvc-probes --workload <name> --seed <n>")?;
    let seed: u64 = flag("--seed")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("--seed: {e}"))?;
    defs::workload(workload).ok_or_else(|| format!("unknown workload {workload}"))?;

    let mut p = Probes {
        tracer: Tracer::new(),
        metrics: Map::new(),
    };
    p.tracer.set_enabled(true);

    // --- serde -----------------------------------------------------------
    let path = defs::workload_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    p.per_call("serde.toml_parse_us", US, |_| {
        black_box(toml::parse(black_box(&text)).expect("workload file parses"));
    });
    let doc = toml::parse(&text).map_err(|e| e.to_string())?;
    let cfg_value = doc
        .get("points")
        .and_then(|pts| pts.as_seq().ok()?.first()?.as_map().ok()?.get("cfg"))
        .cloned()
        .ok_or("workload file has no [[points]] with a cfg")?;
    p.per_call("serde.config_decode_us", US, |_| {
        black_box(SimConfig::from_value(black_box(&cfg_value)).expect("cfg decodes"));
    });
    let scenario: Scenario = defs::decode_scenario(&text, seed)?;
    let first = &scenario.points[0];
    let (cfg, load) = (first.cfg.clone(), first.load);
    cfg.validate().map_err(|e| e.to_string())?;
    let topo = cfg.topology.build();
    let topo: &dyn Topology = topo.as_ref();
    let family = cfg.topology.family();
    let (nr, pp) = (topo.num_routers(), topo.num_ports());
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs: Vec<(usize, usize, usize)> = (0..PAIRS)
        .map(|_| loop {
            let (s, v, d) = (
                rng.gen_range(0..nr),
                topo.valiant_via(rng.gen_range(0..topo.valiant_via_count())),
                rng.gen_range(0..nr),
            );
            if s != d {
                break (s, v, d);
            }
        })
        .collect();

    // --- core ------------------------------------------------------------
    let arr = &cfg.arrangement;
    p.per_call("core.classify_us", US, |_| {
        black_box(classify(
            black_box(family),
            black_box(cfg.routing),
            black_box(arr),
            MessageClass::Request,
        ));
    });
    let paths: Vec<(Vec<LinkClass>, Vec<Vec<LinkClass>>)> = pairs
        .iter()
        .map(|&(s, v, d)| planned_path(topo, cfg.routing, s, v, d))
        .collect();
    p.per_call("core.flexvc_options_ns", NS, |i| {
        let (planned, escapes) = &paths[i % PAIRS];
        black_box(flexvc_options(
            arr,
            MessageClass::Request,
            None,
            planned,
            &escapes[0],
        ));
    });
    let escape_refs: Vec<Vec<&[LinkClass]>> = paths
        .iter()
        .map(|(_, e)| e.iter().map(Vec::as_slice).collect())
        .collect();
    p.per_call("core.flexvc_lookahead_ns", NS, |i| {
        let planned = &paths[i % PAIRS].0;
        black_box(flexvc_options_lookahead(
            arr,
            MessageClass::Request,
            None,
            planned,
            &escape_refs[i % PAIRS],
        ));
    });
    let reference: &[LinkClass] = match family.generic_diameter() {
        None => cfg.routing.dragonfly_reference(),
        Some(d) => cfg.routing.generic_reference(d),
    };
    let slots = reference.len().min(arr.request_len()).max(1);
    p.per_call("core.baseline_vc_ns", NS, |i| {
        black_box(baseline_vc(
            arr,
            MessageClass::Request,
            reference,
            black_box(i % slots),
        ));
    });

    // --- topology ----------------------------------------------------------
    p.per_call("topology.min_route_ns", NS, |i| {
        let (s, _, d) = pairs[i % PAIRS];
        black_box(topo.min_route(s, d));
    });
    let via_count = topo.valiant_via_count();
    p.per_call("topology.via_draw_ns", NS, |i| {
        let (s, _, d) = pairs[i % PAIRS];
        let via = topo.valiant_via(rng.gen_range(0..via_count));
        black_box((topo.min_route(s, via), topo.min_route(via, d)));
    });

    // --- traffic -----------------------------------------------------------
    let nodes = topo.num_nodes();
    let space = NodeSpace {
        num_nodes: nodes,
        nodes_per_group: nodes / topo.num_groups(),
        num_groups: topo.num_groups(),
    };
    let perm = match cfg.workload.flow_spec() {
        Some(spec) if matches!(spec.pattern, FlowPattern::Permutation) => {
            Some(random_permutation(nodes, seed))
        }
        _ => None,
    };
    let gen_load = if cfg.workload.is_reactive() {
        load / 2.0
    } else {
        load
    };
    let mut gens: Vec<NodeTraffic> = (0..nodes)
        .map(|n| {
            NodeTraffic::new(
                cfg.workload,
                n,
                space,
                gen_load,
                cfg.packet_size,
                seed,
                perm.as_ref().map(|t| t[n]),
            )
        })
        .collect();
    p.per_call("traffic.next_ns", NS, |i| {
        black_box(gens[i % nodes].next((i / nodes) as u64));
    });

    // --- sim.plan ----------------------------------------------------------
    let port_class: Vec<LinkClass> = (0..pp).map(|port| topo.port_class(0, port)).collect();
    let adj: Vec<Option<(u32, u16)>> = (0..nr * pp)
        .map(|i| {
            topo.neighbor(i / pp, i % pp)
                .map(|(r, q)| (r as u32, q as u16))
        })
        .collect();
    let globals: Vec<usize> = (0..pp)
        .filter(|&q| port_class[q] == LinkClass::Global)
        .collect();
    let sense_all = globals.is_empty();
    let sense_ports: Vec<usize> = if sense_all {
        (0..pp).collect()
    } else {
        globals
    };
    let out_credit: Vec<Occupancy> = port_class.iter().map(|&c| occupancy(&cfg, c)).collect();
    let mut boards: Vec<GroupBoard> = if cfg.routing.uses_boards() {
        (0..topo.num_groups())
            .map(|_| {
                GroupBoard::new(
                    topo.routers_per_group(),
                    sense_ports.len(),
                    u64::from(cfg.local_latency),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    {
        let sense = SenseView {
            out_credit: &out_credit,
            boards: &boards,
            sense_ports: &sense_ports,
            sense_all,
            min_cred: cfg.sensing.min_cred,
            adj: &adj,
            port_class: &port_class,
        };
        let mut policy = RoutePolicy::new(&cfg);
        p.per_call("sim.plan.plan_injection_ns", NS, |i| {
            let (s, _, d) = pairs[i % PAIRS];
            black_box(policy.plan_injection(topo, &sense, &mut rng, s, d, MessageClass::Request));
        });
    }

    // --- sim.bank ----------------------------------------------------------
    let size = cfg.packet_size;
    let bank_class = port_class[0];
    let vcs = cfg.vcs_for_class(bank_class).max(1);
    let mut bank = BufferBank::with_packet_capacity(
        occupancy(&cfg, bank_class),
        (cfg.port_capacity(bank_class) / size) as usize + 1,
    );
    let mut pkt = Some(packet(0, size));
    p.per_call("sim.bank.push_pop_ns", NS, |i| {
        let vc = i % vcs;
        bank.push(vc, pkt.take().expect("one packet circulates"));
        let out = bank.pop(vc);
        bank.release(vc, out.size, out.buffered_class);
        pkt = Some(out);
    });
    // Probe admission on a half-full port, where the answer is not trivial.
    let mut occ = occupancy(&cfg, bank_class);
    for vc in 0..vcs {
        if vc % 2 == 0 && occ.can_accept(vc, size) {
            occ.add(vc, size, CreditClass::MinRouted);
        }
    }
    p.per_call("sim.bank.can_accept_ns", NS, |i| {
        black_box(occ.can_accept(black_box(i % vcs), size));
    });

    // --- sim.arbiter ---------------------------------------------------------
    let requesters = pp + topo.nodes_per_router();
    let mut arbiter = RrArbiter::new(requesters);
    p.per_call("sim.arbiter.grant_ns", NS, |i| {
        black_box(arbiter.grant(|r| (r + i) % 4 == 0));
    });

    // --- sim.link ------------------------------------------------------------
    let latency = cfg.local_latency;
    let mut link = LinkState::with_capacity((latency / size) as usize + 4);
    let mut pkt = Some(packet(0, size));
    let mut now = 0u64;
    p.per_call("sim.link.packet_roundtrip_ns", NS, |_| {
        link.transmit(now, latency, 0, pkt.take().expect("one packet circulates"));
        now += u64::from(latency);
        pkt = Some(link.pop_arrived(now).expect("head has arrived").packet);
        now += u64::from(size);
    });
    p.per_call("sim.link.credit_roundtrip_ns", NS, |_| {
        link.send_credit(
            now,
            latency,
            0,
            size,
            CreditClass::MinRouted,
            TrafficClass::Bulk,
        );
        now += u64::from(latency);
        black_box(link.pop_credit(now).expect("credit has arrived"));
    });

    // --- sim.sensing -----------------------------------------------------------
    // One router-cycle of the sensing phase: flag its sensed ports against
    // the saturation rule, publish them, tick the board.
    if boards.is_empty() {
        boards.push(GroupBoard::new(
            topo.routers_per_group(),
            sense_ports.len(),
            u64::from(cfg.local_latency),
        ));
    }
    let sensed: Vec<u32> = (0..sense_ports.len() as u32).map(|q| q * size).collect();
    let floor = cfg.sensing.threshold * size;
    let rpg = topo.routers_per_group();
    let mut flags = Vec::new();
    p.per_call("sim.sensing.publish_tick_ns", NS, |i| {
        saturated_flags_into(&sensed, floor, &mut flags);
        for (gp, &sat) in flags.iter().enumerate() {
            boards[0].publish(i % rpg, gp, MessageClass::Request, sat);
        }
        boards[0].tick(i as u64);
    });

    // --- sim.runner, bench.scenario, sim.metrics, serde.result_json -------------
    // A short scenario from the workload's own first points: at most four
    // of them, windows cut to what the network's size affords, and two
    // seeds where one simulation is slow to build, eight where it is not.
    let mut short = scenario.clone();
    short.points.truncate(4);
    let seeds = if nodes > SLOW_BUILD_NODES { 2 } else { 8 };
    short.seeds = (seed..seed + seeds).collect();
    for point in &mut short.points {
        let cycles = (SHORT_RUN_NODE_CYCLES / point.cfg.topology.num_nodes() as u64).clamp(12, 300);
        point.cfg.warmup = point.cfg.warmup.min(cycles / 3);
        point.cfg.measure = point.cfg.measure.min(cycles - cycles / 3);
        point.cfg.shards = 1;
    }
    p.per_call("bench.scenario.validate_us", US, |_| {
        black_box(scenario.validate()).expect("workload scenario validates");
    });
    let sims = short.simulation_count() as f64;
    let timed_run = |threads: usize| {
        let t0 = Instant::now();
        let report = run_scenario(&short, threads, |_| {});
        (t0.elapsed().as_secs_f64(), report)
    };
    // A sweep reuses the pages its first points faulted in; so does this.
    timed_run(THREADS).1.map_err(|e| e.to_string())?;
    let report = p.once("sim.runner.points_per_s", || {
        let (wall, report) = timed_run(THREADS);
        (sims / wall, (wall, report))
    });
    let (wall_threads, report) = (report.0, report.1.map_err(|e| e.to_string())?);
    p.once("sim.runner.thread_scaling", || {
        (timed_run(1).0 / wall_threads, ())
    });
    p.per_call("bench.scenario.render_us", US, |_| {
        black_box((render_markdown(&report), to_json(&report)));
    });
    let results: Vec<SimResult> = report
        .points
        .iter()
        .cycle()
        .take(5)
        .map(|pt| pt.result.clone())
        .collect();
    p.per_call("sim.metrics.average_us", US, |_| {
        black_box(SimResult::average(black_box(&results)));
    });
    p.per_call("serde.result_json_us", US, |_| {
        black_box(to_json(black_box(&results[0])));
    });

    let out = Map::new()
        .with("metrics", Value::Map(p.metrics))
        .with("spans", p.tracer.to_value());
    println!("{}", json::emit(&Value::Map(out)));
    Ok(())
}
