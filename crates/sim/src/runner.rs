//! Experiment runner: parallel execution of independent simulation points.
//!
//! Every `(configuration, load, seed)` triple is an independent simulation;
//! [`run_points`] fans the triples out over `std::thread::scope` workers
//! (the calling thread is one of them), streams per-point completions to a
//! callback, which the `flexvc` CLI uses for live progress output, and
//! returns results in input order, so experiment harnesses stay
//! deterministic regardless of scheduling. Each simulation runs through
//! the engine driver, [`ShardedNetwork`].
//!
//! All entry points are non-panicking: configurations are validated up
//! front and failures surface as [`RunError::InvalidPoint`] with the index
//! of the offending point.

use crate::config::SimConfig;
use crate::error::{ConfigError, RunError};
use crate::metrics::SimResult;
use crate::shard::ShardedNetwork;
use flexvc_topology::Topology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One simulation point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Full configuration.
    pub cfg: SimConfig,
    /// Offered load in phits/node/cycle.
    pub load: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A completed point, reported through the progress callback of
/// [`run_points`].
#[derive(Debug, Clone, Copy)]
pub struct PointProgress<'a> {
    /// Index of the point in the submitted batch.
    pub index: usize,
    /// Points completed so far (including this one).
    pub completed: usize,
    /// Total points in the batch.
    pub total: usize,
    /// The point's result.
    pub result: &'a SimResult,
}

/// Run one simulation to completion through the engine driver
/// (`sim::shard`): `cfg.shards` worker threads, each stepping cache-sized
/// blocks of its routers; results are bit-identical for every count.
pub fn run_one(cfg: &SimConfig, load: f64, seed: u64) -> Result<SimResult, ConfigError> {
    cfg.validate_point(load)?;
    run_prebuilt(cfg, load, seed, cfg.topology.build())
}

/// [`run_one`] against a pre-built (shared) topology instance. The config
/// must already be validated.
fn run_prebuilt(
    cfg: &SimConfig,
    load: f64,
    seed: u64,
    topo: Arc<dyn Topology>,
) -> Result<SimResult, ConfigError> {
    Ok(ShardedNetwork::with_topology(cfg.clone(), load, seed, topo)?.run())
}

/// Run a batch of points on `threads` workers, the calling thread being
/// one of them, invoking `progress` as each point completes. Completions
/// arrive in scheduling order; the returned vector is always in input
/// order. Invalid configurations are reported as
/// [`RunError::InvalidPoint`] before any simulation starts.
pub fn run_points<F>(
    points: &[Point],
    threads: usize,
    progress: F,
) -> Result<Vec<SimResult>, RunError>
where
    F: Fn(PointProgress<'_>) + Sync,
{
    for (index, p) in points.iter().enumerate() {
        p.cfg
            .validate_point(p.load)
            .map_err(|source| RunError::InvalidPoint { index, source })?;
    }
    // Build each distinct topology once and share it across every point
    // with an equal spec: sweep batches are typically hundreds of
    // (load, seed) points over a handful of topologies, and the adjacency
    // construction is pure — rebuilding it per point was measurable
    // rebuild overhead at paper scale. Pre-resolved before the workers
    // spawn so the cache needs no locking.
    let mut built: Vec<(&crate::config::TopologySpec, Arc<dyn Topology>)> = Vec::new();
    let topos: Vec<Arc<dyn Topology>> = points
        .iter()
        .map(
            |p| match built.iter().find(|(spec, _)| **spec == p.cfg.topology) {
                Some((_, topo)) => Arc::clone(topo),
                None => {
                    let topo = p.cfg.topology.build();
                    built.push((&p.cfg.topology, Arc::clone(&topo)));
                    topo
                }
            },
        )
        .collect();
    let n = points.len();
    let completed = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<SimResult, RunError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            break;
        }
        let p = &points[index];
        let r = run_prebuilt(&p.cfg, p.load, p.seed, Arc::clone(&topos[index]))
            .map_err(|source| RunError::InvalidPoint { index, source });
        if let Ok(result) = &r {
            progress(PointProgress {
                index,
                completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                total: n,
                result,
            });
        }
        *slots[index].lock().expect("result slot poisoned") = Some(r);
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Run `seeds` repetitions of one configuration/load on
/// [`default_threads`] workers and average. At a load of 1.0 this is the
/// paper's "maximum throughput" metric of Figs. 6 and 11.
pub fn run_averaged(cfg: &SimConfig, load: f64, seeds: &[u64]) -> Result<SimResult, RunError> {
    if seeds.is_empty() {
        return Err(RunError::EmptyBatch);
    }
    let points: Vec<Point> = seeds
        .iter()
        .map(|&seed| Point {
            cfg: cfg.clone(),
            load,
            seed,
        })
        .collect();
    let results = run_points(&points, default_threads(), |_| {})?;
    Ok(SimResult::average(&results))
}

/// The host's available parallelism, or 1 where it cannot be read: the
/// default worker count of batches and of `shards = 0`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_core::{Arrangement, RoutingMode, VcPolicy};
    use flexvc_traffic::{Pattern, Workload};
    use std::sync::atomic::AtomicUsize;

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
        .test_scale();
        cfg.warmup = 500;
        cfg.measure = 1000;
        cfg
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let cfg = tiny_cfg();
        let points: Vec<Point> = (0..4)
            .map(|i| Point {
                cfg: cfg.clone(),
                load: 0.2,
                seed: i,
            })
            .collect();
        let seq = run_points(&points, 1, |_| {}).unwrap();
        let par = run_points(&points, 4, |_| {}).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.latency, b.latency);
        }
    }

    /// The shard count must be invisible in batch results: the same points
    /// on two worker threads (`shards = 2`) and on the calling thread
    /// (`shards = 1`) produce identical numbers, sequential or parallel.
    #[test]
    fn sharded_points_agree_with_single_engine() {
        let single: Vec<Point> = (0..2)
            .map(|i| Point {
                cfg: tiny_cfg(),
                load: 0.3,
                seed: i,
            })
            .collect();
        let mut sharded = single.clone();
        for p in &mut sharded {
            p.cfg.shards = 2;
        }
        let a = run_points(&single, 1, |_| {}).unwrap();
        let b = run_points(&sharded, 2, |_| {}).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.latency_hist.count(), y.latency_hist.count());
        }
    }

    /// Shared topologies (the per-batch cache) must not change results
    /// relative to per-point construction via `run_one`.
    #[test]
    fn topology_reuse_is_behavior_neutral() {
        let cfg = tiny_cfg();
        let points: Vec<Point> = (0..3)
            .map(|i| Point {
                cfg: cfg.clone(),
                load: 0.25,
                seed: i,
            })
            .collect();
        let batch = run_points(&points, 1, |_| {}).unwrap();
        for (p, r) in points.iter().zip(&batch) {
            let fresh = run_one(&p.cfg, p.load, p.seed).unwrap();
            assert_eq!(fresh.accepted, r.accepted);
            assert_eq!(fresh.latency, r.latency);
        }
    }

    #[test]
    fn invalid_point_reports_index_instead_of_panicking() {
        let good = tiny_cfg();
        let mut bad = tiny_cfg();
        // FlexVC VAL on 2/1: unsupported — must surface as a typed error.
        bad.policy = VcPolicy::FlexVc;
        bad.routing = RoutingMode::Valiant;
        bad.arrangement = Arrangement::dragonfly_min();
        let points = [
            Point {
                cfg: good,
                load: 0.2,
                seed: 1,
            },
            Point {
                cfg: bad,
                load: 0.2,
                seed: 1,
            },
        ];
        let err = run_points(&points, 2, |_| {}).unwrap_err();
        match err {
            RunError::InvalidPoint { index, source } => {
                assert_eq!(index, 1);
                assert!(matches!(source, ConfigError::InsufficientVcs { .. }));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    /// Loads outside [0, 1] — NaN included — and zero injection VCs are
    /// typed errors at every entry point, not panics in the generators or
    /// the injection round-robin.
    #[test]
    fn out_of_range_loads_and_zero_injection_vcs_are_rejected() {
        use crate::{Network, ShardedNetwork};
        let cfg = tiny_cfg();
        let topo = cfg.topology.build();
        for load in [1.5, -0.1, f64::NAN] {
            let is_load = |e: ConfigError| matches!(e, ConfigError::InvalidLoad { load: l } if l.to_bits() == load.to_bits());
            assert!(is_load(Network::new(cfg.clone(), load, 1).err().unwrap()));
            let shared = Arc::clone(&topo);
            assert!(is_load(
                Network::with_topology(cfg.clone(), load, 1, shared)
                    .err()
                    .unwrap()
            ));
            assert!(is_load(
                ShardedNetwork::new(cfg.clone(), load, 1).err().unwrap()
            ));
            let shared = Arc::clone(&topo);
            assert!(is_load(
                ShardedNetwork::with_topology(cfg.clone(), load, 1, shared)
                    .err()
                    .unwrap()
            ));
            assert!(is_load(
                ShardedNetwork::with_block_budget(cfg.clone(), load, 1, 0)
                    .err()
                    .unwrap()
            ));
            assert!(is_load(run_one(&cfg, load, 1).unwrap_err()));
            let points = [
                Point {
                    cfg: cfg.clone(),
                    load: 0.2,
                    seed: 1,
                },
                Point {
                    cfg: cfg.clone(),
                    load,
                    seed: 1,
                },
            ];
            match run_points(&points, 1, |_| {}).unwrap_err() {
                RunError::InvalidPoint { index: 1, source } => assert!(is_load(source)),
                other => panic!("unexpected error: {other}"),
            }
        }
        let mut no_lanes = tiny_cfg();
        no_lanes.injection_vcs = 0;
        assert_eq!(
            Network::new(no_lanes, 0.2, 1).err(),
            Some(ConfigError::NonPositive {
                what: "injection_vcs"
            })
        );
    }

    #[test]
    fn empty_seed_batches_are_errors() {
        let cfg = tiny_cfg();
        assert_eq!(
            run_averaged(&cfg, 0.2, &[]).unwrap_err(),
            RunError::EmptyBatch
        );
    }

    #[test]
    fn progress_reports_every_point() {
        let cfg = tiny_cfg();
        let points: Vec<Point> = (0..3)
            .map(|i| Point {
                cfg: cfg.clone(),
                load: 0.2,
                seed: i,
            })
            .collect();
        let seen = AtomicUsize::new(0);
        let max_completed = AtomicUsize::new(0);
        let results = run_points(&points, 2, |p| {
            seen.fetch_add(1, Ordering::Relaxed);
            max_completed.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, 3);
            assert!(p.index < 3);
            assert!(p.result.accepted >= 0.0);
        })
        .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(seen.load(Ordering::Relaxed), 3);
        assert_eq!(max_completed.load(Ordering::Relaxed), 3);
    }
}
