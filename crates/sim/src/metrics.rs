//! Measurement-window statistics and simulation results.

use flexvc_core::{MessageClass, TrafficClass};
use flexvc_traffic::FlowTag;
use std::collections::HashMap;

/// Power-of-two bucketed latency histogram (cycles). Bucket `i` counts
/// latencies in `[2^i, 2^(i+1))`; the last bucket (20) is an *overflow*
/// bucket absorbing everything at `2^20` cycles and above, so the recorded
/// maximum is kept alongside the buckets to bound its contents.
///
/// Each bucket also accumulates the *sum* of its samples, so
/// [`LatencyHistogram::quantile_interp`] can resolve within a bucket (the
/// in-bucket mean) instead of snapping to the power-of-two lower bound.
/// The sums are plain integer accumulators, so shard merges stay exact.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: [u64; 21],
    /// Sum of the samples landing in each bucket.
    sums: [u64; 21],
    count: u64,
    /// Largest recorded sample (0 when empty).
    max: u64,
}

/// Index of the overflow bucket (`[2^20, ∞)`).
const OVERFLOW_BUCKET: usize = 20;

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.max(1).leading_zeros() as usize - 1).min(OVERFLOW_BUCKET);
        self.buckets[b] += 1;
        self.sums[b] += latency;
        self.count += 1;
        self.max = self.max.max(latency);
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))`; bucket 0 also
    /// absorbs latency 0; bucket 20 absorbs everything >= 2^20).
    pub fn buckets(&self) -> &[u64; 21] {
        &self.buckets
    }

    /// Per-bucket sample sums (aligned with [`LatencyHistogram::buckets`]).
    pub fn bucket_sums(&self) -> &[u64; 21] {
        &self.sums
    }

    /// Approximate quantile: the *lower* bound of the bucket containing the
    /// `q`-th sample. The target rank is clamped to `[1, count]` so `q = 0`
    /// resolves to the first non-empty bucket (not an arbitrary constant)
    /// and `q = 1` to the last. A quantile resolving to the *overflow*
    /// bucket reports the recorded maximum instead of the bucket's lower
    /// bound — the bucket is unbounded above, so `2^20` could understate a
    /// tail latency by orders of magnitude.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == OVERFLOW_BUCKET {
                    self.max.max(1u64 << OVERFLOW_BUCKET)
                } else {
                    1u64 << i
                };
            }
        }
        self.max.max(1u64 << OVERFLOW_BUCKET)
    }

    /// Interpolated quantile: resolves *within* the bucket containing the
    /// `q`-th sample by reporting the bucket's sample mean (`sum ÷ count`),
    /// which is exact whenever the bucket holds a single sample and never
    /// off by more than the bucket width otherwise. A bucket whose samples
    /// sum to zero (latency-0 samples, which bucket 0 absorbs) reports its
    /// lower bound, matching [`LatencyHistogram::quantile`]; the overflow
    /// bucket keeps reporting the recorded maximum, since its mean can
    /// still understate an unbounded tail.
    pub fn quantile_interp(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == OVERFLOW_BUCKET {
                    self.max.max(1u64 << OVERFLOW_BUCKET) as f64
                } else if self.sums[i] > 0 {
                    self.sums[i] as f64 / c as f64
                } else {
                    (1u64 << i) as f64
                };
            }
        }
        self.max.max(1u64 << OVERFLOW_BUCKET) as f64
    }

    /// Merge another histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// Mean per-VC occupancy profile of network input ports, per link class
/// (sampled periodically during the measurement window). This is the
/// signal behind the paper's §III-D observation: under adversarial
/// traffic with the baseline policy, minimal traffic occupies only the
/// first VC of each class, so per-VC occupancy identifies the pattern;
/// FlexVC merges flows and flattens the profile.
#[derive(Debug, Clone, Default)]
pub struct VcOccupancyProfile {
    /// Sum of sampled occupancies per (class, vc).
    pub sums: [Vec<u64>; 2],
    /// Number of samples taken.
    pub samples: u64,
    /// Ports contributing per class (for per-port averaging).
    pub ports: [u64; 2],
}

impl VcOccupancyProfile {
    /// Mean phits per port for VC `vc` of `class`.
    pub fn mean(&self, class: flexvc_core::LinkClass, vc: usize) -> f64 {
        let i = class.index();
        let denom = (self.samples * self.ports[i].max(1)) as f64;
        if denom == 0.0 || vc >= self.sums[i].len() {
            return 0.0;
        }
        self.sums[i][vc] as f64 / denom
    }

    /// Per-VC means for a class.
    pub fn means(&self, class: flexvc_core::LinkClass) -> Vec<f64> {
        (0..self.sums[class.index()].len())
            .map(|vc| self.mean(class, vc))
            .collect()
    }
}

/// Flow-completion-time accounting under flow workloads.
///
/// A flow completes when its last packet is consumed; all of a flow's
/// packets are consumed at its (single, latched) destination node, so in a
/// sharded run every flow's accounting lives on exactly one shard and
/// [`Metrics::absorb`] merges the integer accumulators exactly.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Remaining packet count per in-flight measured flow.
    live: HashMap<u64, u32>,
    /// Flows whose last packet was consumed inside the window.
    pub completed: u64,
    /// Sum of flow completion times (cycles).
    pub fct_sum: u64,
    /// Sum of ideal (zero-load) FCTs: serialization time plus unloaded
    /// min-path latency (cycles).
    pub ideal_sum: u64,
    /// Sum of per-flow slowdowns (FCT ÷ ideal zero-load FCT) in integer
    /// units of 1/1000, so shard merging stays exact.
    pub slowdown_milli_sum: u64,
    /// FCT histogram over completed flows.
    pub fct_hist: LatencyHistogram,
    /// FCT histograms per QoS traffic class (mice flows are control,
    /// elephants bulk), indexed by [`TrafficClass::index`].
    pub fct_class_hist: [LatencyHistogram; 2],
}

/// Raw counters accumulated inside the measurement window.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Packets produced by the generators (including dropped ones).
    pub generated_packets: u64,
    /// Phits produced by the generators.
    pub generated_phits: u64,
    /// Packets dropped at the source (injection queue full).
    pub dropped_packets: u64,
    /// Packets consumed, per message class.
    pub consumed_packets: [u64; 2],
    /// Phits consumed, per message class.
    pub consumed_phits: [u64; 2],
    /// Sum of packet latencies (generation → tail consumption), per class.
    pub latency_sum: [u64; 2],
    /// Packets consumed per QoS traffic class
    /// ([`TrafficClass::index`]: control = 0, bulk = 1).
    pub class_packets: [u64; 2],
    /// Phits consumed per QoS traffic class.
    pub class_phits: [u64; 2],
    /// Latency sums per QoS traffic class.
    pub class_latency_sum: [u64; 2],
    /// Latency histograms per QoS traffic class.
    pub class_latency_hist: [LatencyHistogram; 2],
    /// Consumed packets that travelled non-minimally.
    pub misrouted_packets: u64,
    /// Total opportunistic-path reversions among consumed packets.
    pub reverts: u64,
    /// Total hops of consumed packets.
    pub hop_sum: u64,
    /// The watchdog detected a deadlock (no movement with packets stuck).
    pub deadlocked: bool,
    /// Cycles actually simulated in the measurement window.
    pub cycles: u64,
    /// Latency histogram over all consumed packets.
    pub latency_hist: LatencyHistogram,
    /// Sampled per-VC occupancy profile.
    pub vc_profile: VcOccupancyProfile,
    /// Flow-completion-time accounting (flow workloads only).
    pub flows: FlowStats,
}

impl Metrics {
    /// Record a consumed packet.
    #[allow(clippy::too_many_arguments)] // mirrors the packet's fields
    pub fn consume(
        &mut self,
        class: MessageClass,
        tclass: TrafficClass,
        size: u32,
        latency: u64,
        hops: u16,
        min_routed: bool,
        reverts: u16,
    ) {
        let i = class.index();
        self.latency_hist.record(latency);
        self.consumed_packets[i] += 1;
        self.consumed_phits[i] += size as u64;
        self.latency_sum[i] += latency;
        let t = tclass.index();
        self.class_packets[t] += 1;
        self.class_phits[t] += size as u64;
        self.class_latency_sum[t] += latency;
        self.class_latency_hist[t].record(latency);
        self.hop_sum += hops as u64;
        self.reverts += reverts as u64;
        if !min_routed {
            self.misrouted_packets += 1;
        }
    }

    /// Account one consumed packet of a measured flow and report whether it
    /// was the flow's *last* outstanding packet. The caller gates on the
    /// flow's *start* cycle (flow-level windowing), so a flow either has
    /// all of its packets tracked here or none; on `true` the caller must
    /// follow up with [`Metrics::complete_flow`] — the ideal FCT depends on
    /// the topology's unloaded path latency, which metrics cannot see.
    #[must_use]
    pub fn flow_packet_done(&mut self, tag: &FlowTag) -> bool {
        let rem = self.flows.live.entry(tag.id).or_insert(tag.len);
        debug_assert!(*rem > 0);
        *rem -= 1;
        if *rem > 0 {
            return false;
        }
        self.flows.live.remove(&tag.id);
        true
    }

    /// Complete a measured flow. `done` is the cycle the flow's last packet
    /// was consumed; `ideal` is its zero-load FCT (serialization time plus
    /// unloaded min-path latency). The flow's FCT (`done − start`) and
    /// slowdown (FCT ÷ ideal, in exact integer millis) are accumulated.
    pub fn complete_flow(&mut self, tag: &FlowTag, done: u64, ideal: u64, tclass: TrafficClass) {
        let fct = done.saturating_sub(tag.start);
        let ideal = ideal.max(1);
        self.flows.completed += 1;
        self.flows.fct_sum += fct;
        self.flows.ideal_sum += ideal;
        self.flows.slowdown_milli_sum += fct * 1000 / ideal;
        self.flows.fct_hist.record(fct);
        self.flows.fct_class_hist[tclass.index()].record(fct);
    }

    /// Fold another shard's counters into this one. Every field is either a
    /// plain sum, a logical OR (`deadlocked`), or a histogram merge, so
    /// absorbing the per-shard metrics of a sharded run reproduces the
    /// single-engine counters *exactly* — no floating-point involved.
    ///
    /// `cycles` is left untouched (it is a property of the run, not a
    /// per-shard counter) and the occupancy profile's `samples`/`ports` are
    /// replicated per shard (every shard samples at the same cycles and
    /// records the full-network port count), so they are validated equal and
    /// kept rather than summed.
    pub fn absorb(&mut self, other: &Metrics) {
        self.generated_packets += other.generated_packets;
        self.generated_phits += other.generated_phits;
        self.dropped_packets += other.dropped_packets;
        for i in 0..2 {
            self.consumed_packets[i] += other.consumed_packets[i];
            self.consumed_phits[i] += other.consumed_phits[i];
            self.latency_sum[i] += other.latency_sum[i];
            self.class_packets[i] += other.class_packets[i];
            self.class_phits[i] += other.class_phits[i];
            self.class_latency_sum[i] += other.class_latency_sum[i];
            self.class_latency_hist[i].merge(&other.class_latency_hist[i]);
            self.flows.fct_class_hist[i].merge(&other.flows.fct_class_hist[i]);
        }
        self.misrouted_packets += other.misrouted_packets;
        self.reverts += other.reverts;
        self.hop_sum += other.hop_sum;
        self.deadlocked |= other.deadlocked;
        self.latency_hist.merge(&other.latency_hist);
        // A flow's packets all eject on the shard owning its destination
        // node, so the live maps are key-disjoint and the accumulators sum.
        self.flows.completed += other.flows.completed;
        self.flows.fct_sum += other.flows.fct_sum;
        self.flows.ideal_sum += other.flows.ideal_sum;
        self.flows.slowdown_milli_sum += other.flows.slowdown_milli_sum;
        self.flows.fct_hist.merge(&other.flows.fct_hist);
        for (id, rem) in &other.flows.live {
            let prev = self.flows.live.insert(*id, *rem);
            debug_assert!(prev.is_none(), "flow {id} tracked on two shards");
        }
        let prof = &mut self.vc_profile;
        debug_assert_eq!(prof.samples, other.vc_profile.samples);
        for i in 0..2 {
            debug_assert!(
                prof.samples == 0 || prof.ports[i] == other.vc_profile.ports[i],
                "shards must record the full-network port count"
            );
            let theirs = &other.vc_profile.sums[i];
            if prof.sums[i].len() < theirs.len() {
                prof.sums[i].resize(theirs.len(), 0);
            }
            for (a, b) in prof.sums[i].iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }
}

/// Per-QoS-class slice of a simulation result, indexed by
/// [`TrafficClass::index`] (control = 0, bulk = 1). All fields are zero
/// for the classes a single-class run never tags (legacy runs put every
/// packet in `Bulk` via [`TrafficClass::default`]).
#[derive(Debug, Clone, Default)]
pub struct ClassResult {
    /// Accepted load of the class, phits/node/cycle.
    pub accepted: f64,
    /// Mean packet latency of the class (cycles).
    pub latency: f64,
    /// Approximate 99th-percentile packet latency of the class (cycles).
    pub latency_p99: f64,
    /// 99th-percentile flow completion time of the class (cycles; 0
    /// without completed flows of the class).
    pub fct_p99: f64,
    /// Packet latency histogram of the class (merged across seeds like
    /// [`SimResult::latency_hist`]).
    pub latency_hist: LatencyHistogram,
    /// FCT histogram of the class.
    pub fct_hist: LatencyHistogram,
}

/// Aggregated result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Offered load, phits/node/cycle (as configured).
    pub offered: f64,
    /// Accepted load, phits/node/cycle (consumed in the window).
    pub accepted: f64,
    /// Mean packet latency in cycles over all classes.
    pub latency: f64,
    /// Mean request latency (equals `latency` for single-class traffic).
    pub latency_req: f64,
    /// Mean reply latency (0 when not reactive).
    pub latency_rep: f64,
    /// Fraction of consumed packets that were misrouted.
    pub misroute_fraction: f64,
    /// Mean hops per consumed packet.
    pub avg_hops: f64,
    /// Mean opportunistic reversions per consumed packet.
    pub reverts_per_packet: f64,
    /// Fraction of generated packets dropped at the source.
    pub drop_fraction: f64,
    /// Whether the run deadlocked.
    pub deadlocked: bool,
    /// Approximate 99th-percentile latency (cycles).
    pub latency_p99: f64,
    /// Mean per-VC occupancy of local input ports (phits).
    pub local_vc_occupancy: Vec<f64>,
    /// Mean per-VC occupancy of global input ports (phits).
    pub global_vc_occupancy: Vec<f64>,
    /// Latency histogram of the run. Kept on the result so multi-seed
    /// averages can merge distributions and re-derive quantiles (means of
    /// per-seed quantiles are not quantiles).
    pub latency_hist: LatencyHistogram,
    /// Flows completed in the measurement window (0 for synthetic
    /// workloads).
    pub flows_completed: f64,
    /// Mean flow completion time in cycles (0 without completed flows).
    pub fct_mean: f64,
    /// Median flow completion time (cycles).
    pub fct_p50: f64,
    /// 99th-percentile flow completion time (cycles).
    pub fct_p99: f64,
    /// Mean slowdown: FCT ÷ ideal zero-load FCT (serialization time
    /// `len · packet_size` plus the unloaded min-path latency).
    pub slowdown_mean: f64,
    /// FCT histogram of the run (merged for multi-seed quantiles, like
    /// `latency_hist`).
    pub fct_hist: LatencyHistogram,
    /// Per-QoS-class results (control = 0, bulk = 1).
    pub classes: [ClassResult; 2],
}

impl SimResult {
    /// Build from raw metrics.
    pub fn from_metrics(m: &Metrics, offered: f64, nodes: usize) -> Self {
        let cycles = m.cycles.max(1) as f64;
        let packets: u64 = m.consumed_packets.iter().sum();
        let phits: u64 = m.consumed_phits.iter().sum();
        let lat_total: u64 = m.latency_sum.iter().sum();
        let per_class = |i: usize| {
            if m.consumed_packets[i] == 0 {
                0.0
            } else {
                m.latency_sum[i] as f64 / m.consumed_packets[i] as f64
            }
        };
        SimResult {
            offered,
            accepted: phits as f64 / (nodes as f64 * cycles),
            latency: if packets == 0 {
                0.0
            } else {
                lat_total as f64 / packets as f64
            },
            latency_req: per_class(0),
            latency_rep: per_class(1),
            misroute_fraction: if packets == 0 {
                0.0
            } else {
                m.misrouted_packets as f64 / packets as f64
            },
            avg_hops: if packets == 0 {
                0.0
            } else {
                m.hop_sum as f64 / packets as f64
            },
            reverts_per_packet: if packets == 0 {
                0.0
            } else {
                m.reverts as f64 / packets as f64
            },
            drop_fraction: if m.generated_packets == 0 {
                0.0
            } else {
                m.dropped_packets as f64 / m.generated_packets as f64
            },
            deadlocked: m.deadlocked,
            latency_p99: m.latency_hist.quantile(0.99) as f64,
            local_vc_occupancy: m.vc_profile.means(flexvc_core::LinkClass::Local),
            global_vc_occupancy: m.vc_profile.means(flexvc_core::LinkClass::Global),
            latency_hist: m.latency_hist.clone(),
            flows_completed: m.flows.completed as f64,
            fct_mean: if m.flows.completed == 0 {
                0.0
            } else {
                m.flows.fct_sum as f64 / m.flows.completed as f64
            },
            fct_p50: m.flows.fct_hist.quantile_interp(0.5),
            fct_p99: m.flows.fct_hist.quantile_interp(0.99),
            slowdown_mean: if m.flows.completed == 0 {
                0.0
            } else {
                m.flows.slowdown_milli_sum as f64 / (m.flows.completed as f64 * 1000.0)
            },
            fct_hist: m.flows.fct_hist.clone(),
            classes: std::array::from_fn(|t| {
                let hist = m.class_latency_hist[t].clone();
                let fct = m.flows.fct_class_hist[t].clone();
                ClassResult {
                    accepted: m.class_phits[t] as f64 / (nodes as f64 * cycles),
                    latency: if m.class_packets[t] == 0 {
                        0.0
                    } else {
                        m.class_latency_sum[t] as f64 / m.class_packets[t] as f64
                    },
                    latency_p99: hist.quantile(0.99) as f64,
                    fct_p99: fct.quantile_interp(0.99),
                    latency_hist: hist,
                    fct_hist: fct,
                }
            }),
        }
    }

    /// Per-class result slice (control or bulk).
    pub fn class(&self, tclass: TrafficClass) -> &ClassResult {
        &self.classes[tclass.index()]
    }

    /// Average several runs (different seeds) into one result.
    ///
    /// Occupancy vectors are reconciled by index: seeds whose vector is
    /// shorter (e.g. a run that deadlocked before the first occupancy
    /// sample) simply don't contribute to the missing indices instead of
    /// panicking. Every quantile is re-derived from the merged histograms
    /// (an empty one reads 0, as it does in [`SimResult::from_metrics`]),
    /// never averaged across seeds.
    pub fn average(results: &[SimResult]) -> SimResult {
        assert!(!results.is_empty());
        let n = results.len() as f64;
        let mut out = SimResult::default();
        let vec_avg = |get: fn(&SimResult) -> &Vec<f64>| -> Vec<f64> {
            let len = results.iter().map(|r| get(r).len()).max().unwrap_or(0);
            (0..len)
                .map(|i| {
                    let present: Vec<f64> = results
                        .iter()
                        .filter_map(|r| get(r).get(i).copied())
                        .collect();
                    present.iter().sum::<f64>() / present.len().max(1) as f64
                })
                .collect()
        };
        out.local_vc_occupancy = vec_avg(|r| &r.local_vc_occupancy);
        out.global_vc_occupancy = vec_avg(|r| &r.global_vc_occupancy);
        for r in results {
            out.offered += r.offered / n;
            out.accepted += r.accepted / n;
            out.latency += r.latency / n;
            out.latency_req += r.latency_req / n;
            out.latency_rep += r.latency_rep / n;
            out.misroute_fraction += r.misroute_fraction / n;
            out.avg_hops += r.avg_hops / n;
            out.reverts_per_packet += r.reverts_per_packet / n;
            out.drop_fraction += r.drop_fraction / n;
            out.deadlocked |= r.deadlocked;
            out.latency_hist.merge(&r.latency_hist);
            out.flows_completed += r.flows_completed / n;
            out.fct_mean += r.fct_mean / n;
            out.slowdown_mean += r.slowdown_mean / n;
            out.fct_hist.merge(&r.fct_hist);
            for t in 0..2 {
                out.classes[t].accepted += r.classes[t].accepted / n;
                out.classes[t].latency += r.classes[t].latency / n;
                out.classes[t]
                    .latency_hist
                    .merge(&r.classes[t].latency_hist);
                out.classes[t].fct_hist.merge(&r.classes[t].fct_hist);
            }
        }
        out.latency_p99 = out.latency_hist.quantile(0.99) as f64;
        out.fct_p50 = out.fct_hist.quantile_interp(0.5);
        out.fct_p99 = out.fct_hist.quantile_interp(0.99);
        for class in &mut out.classes {
            class.latency_p99 = class.latency_hist.quantile(0.99) as f64;
            class.fct_p99 = class.fct_hist.quantile_interp(0.99);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_accumulates() {
        let mut m = Metrics::default();
        m.consume(
            MessageClass::Request,
            TrafficClass::Control,
            8,
            100,
            3,
            true,
            0,
        );
        m.consume(MessageClass::Reply, TrafficClass::Bulk, 8, 200, 6, false, 2);
        assert_eq!(m.consumed_packets, [1, 1]);
        assert_eq!(m.consumed_phits, [8, 8]);
        assert_eq!(m.latency_sum, [100, 200]);
        assert_eq!(m.misrouted_packets, 1);
        assert_eq!(m.reverts, 2);
        assert_eq!(m.hop_sum, 9);
    }

    #[allow(clippy::field_reassign_with_default)] // builds raw counters field by field
    #[test]
    fn result_from_metrics() {
        let mut m = Metrics::default();
        m.cycles = 1000;
        m.generated_packets = 30;
        m.dropped_packets = 3;
        for _ in 0..10 {
            m.consume(
                MessageClass::Request,
                TrafficClass::Bulk,
                8,
                150,
                3,
                true,
                0,
            );
        }
        let r = SimResult::from_metrics(&m, 0.5, 16);
        assert!((r.accepted - 80.0 / 16_000.0).abs() < 1e-12);
        assert_eq!(r.latency, 150.0);
        assert_eq!(r.latency_req, 150.0);
        assert_eq!(r.latency_rep, 0.0);
        assert_eq!(r.avg_hops, 3.0);
        assert_eq!(r.drop_fraction, 0.1);
        assert!(!r.deadlocked);
    }

    /// Tentpole: per-traffic-class accounting splits accepted load,
    /// latency and p99 by class, merges exactly across shards, and
    /// re-derives class p99s from merged histograms when averaging seeds.
    #[test]
    fn per_class_accounting_and_averaging() {
        let mut m = Metrics {
            cycles: 1000,
            ..Metrics::default()
        };
        for _ in 0..10 {
            m.consume(
                MessageClass::Request,
                TrafficClass::Control,
                8,
                100,
                3,
                true,
                0,
            );
        }
        for _ in 0..30 {
            m.consume(
                MessageClass::Request,
                TrafficClass::Bulk,
                8,
                900,
                3,
                true,
                0,
            );
        }
        assert_eq!(m.class_packets, [10, 30]);
        assert_eq!(m.class_phits, [80, 240]);
        let r = SimResult::from_metrics(&m, 0.5, 16);
        let ctrl = r.class(TrafficClass::Control);
        let bulk = r.class(TrafficClass::Bulk);
        assert!((ctrl.accepted - 80.0 / 16_000.0).abs() < 1e-12);
        assert!((bulk.accepted - 240.0 / 16_000.0).abs() < 1e-12);
        assert_eq!(ctrl.latency, 100.0);
        assert_eq!(bulk.latency, 900.0);
        assert_eq!(ctrl.latency_p99, 64.0); // bucket [64,128)
        assert_eq!(bulk.latency_p99, 512.0); // bucket [512,1024)
                                             // Whole-run counters still see both classes.
        assert_eq!(r.latency, (10.0 * 100.0 + 30.0 * 900.0) / 40.0);

        // Sharded absorb reproduces the single-engine class counters.
        let mut a = Metrics::default();
        a.consume(
            MessageClass::Request,
            TrafficClass::Control,
            8,
            100,
            3,
            true,
            0,
        );
        let mut b = Metrics::default();
        b.consume(
            MessageClass::Request,
            TrafficClass::Bulk,
            8,
            900,
            3,
            true,
            0,
        );
        a.absorb(&b);
        assert_eq!(a.class_packets, [1, 1]);
        assert_eq!(a.class_latency_sum, [100, 900]);
        assert_eq!(a.class_latency_hist[0].count(), 1);
        assert_eq!(a.class_latency_hist[1].count(), 1);

        // Seed averaging merges the class histograms.
        let avg = SimResult::average(&[r.clone(), r]);
        assert_eq!(avg.class(TrafficClass::Control).latency_p99, 64.0);
        assert!((avg.class(TrafficClass::Bulk).accepted - 240.0 / 16_000.0).abs() < 1e-12);
        assert_eq!(avg.class(TrafficClass::Control).latency_hist.count(), 20);
    }

    /// Per-class FCT histograms: mice (control) and elephants (bulk)
    /// complete into separate distributions.
    #[test]
    fn per_class_fct_histograms() {
        let mut m = Metrics::default();
        let tag = |id| FlowTag {
            id,
            len: 1,
            index: 0,
            start: 0,
        };
        if m.flow_packet_done(&tag(1)) {
            m.complete_flow(&tag(1), 50, 8, TrafficClass::Control);
        }
        if m.flow_packet_done(&tag(2)) {
            m.complete_flow(&tag(2), 5000, 80, TrafficClass::Bulk);
        }
        assert_eq!(m.flows.fct_class_hist[0].count(), 1);
        assert_eq!(m.flows.fct_class_hist[1].count(), 1);
        let r = SimResult::from_metrics(&m, 0.5, 16);
        assert_eq!(r.class(TrafficClass::Control).fct_p99, 50.0);
        assert_eq!(r.class(TrafficClass::Bulk).fct_p99, 5000.0);
        assert_eq!(r.flows_completed, 2.0);
    }

    #[test]
    fn averaging() {
        let a = SimResult {
            accepted: 0.4,
            latency: 100.0,
            ..Default::default()
        };
        let b = SimResult {
            accepted: 0.6,
            latency: 200.0,
            deadlocked: true,
            ..Default::default()
        };
        let avg = SimResult::average(&[a, b]);
        assert!((avg.accepted - 0.5).abs() < 1e-12);
        assert!((avg.latency - 150.0).abs() < 1e-12);
        assert!(avg.deadlocked, "deadlock in any run taints the average");
    }

    #[test]
    fn averaging_reconciles_unequal_occupancy_vectors() {
        // Regression: vec_avg used to take the length from results[0] and
        // index the rest, panicking when a seed produced a shorter vector
        // (e.g. a deadlock before the first occupancy sample).
        let a = SimResult {
            local_vc_occupancy: vec![2.0, 4.0],
            ..Default::default()
        };
        let b = SimResult {
            local_vc_occupancy: vec![],
            deadlocked: true,
            ..Default::default()
        };
        let c = SimResult {
            local_vc_occupancy: vec![4.0, 8.0, 6.0],
            ..Default::default()
        };
        let avg = SimResult::average(&[a, b, c]);
        assert_eq!(avg.local_vc_occupancy, vec![3.0, 6.0, 6.0]);
        // Order must not matter either (results[0] being the short one was
        // the original panic).
        let b2 = SimResult {
            local_vc_occupancy: vec![],
            deadlocked: true,
            ..Default::default()
        };
        let a2 = SimResult {
            local_vc_occupancy: vec![2.0, 4.0],
            ..Default::default()
        };
        let avg2 = SimResult::average(&[b2, a2]);
        assert_eq!(avg2.local_vc_occupancy, vec![2.0, 4.0]);
    }

    #[test]
    fn averaging_merges_histograms_for_p99() {
        // Two seeds with very different tails: the averaged p99 must come
        // from the merged distribution, not the mean of the per-seed p99s.
        let mut m1 = Metrics::default();
        for _ in 0..99 {
            m1.consume(
                MessageClass::Request,
                TrafficClass::Bulk,
                8,
                100,
                3,
                true,
                0,
            );
        }
        let mut m2 = Metrics::default();
        for _ in 0..99 {
            m2.consume(
                MessageClass::Request,
                TrafficClass::Bulk,
                8,
                100,
                3,
                true,
                0,
            );
        }
        m2.consume(
            MessageClass::Request,
            TrafficClass::Bulk,
            8,
            100_000,
            3,
            true,
            0,
        );
        let r1 = SimResult::from_metrics(&m1, 0.5, 16);
        let r2 = SimResult::from_metrics(&m2, 0.5, 16);
        let avg = SimResult::average(&[r1.clone(), r2.clone()]);
        // Merged: 199 samples, rank ceil(0.99*199)=198 is still in the
        // [64,128) bucket -> 64. The mean of per-seed p99s would be
        // (64 + 65536) / 2 = 32800, wildly wrong.
        assert_eq!(avg.latency_p99, 64.0);
        assert_eq!(avg.latency_hist.count(), 199);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        for lat in [100u64, 110, 120, 130, 2000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 5);
        // 3/5 of samples are in [64,128); p50 bucket lower bound = 64.
        assert_eq!(h.quantile(0.5), 64);
        // 2000 lands in [1024,2048).
        assert_eq!(h.quantile(0.99), 1024);
        let mut h2 = LatencyHistogram::default();
        h2.record(100);
        h2.merge(&h);
        assert_eq!(h2.count(), 6);
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0);
    }

    #[test]
    fn quantile_extremes_do_not_degenerate() {
        // Regression: q=0 used to produce target rank 0, which the first
        // (possibly empty) bucket trivially satisfied, returning the
        // constant 2 regardless of data.
        let mut h = LatencyHistogram::default();
        for lat in [100u64, 110, 120, 130, 2000] {
            h.record(lat);
        }
        assert_eq!(h.quantile(0.0), 64, "q=0 is the first non-empty bucket");
        assert_eq!(h.quantile(1.0), 1024, "q=1 is the last non-empty bucket");
        // Out-of-range q is clamped, not wrapped.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    /// Regression: a quantile resolving to the overflow bucket used to
    /// report the bucket's lower bound (2^20 = 1,048,576), understating a
    /// multi-million-cycle tail by an unbounded factor. It must report the
    /// recorded maximum instead.
    #[test]
    fn quantile_overflow_bucket_reports_recorded_max() {
        let mut h = LatencyHistogram::default();
        h.record(100); // bucket [64, 128)
        h.record(5_000_000); // overflow bucket [2^20, inf)
        assert_eq!(h.max(), 5_000_000);
        assert_eq!(h.quantile(1.0), 5_000_000, "q=1 lands in overflow");
        assert_eq!(h.quantile(0.0), 64, "q=0 unaffected");
        // All samples in overflow: every quantile reports the max.
        let mut h = LatencyHistogram::default();
        for lat in [2_000_000u64, 3_000_000, 9_999_999] {
            h.record(lat);
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 9_999_999, "q={q}");
        }
        // Merging propagates the maximum.
        let mut h2 = LatencyHistogram::default();
        h2.record(50);
        h2.merge(&h);
        assert_eq!(h2.max(), 9_999_999);
        assert_eq!(h2.quantile(1.0), 9_999_999);
    }

    #[test]
    fn quantile_single_sample() {
        let mut h = LatencyHistogram::default();
        h.record(150); // bucket [128, 256)
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 128, "q={q}");
        }
    }

    #[test]
    fn quantile_all_same_latency() {
        let mut h = LatencyHistogram::default();
        for _ in 0..1000 {
            h.record(300); // bucket [256, 512)
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 256, "q={q}");
        }
        // The estimate must never exceed the true latency by more than the
        // bucket width (the old upper-bound convention biased p99 2x high).
        assert!(h.quantile(0.99) <= 300);
    }

    #[test]
    fn quantile_zero_latency_sample() {
        let mut h = LatencyHistogram::default();
        h.record(0); // clamped into bucket 0 = [1, 2)
        assert_eq!(h.quantile(0.5), 1);
    }

    /// Test helper: the engine-side pairing of `flow_packet_done` and
    /// `complete_flow` with an explicit ideal.
    fn track(m: &mut Metrics, tag: &FlowTag, done: u64, ideal: u64) {
        if m.flow_packet_done(tag) {
            m.complete_flow(tag, done, ideal, TrafficClass::Bulk);
        }
    }

    #[test]
    fn flow_tracking_completes_on_last_packet() {
        let mut m = Metrics::default();
        let tag = |index| FlowTag {
            id: 7,
            len: 3,
            index,
            start: 100,
        };
        // Packets may arrive out of order under adaptive routing; only the
        // count matters. Ideal = 3·8 serialization + 8 path latency = 32.
        track(&mut m, &tag(0), 150, 32);
        track(&mut m, &tag(2), 180, 32);
        assert_eq!(m.flows.completed, 0);
        track(&mut m, &tag(1), 196, 32);
        assert_eq!(m.flows.completed, 1);
        // FCT = 196 - 100 = 96; slowdown = 96 / 32 = 3.0.
        assert_eq!(m.flows.fct_sum, 96);
        assert_eq!(m.flows.ideal_sum, 32);
        assert_eq!(m.flows.slowdown_milli_sum, 3_000);
        assert_eq!(m.flows.fct_hist.count(), 1);
        let r = SimResult::from_metrics(&m, 0.5, 16);
        assert_eq!(r.flows_completed, 1.0);
        assert_eq!(r.fct_mean, 96.0);
        assert!((r.slowdown_mean - 3.0).abs() < 1e-12);
        assert_eq!(r.fct_p50, 96.0, "single-sample bucket interpolates exactly");
    }

    #[test]
    fn flow_stats_absorb_is_exact() {
        let tag = |id, len, index| FlowTag {
            id,
            len,
            index,
            start: 0,
        };
        // All packets of each flow on one "shard", like real sharded runs.
        let mut a = Metrics::default();
        track(&mut a, &tag(1, 1, 0), 40, 8);
        track(&mut a, &tag(2, 2, 0), 50, 16);
        let mut b = Metrics::default();
        track(&mut b, &tag(3, 2, 0), 60, 16);
        track(&mut b, &tag(3, 2, 1), 70, 16);
        let mut whole = Metrics::default();
        for (t, done, ideal) in [
            (tag(1, 1, 0), 40, 8),
            (tag(2, 2, 0), 50, 16),
            (tag(3, 2, 0), 60, 16),
            (tag(3, 2, 1), 70, 16),
        ] {
            track(&mut whole, &t, done, ideal);
        }
        a.absorb(&b);
        assert_eq!(a.flows.completed, whole.flows.completed);
        assert_eq!(a.flows.fct_sum, whole.flows.fct_sum);
        assert_eq!(a.flows.ideal_sum, whole.flows.ideal_sum);
        assert_eq!(a.flows.slowdown_milli_sum, whole.flows.slowdown_milli_sum);
        assert_eq!(a.flows.fct_hist.count(), whole.flows.fct_hist.count());
        assert_eq!(
            a.flows.fct_hist.bucket_sums(),
            whole.flows.fct_hist.bucket_sums(),
            "per-bucket sums must merge exactly for sharded interpolation"
        );
        assert_eq!(a.flows.live.len(), whole.flows.live.len());
    }

    #[test]
    fn averaging_merges_fct_histograms() {
        let mut m1 = Metrics::default();
        for id in 0..99 {
            track(
                &mut m1,
                &FlowTag {
                    id,
                    len: 1,
                    index: 0,
                    start: 0,
                },
                100,
                8,
            );
        }
        let mut m2 = m1.clone();
        track(
            &mut m2,
            &FlowTag {
                id: 1_000,
                len: 1,
                index: 0,
                start: 0,
            },
            100_000,
            8,
        );
        let r1 = SimResult::from_metrics(&m1, 0.5, 16);
        let r2 = SimResult::from_metrics(&m2, 0.5, 16);
        let avg = SimResult::average(&[r1, r2]);
        // Merged: 199 samples, rank 198 still in [64,128); every sample
        // there is exactly 100, so the interpolated p99 is 100 — not the
        // mean of per-seed p99s and not the bucket's lower bound 64.
        assert_eq!(avg.fct_p99, 100.0);
        assert!((avg.flows_completed - 99.5).abs() < 1e-12);
    }

    /// Regression for the power-of-two FCT quantization bug: quantiles used
    /// to snap to bucket lower bounds (p50 of [100,110,120,130,2000] read
    /// 64; the CLI smoke test literally compared 1024 against 2048). With
    /// per-bucket sums the quantile resolves to the in-bucket mean — exact
    /// for single-sample buckets.
    #[test]
    fn interpolated_quantiles_resolve_within_buckets() {
        let mut h = LatencyHistogram::default();
        for lat in [100u64, 110, 120, 130, 2000] {
            h.record(lat);
        }
        // p50 rank 3 lands in [64,128) holding {100,110,120}: mean 110.
        assert_eq!(h.quantile_interp(0.5), 110.0);
        // p99 rank 5 lands in [1024,2048) holding only 2000: exact.
        assert_eq!(h.quantile_interp(0.99), 2000.0);
        assert_eq!(h.quantile_interp(0.0), 110.0, "rank clamps to 1");
        // A single sample is reproduced exactly at every quantile.
        let mut single = LatencyHistogram::default();
        single.record(1500);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_interp(q), 1500.0, "q={q}");
        }
        // Merging keeps interpolation exact (integer sums, no averaging).
        let mut merged = LatencyHistogram::default();
        merged.record(90);
        merged.merge(&h);
        // [64,128) now holds {90,100,110,120}: mean 105.
        assert_eq!(merged.quantile_interp(0.5), 105.0);
        assert_eq!(LatencyHistogram::default().quantile_interp(0.5), 0.0);
        // The overflow bucket reports the recorded maximum, not its mean.
        merged.record(2_000_000);
        merged.record(5_000_000);
        assert_eq!(merged.quantile_interp(1.0), 5_000_000.0);
    }

    #[test]
    fn vc_profile_means() {
        let mut p = VcOccupancyProfile::default();
        p.sums[0] = vec![100, 50];
        p.samples = 10;
        p.ports[0] = 5;
        assert!((p.mean(flexvc_core::LinkClass::Local, 0) - 2.0).abs() < 1e-12);
        assert!((p.mean(flexvc_core::LinkClass::Local, 1) - 1.0).abs() < 1e-12);
        assert_eq!(p.mean(flexvc_core::LinkClass::Global, 0), 0.0);
        assert_eq!(p.means(flexvc_core::LinkClass::Local).len(), 2);
    }

    #[test]
    fn empty_window_is_safe() {
        let m = Metrics::default();
        let r = SimResult::from_metrics(&m, 0.1, 8);
        assert_eq!(r.accepted, 0.0);
        assert_eq!(r.latency, 0.0);
    }
}
