//! Engine-equivalence harness: the active-set engine must be *bit-identical*
//! to the original full-sweep engine.
//!
//! The snapshots below were recorded by running the fixed point set of
//! [`flexvc_sim::equivalence`] on the pre-refactor engine (per-cycle full
//! sweeps over every router x port x VC) immediately before the active-set
//! rewrite, with the latency-statistics fixes already applied. Every field
//! of every [`SimResult`] is asserted with exact `f64` equality: the
//! refactor may only change *how* work is found, never *what* happens, so
//! any drift in arbitration order, RNG draws, or credit timing shows up
//! here as a failure.
//!
//! If a point legitimately changes (e.g. a new feature alters semantics on
//! purpose), re-record by printing the fields of `run_one` on the old
//! engine - never by copying the new engine's output untested.

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_sim::equivalence::points;
use flexvc_sim::runner::run_one;
use flexvc_sim::{Network, ShardedNetwork, SimConfig};
use flexvc_traffic::{Pattern, Workload};

struct Golden {
    name: &'static str,
    accepted: f64,
    latency: f64,
    latency_req: f64,
    latency_rep: f64,
    misroute_fraction: f64,
    avg_hops: f64,
    reverts_per_packet: f64,
    drop_fraction: f64,
    deadlocked: bool,
    latency_p99: f64,
    hist_count: u64,
    local_vc_occupancy: &'static [f64],
    global_vc_occupancy: &'static [f64],
    flows_completed: f64,
    fct_p50: f64,
    fct_p99: f64,
    slowdown_mean: f64,
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "fig5_un_min_baseline",
        accepted: 0.4461851851851852,
        latency: 138.5055200464846,
        latency_req: 138.5055200464846,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.3352701917489833,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 128.0,
        hist_count: 12047,
        local_vc_occupancy: &[2.0771604938271606, 2.2222222222222223],
        global_vc_occupancy: &[4.3842592592592595],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig5_un_min_flexvc42",
        accepted: 0.6437407407407407,
        latency: 160.31494160289972,
        latency_req: 160.31494160289972,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.3399689315919683,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 17381,
        local_vc_occupancy: &[
            1.287037037037037,
            1.6944444444444444,
            2.4814814814814814,
            2.234567901234568,
        ],
        global_vc_occupancy: &[5.523148148148148, 5.050925925925926],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig5_adv_val_baseline",
        accepted: 0.4579259259259259,
        latency: 557.6700097055968,
        latency_req: 557.6700097055968,
        latency_rep: 0.0,
        misroute_fraction: 1.0,
        avg_hops: 4.606357165965707,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0015579790785666592,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 12364,
        local_vc_occupancy: &[
            6.734567901234568,
            5.598765432098766,
            4.114197530864198,
            2.3333333333333335,
        ],
        global_vc_occupancy: &[52.64351851851852, 20.88888888888889],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig5_un_val_flexvc32_sat",
        accepted: 0.6823703703703704,
        latency: 891.4257490230135,
        latency_req: 891.4257490230135,
        latency_rep: 0.0,
        misroute_fraction: 0.9873534520191055,
        avg_hops: 3.159248805905341,
        reverts_per_packet: 0.4355731654363873,
        drop_fraction: 0.08739703459637561,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 18424,
        local_vc_occupancy: &[9.382716049382717, 9.407407407407407, 4.425925925925926],
        global_vc_occupancy: &[47.745370370370374, 31.02314814814815],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig5_bursty_min_flexvc42",
        accepted: 0.48348148148148146,
        latency: 252.78374444614678,
        latency_req: 252.78374444614678,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.366094683621878,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 512.0,
        hist_count: 13054,
        local_vc_occupancy: &[
            2.2808641975308643,
            2.814814814814815,
            3.447530864197531,
            2.404320987654321,
        ],
        global_vc_occupancy: &[13.652777777777779, 16.078703703703702],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig7_rr_min_baseline",
        accepted: 0.34203703703703703,
        latency: 130.95993502977802,
        latency_req: 131.4828856152513,
        latency_rep: 130.4373240961247,
        misroute_fraction: 0.0,
        avg_hops: 2.342934488359502,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 128.0,
        hist_count: 9235,
        local_vc_occupancy: &[
            0.7283950617283951,
            0.7067901234567902,
            0.6851851851851852,
            0.7037037037037037,
        ],
        global_vc_occupancy: &[1.2222222222222223, 1.4675925925925926],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig7_rr_min_flexvc_5_3",
        accepted: 0.49274074074074076,
        latency: 137.3321557426338,
        latency_req: 137.8655550548295,
        latency_rep: 136.79795396419436,
        misroute_fraction: 0.0,
        avg_hops: 2.339822609741431,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 128.0,
        hist_count: 13304,
        local_vc_occupancy: &[
            0.6234567901234568,
            1.1790123456790123,
            0.8950617283950617,
            0.8425925925925926,
            0.7345679012345679,
        ],
        global_vc_occupancy: &[1.3518518518518519, 1.5416666666666667, 1.3333333333333333],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig10_damq0_deadlock",
        accepted: 0.00970501275193536,
        latency: 1375.3232558139534,
        latency_req: 1375.3232558139534,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.4093023255813955,
        reverts_per_packet: 0.0,
        drop_fraction: 0.9860281254969671,
        deadlocked: true,
        latency_p99: 1024.0,
        hist_count: 430,
        local_vc_occupancy: &[30.533713200379868, 0.030389363722697058],
        global_vc_occupancy: &[143.64102564102564],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig10_damq75",
        accepted: 0.6961851851851852,
        latency: 631.1867319253072,
        latency_req: 631.1867319253072,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.338671064531574,
        reverts_per_packet: 0.0,
        drop_fraction: 0.04873362445414847,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 18797,
        local_vc_occupancy: &[10.95679012345679, 5.583333333333333],
        global_vc_occupancy: &[51.65277777777778],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "fig8_pb_flexvc_mincred",
        accepted: 0.4997037037037037,
        latency: 166.17943966795139,
        latency_req: 167.34009776329432,
        latency_rep: 165.01705978341494,
        misroute_fraction: 0.16854432256151794,
        avg_hops: 2.844129854728728,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 13492,
        local_vc_occupancy: &[
            0.6018518518518519,
            0.8641975308641975,
            1.287037037037037,
            1.1358024691358024,
            0.9598765432098766,
            0.7839506172839507,
        ],
        global_vc_occupancy: &[1.9166666666666667, 1.9212962962962963, 1.6064814814814814],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "par_adv_baseline",
        accepted: 0.2713703703703704,
        latency: 1045.6649379009145,
        latency_req: 1045.6649379009145,
        latency_rep: 0.0,
        misroute_fraction: 0.6050225194486147,
        avg_hops: 4.418861744233657,
        reverts_per_packet: 0.0,
        drop_fraction: 0.026967122275581824,
        deadlocked: false,
        latency_p99: 2048.0,
        hist_count: 7327,
        local_vc_occupancy: &[
            3.5709876543209877,
            0.8888888888888888,
            1.3364197530864197,
            1.4845679012345678,
            0.8395061728395061,
        ],
        global_vc_occupancy: &[4.1342592592592595, 1.5555555555555556],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    // Recorded from the engine at the commit introducing the HyperX
    // topology (`cargo run --release -p flexvc-sim --example record_goldens
    // hyperx3d_adv_val_flexvc4`): guards the generic-diameter-3 path —
    // DOR plans, per-dimension escapes, opportunistic VAL with reversion —
    // against behavioral drift.
    Golden {
        name: "hyperx3d_adv_val_flexvc4",
        accepted: 0.5965925925925926,
        latency: 152.12714179289793,
        latency_req: 152.12714179289793,
        latency_rep: 0.0,
        misroute_fraction: 1.0,
        avg_hops: 3.9679662279612615,
        reverts_per_packet: 0.015644400297988578,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 12081,
        local_vc_occupancy: &[
            4.5699588477366255,
            3.51440329218107,
            2.683127572016461,
            1.7613168724279835,
        ],
        global_vc_occupancy: &[],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    // Recorded at the commit introducing the RoutePolicy decision layer
    // (`cargo run --release -p flexvc-sim --example record_goldens
    // hyperx3d_adv_ugal_l_flexvc6 hyperx2d_adv_dal_flexvc4`): guard the
    // UGAL-L weighted-comparison injection path and DAL's per-dimension
    // misroute pipeline against behavioral drift.
    Golden {
        name: "hyperx3d_adv_ugal_l_flexvc6",
        accepted: 0.526074074074074,
        latency: 731.9320379235896,
        latency_req: 731.9320379235896,
        latency_rep: 0.0,
        misroute_fraction: 0.12897775274570544,
        avg_hops: 2.475828405144091,
        reverts_per_packet: 0.0,
        drop_fraction: 0.037183376843293585,
        deadlocked: false,
        latency_p99: 2048.0,
        hist_count: 10653,
        local_vc_occupancy: &[
            14.843621399176955,
            16.39917695473251,
            17.438271604938272,
            18.25925925925926,
            11.199588477366255,
            0.8868312757201646,
        ],
        global_vc_occupancy: &[],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "hyperx2d_adv_dal_flexvc4",
        accepted: 0.7044166666666667,
        latency: 90.28013722938601,
        latency_req: 90.28013722938601,
        latency_rep: 0.0,
        misroute_fraction: 0.3789187270791435,
        avg_hops: 2.1347450609251153,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 8453,
        local_vc_occupancy: &[
            1.6805555555555556,
            2.4340277777777777,
            3.15625,
            2.1041666666666665,
        ],
        global_vc_occupancy: &[],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    // Recorded at the commit introducing the flow workload layer
    // (`cargo run --release -p flexvc-sim --example record_goldens
    // flows_un_bimodal_min_flexvc42 flows_perm_pareto_hyperx2d_min_flexvc4
    // flows_incast4_min_baseline`): guard flow arrivals, packet trains,
    // the seed-only permutation table, incast phase rotation, and FCT
    // accounting against behavioral drift.
    Golden {
        name: "flows_un_bimodal_min_flexvc42",
        accepted: 0.49274074074074076,
        latency: 339.04863199037885,
        latency_req: 339.04863199037885,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.3574113048707157,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 13304,
        local_vc_occupancy: &[
            2.7191358024691357,
            3.3487654320987654,
            3.7839506172839505,
            2.54320987654321,
        ],
        global_vc_occupancy: &[18.083333333333332, 19.324074074074073],
        flows_completed: 4869.0,
        fct_p50: 172.6522687609075,
        fct_p99: 1277.75,
        slowdown_mean: 2.7029928116656396,
    },
    Golden {
        name: "flows_perm_pareto_hyperx2d_min_flexvc4",
        accepted: 0.384,
        latency: 69.35373263888889,
        latency_req: 69.35373263888889,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 1.5345052083333333,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 512.0,
        hist_count: 4608,
        local_vc_occupancy: &[
            0.3541666666666667,
            0.4236111111111111,
            0.5798611111111112,
            0.34375,
        ],
        global_vc_occupancy: &[],
        flows_completed: 1828.0,
        fct_p50: 45.21609702315325,
        fct_p99: 675.9473684210526,
        slowdown_mean: 1.9602439824945295,
    },
    Golden {
        name: "flows_incast4_min_baseline",
        accepted: 0.24225925925925926,
        latency: 333.2144931967589,
        latency_req: 333.2144931967589,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 0.8399327319981654,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 6541,
        local_vc_occupancy: &[2.074074074074074, 0.08641975308641975],
        global_vc_occupancy: &[3.0462962962962963],
        flows_completed: 1439.0,
        fct_p50: 190.9585635359116,
        fct_p99: 1399.8080808080808,
        slowdown_mean: 7.857785267546908,
    },
    // Hot-path pins (recorded when the fast paths landed, PR 8): static-MIN
    // + baseline VC policy exercises the monomorphized injection-plan path
    // and the batched per-link credit drain on both topologies.
    Golden {
        name: "hotpath_un_min_baseline_hyperx2d",
        accepted: 0.7271666666666666,
        latency: 144.4562227824891,
        latency_req: 144.4562227824891,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 1.5399954159981664,
        reverts_per_packet: 0.0,
        drop_fraction: 0.005496921723834653,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 8726,
        local_vc_occupancy: &[4.204861111111111, 3.482638888888889],
        global_vc_occupancy: &[],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "hotpath_flows_perm_min_baseline",
        accepted: 0.404,
        latency: 354.4011734506784,
        latency_req: 354.4011734506784,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.218738540520719,
        reverts_per_packet: 0.0,
        drop_fraction: 0.015026660203587009,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 10908,
        local_vc_occupancy: &[3.4166666666666665, 1.3271604938271604],
        global_vc_occupancy: &[17.47685185185185],
        flows_completed: 3846.0,
        fct_p50: 161.11389521640092,
        fct_p99: 1293.6521739130435,
        slowdown_mean: 2.736770670826833,
    },
    // Recorded at the commit introducing multi-class QoS (`cargo run
    // --release -p flexvc-sim --example record_goldens
    // qos_ctrlbulk_df_min_flexvc42_part qos_repart_hyperx2d_min_flexvc4
    // qos_prio_dfplus_val_flexvc42`): guard class-partitioned VC masks,
    // the dynamic per-class buffer repartitioner, and strict-priority
    // arbitration with bounded bypass against behavioral drift. The
    // sharded tests below run these at shards {1..5} so the class-tagged
    // credit exchange is also pinned.
    Golden {
        name: "qos_ctrlbulk_df_min_flexvc42_part",
        accepted: 0.5994074074074074,
        latency: 159.0490608007909,
        latency_req: 159.0490608007909,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.3413247652001976,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 16184,
        local_vc_occupancy: &[
            0.10802469135802469,
            0.5401234567901234,
            3.373456790123457,
            2.8518518518518516,
        ],
        global_vc_occupancy: &[0.6666666666666666, 8.856481481481481],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "qos_repart_hyperx2d_min_flexvc4",
        accepted: 0.70675,
        latency: 60.324843768423534,
        latency_req: 60.324843768423534,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 1.5533545572456078,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 128.0,
        hist_count: 8481,
        local_vc_occupancy: &[
            0.6875,
            1.1319444444444444,
            1.7847222222222223,
            1.5902777777777777,
        ],
        global_vc_occupancy: &[],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "qos_prio_dfplus_val_flexvc42",
        accepted: 0.4478666666666667,
        latency: 535.9705269425424,
        latency_req: 535.9705269425424,
        latency_rep: 0.0,
        misroute_fraction: 1.0,
        avg_hops: 5.194998511461745,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0010579211848717272,
        deadlocked: false,
        latency_p99: 1024.0,
        hist_count: 3359,
        local_vc_occupancy: &[
            7.0,
            4.566666666666666,
            2.533333333333333,
            1.3083333333333333,
        ],
        global_vc_occupancy: &[20.566666666666666, 7.108333333333333],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    // Scheduling corners, recorded on the polling engine (every output and
    // node visited each cycle, rejected heads re-checked against a memo)
    // before heads, outputs and generators moved to timed wake-ups
    // (`cargo run --release -p flexvc-sim --example record_goldens
    // corner_pipeline0_un_min_flexvc42 corner_speedup1_un_min_baseline
    // corner_speedup3_bursty_val_flexvc32 corner_load002_rr_min_baseline
    // corner_load0_un_min_baseline`): same-cycle serialization, one and
    // three allocation rounds per cycle, emission gaps beyond the wheel
    // horizon, and a node that never emits.
    Golden {
        name: "corner_pipeline0_un_min_flexvc42",
        accepted: 0.6934444444444444,
        latency: 161.63344549484592,
        latency_req: 161.63344549484592,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.332265128451637,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 18723,
        local_vc_occupancy: &[
            1.6049382716049383,
            2.1790123456790123,
            2.830246913580247,
            2.675925925925926,
        ],
        global_vc_occupancy: &[6.685185185185185, 7.819444444444445],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "corner_speedup1_un_min_baseline",
        accepted: 0.5915555555555555,
        latency: 194.23046581517656,
        latency_req: 194.23046581517656,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.339594290007513,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 15972,
        local_vc_occupancy: &[5.361111111111111, 3.9444444444444446],
        global_vc_occupancy: &[26.62037037037037],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "corner_speedup3_bursty_val_flexvc32",
        accepted: 0.574962962962963,
        latency: 950.6039680494717,
        latency_req: 950.6039680494717,
        latency_rep: 0.0,
        misroute_fraction: 0.9855063128059779,
        avg_hops: 3.187773769646998,
        reverts_per_packet: 0.4310744653439835,
        drop_fraction: 0.1232328869047619,
        deadlocked: false,
        latency_p99: 2048.0,
        hist_count: 15524,
        local_vc_occupancy: &[9.512345679012345, 8.12037037037037, 3.478395061728395],
        global_vc_occupancy: &[46.85648148148148, 29.72222222222222],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "corner_load002_rr_min_baseline",
        accepted: 0.019962962962962964,
        latency: 127.19109461966605,
        latency_req: 127.27838827838828,
        latency_rep: 127.1015037593985,
        misroute_fraction: 0.0,
        avg_hops: 2.3376623376623376,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 128.0,
        hist_count: 539,
        local_vc_occupancy: &[
            0.033950617283950615,
            0.018518518518518517,
            0.040123456790123455,
            0.040123456790123455,
        ],
        global_vc_occupancy: &[0.07407407407407407, 0.05555555555555555],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "corner_load0_un_min_baseline",
        accepted: 0.0,
        latency: 0.0,
        latency_req: 0.0,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 0.0,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 0.0,
        hist_count: 0,
        local_vc_occupancy: &[0.0, 0.0],
        global_vc_occupancy: &[0.0],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    // Sleeping-head pins, recorded on the engine that still re-evaluated
    // in-transit deciders and QoS heads every allocation round (`cargo run
    // --release -p flexvc-sim --example record_goldens
    // sleep_par_adv_flexvc42_patience sleep_copies_hyperx2d_k2_min_baseline
    // sleep_qos_repart_random_df_min_flexvc42`): PAR's latched divert with
    // opportunistic patience and reversion, adaptive copy re-selection, and
    // RNG draws under priority arbitration while quotas shift.
    Golden {
        name: "sleep_par_adv_flexvc42_patience",
        accepted: 0.1905925925925926,
        latency: 1891.0685969685192,
        latency_req: 1891.0685969685192,
        latency_rep: 0.0,
        misroute_fraction: 0.605518849591916,
        avg_hops: 3.6888845705402256,
        reverts_per_packet: 0.2104547221142635,
        drop_fraction: 0.39398496240601505,
        deadlocked: false,
        latency_p99: 2048.0,
        hist_count: 5146,
        local_vc_occupancy: &[
            7.219135802469136,
            9.37962962962963,
            7.962962962962963,
            0.5648148148148148,
        ],
        global_vc_occupancy: &[3.138888888888889, 1.0694444444444444],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "sleep_copies_hyperx2d_k2_min_baseline",
        accepted: 0.7938333333333333,
        latency: 90.11851774091959,
        latency_req: 90.11851774091959,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 1.5532227587654839,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0,
        deadlocked: false,
        latency_p99: 256.0,
        hist_count: 9526,
        local_vc_occupancy: &[1.6354166666666667, 2.3125],
        global_vc_occupancy: &[],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    Golden {
        name: "sleep_qos_repart_random_df_min_flexvc42",
        accepted: 0.7782592592592592,
        latency: 285.25465188216816,
        latency_req: 285.25465188216816,
        latency_rep: 0.0,
        misroute_fraction: 0.0,
        avg_hops: 2.335934897444439,
        reverts_per_packet: 0.0,
        drop_fraction: 0.0004177109440267335,
        deadlocked: false,
        latency_p99: 512.0,
        hist_count: 21013,
        local_vc_occupancy: &[
            4.2253086419753085,
            4.2407407407407405,
            4.558641975308642,
            2.20679012345679,
        ],
        global_vc_occupancy: &[23.87037037037037, 26.71759259259259],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
    // FlexVC over a DAMQ bank, recorded on the engine that still kept the
    // ready-VC bitmask for static banks (`cargo run --release -p flexvc-sim
    // --example record_goldens damq75_adv_val_flexvc32`): JSQ over
    // shared-pool headroom through the `can_accept` loop, with VAL's
    // opportunistic hops and reversions under ADV+1 at saturation.
    Golden {
        name: "damq75_adv_val_flexvc32",
        accepted: 0.15566666666666668,
        latency: 1213.114679990483,
        latency_req: 1213.114679990483,
        latency_rep: 0.0,
        misroute_fraction: 1.0,
        avg_hops: 3.040923150130859,
        reverts_per_packet: 0.5431834403997144,
        drop_fraction: 0.024218460397874706,
        deadlocked: false,
        latency_p99: 2048.0,
        hist_count: 4203,
        local_vc_occupancy: &[12.898148148148149, 9.533950617283951, 0.44135802469135804],
        global_vc_occupancy: &[33.0462962962963, 1.1018518518518519],
        flows_completed: 0.0,
        fct_p50: 0.0,
        fct_p99: 0.0,
        slowdown_mean: 0.0,
    },
];

/// The reference of every driver test below: the single engine's own loop
/// ([`Network::run`]), serialized — the form covers every result field
/// including the histogram, so string equality is exact equality.
fn single_engine(cfg: &SimConfig, load: f64, seed: u64) -> String {
    flexvc_serde::to_json(&Network::new(cfg.clone(), load, seed).unwrap().run())
}

/// Driver matrix: partitioning the routers across worker threads must be
/// invisible in the results. Every golden point runs through
/// `ShardedNetwork` with workers ∈ {1, 2, 3, 4, 5} and is compared
/// bit-for-bit against the single engine — PB sensing, adaptive routing,
/// DAMQ deadlock and reactive points included, so every cross-shard effect
/// class (link packets, credits, board publishes) is exercised under the
/// epoch-batched exchange (and per-cycle exchange for the board users).
/// The counts include a non-power-of-two, so group-aligned and fallback
/// partitions both see uneven splits, and five, which forces the
/// partitioner off group alignment on the smaller goldens (fewer
/// groups/planes than workers → count-balanced fallback with intra-group
/// cuts, the λ = local-latency epoch regime) while the larger ones keep
/// aligned global-only cuts.
#[test]
fn sharded_engine_is_bit_identical_to_single() {
    for (name, cfg, load, seed) in points() {
        let single = single_engine(&cfg, load, seed);
        for shards in [1, 2, 3, 4, 5] {
            let mut sharded_cfg = cfg.clone();
            sharded_cfg.shards = shards;
            let r = ShardedNetwork::new(sharded_cfg, load, seed)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .run();
            assert_eq!(
                single,
                flexvc_serde::to_json(&r),
                "{name}: shards={shards} diverged from the single engine"
            );
        }
    }
}

/// Blocks are unobservable: with the block budget forced to nothing every
/// worker steps its range one partition unit (group / plane / row) at a
/// time, so each golden exchanges across many more cuts than threads — and
/// must still equal the single engine bit for bit at workers {1, 2, 3}.
/// Wherever the worker count leaves the block partition unchanged (enough
/// units for every worker), the exchange counters — epochs run, packets,
/// credits and board publishes delivered — are a function of that
/// partition alone and must not move with the thread count either.
#[test]
fn one_unit_blocks_are_bit_identical_and_counted_alike() {
    let mut counted = 0;
    for (name, cfg, load, seed) in points() {
        let single = single_engine(&cfg, load, seed);
        let mut reference = None;
        for shards in [1, 2, 3] {
            let mut sharded_cfg = cfg.clone();
            sharded_cfg.shards = shards;
            let mut net = ShardedNetwork::with_block_budget(sharded_cfg, load, seed, 0)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                single,
                flexvc_serde::to_json(&net.run()),
                "{name}: one-unit blocks on {shards} workers diverged from the single engine"
            );
            let blocks: Vec<_> = net
                .shard_stats()
                .iter()
                .flat_map(|s| s.blocks.clone())
                .collect();
            let counters = (net.epochs(), net.boundary_events());
            match &reference {
                None => reference = Some((blocks, counters)),
                Some((b, c)) if *b == blocks => {
                    assert_eq!(*c, counters, "{name}: counters moved at {shards} workers");
                    counted += 1;
                }
                Some(_) => {}
            }
        }
    }
    assert!(counted >= 20, "only {counted} same-partition comparisons");
}

/// Conservation through the blocked driver: the saturated golden, cut into
/// one-unit blocks, drains to zero pending packets at every worker count.
#[test]
fn one_unit_blocks_drain_to_zero() {
    let (name, cfg, load, seed) = points()
        .into_iter()
        .find(|p| p.0 == "fig5_un_val_flexvc32_sat")
        .expect("the saturated golden");
    for shards in [1, 2, 3] {
        let mut sharded_cfg = cfg.clone();
        sharded_cfg.shards = shards;
        let mut net = ShardedNetwork::with_block_budget(sharded_cfg, load, seed, 0).unwrap();
        assert!(net.shard_stats()[0].blocks.len() > 1, "{name}: not blocked");
        let result = net.run();
        assert!(!result.deadlocked && net.packets_in_flight() > 0);
        assert_eq!(
            net.drain(20_000),
            0,
            "{name}: packets left at {shards} workers"
        );
        assert_eq!(net.packets_in_flight(), 0);
    }
}

/// A shape that sub-blocks on the *production* budget — an h = 6 Dragonfly
/// (876 routers, 73 groups, several groups per block) on a short window —
/// against the single engine, on the calling thread and on two workers.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "h = 6 is slow unoptimized; the release gate runs it"
)]
fn production_budget_blocks_are_bit_identical() {
    let mut cfg =
        SimConfig::dragonfly_baseline(6, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
            .with_flexvc(Arrangement::dragonfly(4, 2));
    cfg.warmup = 150;
    cfg.measure = 250;
    cfg.watchdog = 2_000;
    let single = single_engine(&cfg, 0.3, 5);
    for shards in [1, 2] {
        let mut sharded_cfg = cfg.clone();
        sharded_cfg.shards = shards;
        let mut net = ShardedNetwork::new(sharded_cfg, 0.3, 5).unwrap();
        for stat in net.shard_stats() {
            assert!(stat.blocks.len() > 1, "h = 6 should sub-block: {stat:?}");
        }
        assert_eq!(net.epoch_cycles(), cfg.global_latency as u64);
        assert_eq!(single, flexvc_serde::to_json(&net.run()), "shards={shards}");
    }
}

/// Demand-sized queues must be invisible in the results: a run whose bank
/// slabs, output queues and link wheel slots start empty and grow under
/// traffic is compared bit-for-bit against one whose queues were all grown
/// to their worst-case bound before the first cycle (the pre-PR 14
/// storage). An h = 3 Dragonfly near saturation, so queues do grow — and,
/// in debug builds, every growth site asserts its bound on the way.
#[test]
fn queue_growth_is_unobservable() {
    let mut cfg = SimConfig::dragonfly_baseline(
        3,
        RoutingMode::Valiant,
        Workload::oblivious(Pattern::adv1()),
    )
    .with_flexvc(Arrangement::dragonfly(4, 2));
    cfg.warmup = 500;
    cfg.measure = 1_500;
    cfg.watchdog = 4_000;
    let run = |pregrown: bool| {
        let mut net = Network::new(cfg.clone(), 0.45, 17).unwrap();
        if pregrown {
            net.pregrow_queues();
        }
        let result = net.run();
        assert_eq!(net.queue_overshoot(), 0);
        flexvc_serde::to_json(&result)
    };
    let demand_sized = run(false);
    assert_eq!(demand_sized, run(true));
    assert!(
        demand_sized.contains("\"deadlocked\":false"),
        "degenerate run"
    );
}

#[test]
fn engine_reproduces_pre_refactor_snapshots() {
    let pts = points();
    assert_eq!(
        pts.len(),
        GOLDENS.len(),
        "point set and snapshot list out of sync"
    );
    for ((name, cfg, load, seed), g) in pts.iter().zip(GOLDENS) {
        assert_eq!(name, g.name, "point order changed");
        let r = run_one(cfg, *load, *seed).unwrap();
        let ctx = |field: &str| format!("{name}: {field} drifted from the pre-refactor engine");
        assert_eq!(r.accepted, g.accepted, "{}", ctx("accepted"));
        assert_eq!(r.latency, g.latency, "{}", ctx("latency"));
        assert_eq!(r.latency_req, g.latency_req, "{}", ctx("latency_req"));
        assert_eq!(r.latency_rep, g.latency_rep, "{}", ctx("latency_rep"));
        assert_eq!(
            r.misroute_fraction,
            g.misroute_fraction,
            "{}",
            ctx("misroute_fraction")
        );
        assert_eq!(r.avg_hops, g.avg_hops, "{}", ctx("avg_hops"));
        assert_eq!(
            r.reverts_per_packet,
            g.reverts_per_packet,
            "{}",
            ctx("reverts_per_packet")
        );
        assert_eq!(r.drop_fraction, g.drop_fraction, "{}", ctx("drop_fraction"));
        assert_eq!(r.deadlocked, g.deadlocked, "{}", ctx("deadlocked"));
        assert_eq!(r.latency_p99, g.latency_p99, "{}", ctx("latency_p99"));
        assert_eq!(
            r.latency_hist.count(),
            g.hist_count,
            "{}",
            ctx("hist_count")
        );
        assert_eq!(
            r.local_vc_occupancy.as_slice(),
            g.local_vc_occupancy,
            "{}",
            ctx("local_vc_occupancy")
        );
        assert_eq!(
            r.global_vc_occupancy.as_slice(),
            g.global_vc_occupancy,
            "{}",
            ctx("global_vc_occupancy")
        );
        assert_eq!(
            r.flows_completed,
            g.flows_completed,
            "{}",
            ctx("flows_completed")
        );
        assert_eq!(r.fct_p50, g.fct_p50, "{}", ctx("fct_p50"));
        assert_eq!(r.fct_p99, g.fct_p99, "{}", ctx("fct_p99"));
        assert_eq!(r.slowdown_mean, g.slowdown_mean, "{}", ctx("slowdown_mean"));
    }
}

/// Zero-latency links: a packet head is due the cycle it leaves its
/// router and is delivered at the next (the earliest a timing wheel can
/// deliver), with its head and tail arrival stamped at launch. Stamping
/// them at delivery instead would delay every hop by one cycle, which the
/// recorded fields below catch; the driver must equal the single engine
/// at workers 1-3, cut links of latency zero included.
#[test]
fn zero_latency_links_keep_their_launch_timing() {
    let mut cfg =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
            .with_flexvc(Arrangement::dragonfly(4, 2));
    (cfg.local_latency, cfg.global_latency) = (0, 0);
    cfg.warmup = 500;
    cfg.measure = 1_500;
    cfg.watchdog = 4_000;
    let single = Network::new(cfg.clone(), 1.0, 21).unwrap().run();
    // Recorded on the engine that queued packets in per-link pipelines,
    // stamped at launch.
    assert!(!single.deadlocked);
    assert_eq!(single.accepted, 0.8264444444444444);
    assert_eq!(single.latency, 271.1322936273192);
    assert_eq!(single.latency_p99, 512.0);
    assert_eq!(single.latency_hist.count(), 11157);
    let single = flexvc_serde::to_json(&single);
    for shards in [1, 2, 3] {
        let mut sharded_cfg = cfg.clone();
        sharded_cfg.shards = shards;
        let r = ShardedNetwork::new(sharded_cfg, 1.0, 21).unwrap().run();
        assert_eq!(single, flexvc_serde::to_json(&r), "shards={shards}");
    }
}
