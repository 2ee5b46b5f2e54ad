//! The wire format of scenario documents, pinned from both ends: FNV-1a
//! digests of every built-in scenario as TOML and JSON at three scales,
//! and every accepted alias, shorthand and legacy spelling with the value
//! it must decode to.

use flexvc_bench::scenario::ScenarioRegistry;
use flexvc_bench::Scale;
use flexvc_core::{Arrangement, RoutingMode::*};
use flexvc_serde::{from_json, from_toml, to_json, to_toml, Deserialize};
use flexvc_sim::{BufferOrg, ClassVcMap, QosConfig, SimConfig};
use flexvc_traffic::{FlowPattern, Pattern, SizeDist, Workload};
use std::fmt::Debug;

/// Per scenario: the TOML and JSON digests at the test windows (h = 2,
/// 100/200 cycles), at `--h 3` and at `--paper`.
const PINS: &str = "\
tables f460b6f04eae0243 1742aab39ff8a1b2 6122e8d3849df5b3 22802a08fd790c62 54754d53eb61f236 05fa38b0a5aa8fed
fig5 af19dd43201a85cf 2d3352b37a82f292 07ca6a2218aca548 41e54a3d94e79243 df1734c591f7fab7 6e7bbaead9716340
fig6 6b2ac75e6e8010b5 5c9995ebf72da16b 04b460f312afc5a0 a31246cefbcd7eea b00495ec88bd1f13 e65021f02a23ac1d
fig7 4223c7bcc1cc6dec b5c546774ccb007b 07ed94503bc87a4d 66f13239299ebfc8 dfbb3b2a128a0e80 94ff348f428ecc83
fig8 33cba6c91972b55e 30461bc469ae5d0b 70abd37c7be799f7 c14bba52926e00ae 66849fee671b38e8 9b889412016a140f
fig9 a2bc256d39d3b15b f4fa9203085532fb 47d450a3fdb4b5ec 9d0a759b37dd3d72 b95ccde91febc873 44366f58c3fd62bf
fig10 fbaed0cb23d8a705 af0f26887315b93c bf32de825507b632 4bd6e50256021501 9b17b4ef9e504e77 7b8c5db7310457e2
fig11 2e79df3b518ecb93 58b1ee39c8572a07 6fe6e96c0ae9c83c 2457f267cb95ba04 29e1901a394de275 e569684a9841db89
ablations b683a2cea7d67d0a 62c10c5cac36f619 d65739e4f4948a6a 51069d986a232cf1 f314d88ba9bae36e 9099b8f14b5ff4c7
hyperx-un-2d a573d704c12521da 48b5393030ed4f85 a3a33aca9927fd64 35ad476f6ae4c223 fd8541c032d0c78c 597bdc5919e87e9b
hyperx-un-3d d5f82f3f49b7aa11 97d7e783d0315318 0a7af1bb97eecfb1 e3fc0aa0da2c9d28 92057eb89c05d753 ce31a34e9adb1482
hyperx-adv-2d 558bed45394f7a58 08cf1814c84a2dc9 aa32ed7f4ee2b1c0 7039c952f3c3a969 987f6122e2d27aca 946db3d7e1672045
hyperx-adv-3d fac09a287e1ebc01 b5ce5ba54ce9cd62 13312d6c7e2b35e3 d8f7bb994b8aa5b8 392c4e0799a2194d 40df17cbdc8c5816
hyperx-k2 781a8c6bbdb3321e 7f00153bf830dc25 b38e3ba4cbe1871e 3e694b270dbaa6e1 f706ddcc043b375a b61edf816b8ad63f
dfplus-un bd933172f8eafe89 05089a11813e505a 399effd741208cbd cc89ce269d6b01ca 3907ac51a1632e21 a5b894c78e14f8fe
dfplus-adv ffc9369d2308c267 60f7f1eb27e1479e a9d933a93786b48d 2990f4939d2f8096 dd094dbf5833b389 8dfd92bd68080d0a
dragonfly-paper 4d54f66a9afcb8c8 bbeb22d29cb7aa09 6cc3179a18a824d8 3d4806cc7cb3a7b9 c892f06482a44f6c ccc7e359cc59a7c7
hyperx-paper a39f29b7a1e135ae 9d1609ba5cd21951 d3a673766958b076 4fd594a161258b11 47e6c4c8985d3f72 4a5a301245d0b04f
dfplus-paper 8fe96843012b4e24 6269f5fa94edbebb 2f7d23bbafadfb74 2de1d584689696cb fcb4073c512d9278 752d596c23e05f7d
flows-un 9a5d0e09d3869301 271d8d79f6e81f9e 8b35a8698575eb34 54e43d0199fb84ab 2ab0ffe19f0d3c45 1773d890f30a60f2
flows-permutation f7463bbc6433e4db d9537ecf54f7a390 46b2f4155c2a5bba 6793a8feb42a83ed a3c02ffe6d0c040b ffa26bdc4cbe2ab4
flows-incast c28f157699dba576 49eb04c1946daae9 502c522d0460e083 382633a2532ab450 f2c46c504db51ce0 0ce8e091f022d42d
qos-dragonfly 61babaebcbe1264f d38dc418337be736 e5f88ec56f4875fe c3e205ce0f1f53f3 b597d73b437a3a37 e311bdb8648141fe
qos-hyperx d4af564d850585b5 2d3eb4a016de671e 29c2b1f2e91da1bd 056a4e939ad70f56 177829f6bad3ba9b 2795a6b05b50dc2c
smoke ecf2d46eadb4a9bb 936f356c0e1287e0 ecf2d46eadb4a9bb 936f356c0e1287e0 ecf2d46eadb4a9bb 936f356c0e1287e0
";

#[test]
fn emitted_documents_are_pinned() {
    let (mut test, mut h3) = (Scale::default(), Scale::default());
    (test.warmup, test.measure, h3.h) = (100, 200, 3);
    let scales = [test, h3, Scale::paper()];
    let fnv1a = |text: String| {
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    let mut now = String::new();
    for entry in ScenarioRegistry::builtin().entries() {
        now.push_str(entry.name);
        for sc in scales.iter().map(|scale| entry.build(scale)) {
            let (toml, json) = (fnv1a(to_toml(&sc).unwrap()), fnv1a(to_json(&sc)));
            now.push_str(&format!(" {toml:016x} {json:016x}"));
        }
        now.push('\n');
    }
    let moved: Vec<&str> = now.lines().filter(|l| !PINS.contains(l)).collect();
    assert!(
        moved.is_empty() && now == PINS,
        "moved: {moved:#?}\nnow:\n{now}"
    );
}

/// Decode `doc` and compare it with `want`.
fn decodes<T: Deserialize + PartialEq + Debug>(doc: &str, want: &T) {
    let got: T = from_json(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
    assert_eq!(&got, want, "{doc}");
}

/// `want => spelling, ...;`: each spelling decodes to `want`. A spelling
/// that starts with `{` is a JSON map, any other a JSON string.
macro_rules! spells {
    ($($want:expr => $($spelling:literal),+;)+) => {$($(
        let doc: &str = $spelling;
        match doc.starts_with('{') {
            true => decodes(doc, &$want),
            false => decodes(&format!("{doc:?}"), &$want),
        }
    )+)+};
}

#[test]
fn aliases_shorthands_and_legacy_spellings_decode() {
    spells! {
        Valiant => "val", "VAL", "Valiant";
        Piggyback => "pb", "PB";
        UgalL => "ugal", "ugal-l", "UGAL_L";
        UgalG => "ugal-g", "Ugal_G";
        Pattern::Uniform => "un", "UN", r#"{"kind": "uniform"}"#;
        Pattern::adv1() => "adv+1", "ADV", r#"{"kind": "adversarial"}"#;
        Pattern::bursty() => "bursty-un", "bursty", r#"{"kind": "bursty_uniform"}"#;
        FlowPattern::Uniform => "flows-un", "un";
        FlowPattern::Permutation => "perm", "PERM", r#"{"kind": "permutation"}"#;
        FlowPattern::Hotspot { hotspots: 4, fraction: 0.2 } => "hotspot", r#"{"kind": "hotspot"}"#;
        FlowPattern::incast(4) => "incast", r#"{"kind": "Incast"}"#;
        SizeDist::mice_elephants() => "mice_elephants", "bimodal";
        SizeDist::heavy_tail() => "heavy_tail", "Pareto", r#"{"kind": "pareto"}"#;
        SizeDist::Fixed { packets: 1 } => r#"{"kind": "fixed"}"#;
        BufferOrg::Damq { private_fraction: 0.75 } => "damq", "DAMQ", r#"{"kind": "damq"}"#;
        BufferOrg::Static => "Static", r#"{"kind": "static"}"#;
        ClassVcMap::Shared => "SHARED", r#"{"kind": "shared"}"#;
        QosConfig::shared() => "{}", r#"{"vc_map": "shared"}"#;
        // The synthetic workload predates `kind` and needs none.
        Workload::oblivious(Pattern::Uniform) => r#"{"pattern": "un"}"#;
        Workload::reactive(Pattern::adv1()) => r#"{"pattern": "adv+1", "reactive": true}"#;
    }
    assert!(from_json::<Pattern>(r#""warp""#).is_err());
    assert!(from_json::<ClassVcMap>(r#""partitioned""#).is_err());
}

/// Sparse configurations: every omitted key takes its Table V value on
/// the `h = 2` Dragonfly, and an omitted arrangement is derived from the
/// document's topology, routing and workload.
#[test]
fn sparse_configs_decode_to_table_v() {
    let rr = Workload::reactive(Pattern::adv1());
    let base = |routing| SimConfig::dragonfly_baseline(2, routing, rr);
    let on = |topology, arrangement| SimConfig {
        topology,
        arrangement,
        ..base(Valiant)
    };
    let hyperx = |n, s| SimConfig::hyperx_baseline(n, s, 2, Valiant, rr).topology;
    let dfplus = SimConfig::dfplus_baseline(2, 2, 2, 5, Valiant, rr).topology;
    let dfplus_keys = "leaves = 2\nspines = 2\nhosts_per_leaf = 2\ngroups = 5";
    let topology = |kind: &str, keys: &str| {
        format!("routing = \"val\"\n[topology]\nkind = \"{kind}\"\n{keys}")
    };
    let check = |doc: &str, want: SimConfig| {
        let doc = format!("{doc}\n[workload]\npattern = \"adv+1\"\nreactive = true\n");
        let got: SimConfig = from_toml(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert_eq!(to_json(&got), to_json(&want), "{doc}");
    };
    let (hx3, hx2) = (hyperx(3, 3), hyperx(2, 4));
    let df_rr = Arrangement::dragonfly_rr((4, 2), (4, 2));
    check("", base(Min));
    check("routing = \"par\"", base(Par));
    check("routing = \"UGAL-G\"", base(UgalG));
    check(
        &topology("hyperx", "s = [3, 3, 3]\np = 2"),
        on(hx3, Arrangement::generic_rr(6, 6)),
    );
    check(
        &topology("flat_butterfly", "k = 4\np = 2"),
        on(hx2, Arrangement::generic_rr(4, 4)),
    );
    for kind in ["dragonfly_plus", "dragonflyplus", "Megafly"] {
        check(
            &topology(kind, dfplus_keys),
            on(dfplus.clone(), df_rr.clone()),
        );
    }
}
