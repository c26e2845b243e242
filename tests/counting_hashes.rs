//! Pinned report hashes of the counting protocols (Algorithms 1 and 2).
//!
//! Each cell is a small `Sync`-engine run; its report JSON is hashed
//! (FNV-1a, 64 bit) and compared with the table below, which the
//! reference engine produced before the counting hot path was reworked
//! (sorted-row cursor, aligned discovery reports, inline flood paths).
//! The goldens under `tests/golden/` cover one counting shape; these
//! cells cover the rest of the protocol's branches:
//!
//! * every counting adversary on `SmallWorld` at d = 6 (flood paths of
//!   one id) and d = 8 (two ids; n = 128, where Algorithm 2 under
//!   `Silent`, `FakeChain` or `Combined` runs past its discovery rounds);
//! * `Null`, `HonestBehaving` and `Silent` on `SmallWorldH`, whose rows
//!   repeat ids (asserted), on Watts–Strogatz and on a random tree;
//! * each clean and under the v2 golden fault stack (loss, delay, churn
//!   and a partition).
//!
//! A round cap keeps every cell short.  When a report changes on
//! purpose, the failure message lists every cell's new hash.

use byzcount::graph::NodeId;
use byzcount::runtime::Topology;
use byzcount::sim::{PreparedRun, RunSpec};

/// Round caps: at ε = 0.1 phase 1 takes 42 rounds at d = 6 and 56 at
/// d = 8, so these reach the steps at which Algorithm 2 verifies paths
/// (step ≥ k: phase 2 at d = 6, phase 3, from round 76, at d = 8).
const CAP_D6: u64 = 64;
const CAP_D8: u64 = 80;

const FAULT_STACK: &str = r#"{"Compose": [
    {"Loss": {"rate": 0.1}},
    {"Delay": {"max_delay": 2, "rate": 0.2}},
    {"Churn": {"downtime": 4, "rate": 0.01}},
    {"Partition": {"duration": 5, "start": 3}}
]}"#;

const SMALL_WORLD_ADVERSARIES: [&str; 8] = [
    r#""Null""#,
    r#""HonestBehaving""#,
    r#""Silent""#,
    r#"{"ColorInflation": {"timing": "Legal"}}"#,
    r#"{"ColorInflation": {"timing": "LastStep"}}"#,
    r#""Suppression""#,
    r#""FakeChain""#,
    r#""Combined""#,
];

/// The adversaries that need no small-world knowledge.
const PLAIN_ADVERSARIES: [&str; 3] = [r#""Null""#, r#""HonestBehaving""#, r#""Silent""#];

const WORKLOADS: [&str; 2] = ["Basic", "Byzantine"];

fn spec(topology: &str, cap: u64, workload: &str, adversary: &str, fault: &str) -> RunSpec {
    let json = format!(
        r#"{{
            "version": 6,
            "topology": {topology},
            "workload": "{workload}",
            "placement": {{"RandomBudget": {{"delta": 0.6}}}},
            "adversary": {adversary},
            "fault": {fault},
            "engine": "Sync",
            "params": {{"Derived": {{"delta": 0.6, "epsilon": 0.1}}}},
            "seed": 3202,
            "max_rounds": {cap}
        }}"#
    );
    RunSpec::from_json(&json).unwrap_or_else(|e| panic!("corpus spec parses: {e}\n{json}"))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run every cell of `topology` × `adversaries` × algorithm × {clean,
/// faulty} and compare each report's hash with `expected`, in that order.
fn check(family: &str, topology: &str, cap: u64, adversaries: &[&str], expected: &[u64]) {
    let mut actual = Vec::new();
    let mut lines = Vec::new();
    for fault in ["\"None\"", FAULT_STACK] {
        for adversary in adversaries {
            for workload in WORKLOADS {
                let spec = spec(topology, cap, workload, adversary, fault);
                let report = byzcount::sim::execute(&spec).expect("corpus cell runs");
                let hash = fnv1a64(report.to_json().as_bytes());
                let faults = if fault == "\"None\"" {
                    "clean"
                } else {
                    "faulty"
                };
                lines.push(format!(
                    "    0x{hash:016x}, // {workload} {} {faults}",
                    spec.adversary.name()
                ));
                actual.push(hash);
            }
        }
    }
    assert_eq!(
        actual,
        expected,
        "{family}: counting reports drifted from the pinned hashes; \
         if the change is intentional, the new table is:\n{}",
        lines.join("\n")
    );
}

#[test]
fn small_world_d6_reports_are_pinned() {
    check(
        "SmallWorld d=6",
        r#"{"SmallWorld": {"n": 64, "d": 6}}"#,
        CAP_D6,
        &SMALL_WORLD_ADVERSARIES,
        &SMALL_WORLD_D6,
    );
}

#[test]
fn small_world_d8_reports_are_pinned() {
    check(
        "SmallWorld d=8",
        r#"{"SmallWorld": {"n": 128, "d": 8}}"#,
        CAP_D8,
        &SMALL_WORLD_ADVERSARIES,
        &SMALL_WORLD_D8,
    );
}

#[test]
fn expander_only_reports_are_pinned_on_rows_that_repeat_ids() {
    for (topology, cap, expected) in [
        (r#"{"SmallWorldH": {"n": 64, "d": 6}}"#, CAP_D6, &H_D6),
        (r#"{"SmallWorldH": {"n": 128, "d": 8}}"#, CAP_D8, &H_D8),
    ] {
        // The cells only pin the repeated-id rules if some row repeats.
        let prepared = PreparedRun::new(&spec(topology, cap, "Byzantine", "\"Null\"", "\"None\""))
            .expect("corpus cell prepares");
        let graph = prepared.topology();
        let repeats = (0..graph.len() as u32)
            .filter(|&v| graph.neighbors(NodeId(v)).windows(2).any(|w| w[0] == w[1]))
            .count();
        assert!(repeats > 0, "{topology}: no row repeats an id");
        check(topology, topology, cap, &PLAIN_ADVERSARIES, expected);
    }
}

#[test]
fn watts_strogatz_and_tree_reports_are_pinned() {
    check(
        "WattsStrogatz",
        r#"{"WattsStrogatz": {"n": 64, "k_half": 3, "beta": 0.2}}"#,
        CAP_D6,
        &PLAIN_ADVERSARIES,
        &WATTS_STROGATZ,
    );
    check(
        "RandomTree",
        r#"{"RandomTree": {"n": 64, "max_degree": 4}}"#,
        CAP_D6,
        &PLAIN_ADVERSARIES,
        &RANDOM_TREE,
    );
}

const SMALL_WORLD_D6: [u64; 32] = [
    0xab1d42a6be5d8199, // Basic null clean
    0x94241f6e52f9f82c, // Byzantine null clean
    0xbd736d92411a70c3, // Basic honest clean
    0x7e23a766129b475a, // Byzantine honest clean
    0x2ec6689442843dbe, // Basic silent clean
    0xfbfbc2a561979b37, // Byzantine silent clean
    0xb585aabdd8012e87, // Basic inflate-legal clean
    0x112be273af829b4e, // Byzantine inflate-legal clean
    0xb77017102ceeb02b, // Basic inflate-last clean
    0xb9b85a08429bb277, // Byzantine inflate-last clean
    0x570fa9b6c9a8f5fe, // Basic suppress clean
    0x61144ca2a8cd25ff, // Byzantine suppress clean
    0xbde3602bccf13818, // Basic fake-chain clean
    0xeadecf07b4c5b456, // Byzantine fake-chain clean
    0x2338d4a6d825335a, // Basic combined clean
    0xb9bafe2508cf381e, // Byzantine combined clean
    0xf1b764390e4ea4aa, // Basic null faulty
    0x28527296c3e884af, // Byzantine null faulty
    0x8953c3d0d1120b6c, // Basic honest faulty
    0xdc2e85c62a9f6455, // Byzantine honest faulty
    0x080dec6b39e9a7ea, // Basic silent faulty
    0x5f19802e006eb3f6, // Byzantine silent faulty
    0x64ade5379a461c46, // Basic inflate-legal faulty
    0x697527b0613b024e, // Byzantine inflate-legal faulty
    0x80d46ef52fefe6fc, // Basic inflate-last faulty
    0x8e0a5ddf763ed491, // Byzantine inflate-last faulty
    0x2f831f00567b23a0, // Basic suppress faulty
    0x1cd2316be88bb95d, // Byzantine suppress faulty
    0x72cd062802856808, // Basic fake-chain faulty
    0xdf63f1d69a873cce, // Byzantine fake-chain faulty
    0xa71036432b2d109a, // Basic combined faulty
    0x1675b09af19cbb9d, // Byzantine combined faulty
];
const SMALL_WORLD_D8: [u64; 32] = [
    0xe64a89af8333dbc9, // Basic null clean
    0x7ac3f56f23ef9e26, // Byzantine null clean
    0xa0b5c8448cfb862f, // Basic honest clean
    0xca5c213fd41fca48, // Byzantine honest clean
    0x8dc2b331e0d35354, // Basic silent clean
    0x54d1058fd2073c3e, // Byzantine silent clean
    0x27282fe4f3667ad7, // Basic inflate-legal clean
    0xec15dcf9518f4b1d, // Byzantine inflate-legal clean
    0xd5a1c846cb6f59ae, // Basic inflate-last clean
    0x9076072dee46a69c, // Byzantine inflate-last clean
    0xec50e49807592013, // Basic suppress clean
    0x63158e3f094fca0b, // Byzantine suppress clean
    0x4982bc6e830945e0, // Basic fake-chain clean
    0xa91613972690a7ef, // Byzantine fake-chain clean
    0xf8bfe13b40d95e62, // Basic combined clean
    0x76b4b6b492a99811, // Byzantine combined clean
    0x39ff9186356d8c73, // Basic null faulty
    0xfb8a399b29d84771, // Byzantine null faulty
    0xed0ebc2cedc3f505, // Basic honest faulty
    0xcf4a66ce717c5a6b, // Byzantine honest faulty
    0x3ebf026b0f077e82, // Basic silent faulty
    0x488c06fdaebd509c, // Byzantine silent faulty
    0x4a2f84afd22f4709, // Basic inflate-legal faulty
    0xd9d8e4f36f362dc2, // Byzantine inflate-legal faulty
    0xa2af38831919e2af, // Basic inflate-last faulty
    0x9809191b9bf936a3, // Byzantine inflate-last faulty
    0x078cf4d0ce2adf1c, // Basic suppress faulty
    0xba43c352828301b3, // Byzantine suppress faulty
    0xe1c13244c01e5d48, // Basic fake-chain faulty
    0x918310940a2b48a6, // Byzantine fake-chain faulty
    0x32cf8db0eef0ecc6, // Basic combined faulty
    0x9474abe13e318b77, // Byzantine combined faulty
];
const H_D6: [u64; 12] = [
    0x14a6b451054e2fa9, // Basic null clean
    0x409ced42119d6696, // Byzantine null clean
    0xd35d578e43cb7a07, // Basic honest clean
    0x460fdf3763d14118, // Byzantine honest clean
    0x925bc3670a58e9d5, // Basic silent clean
    0xf7509a028841b8be, // Byzantine silent clean
    0x4024b5ee876e915b, // Basic null faulty
    0x58e501d3d0879c7b, // Byzantine null faulty
    0x5b654e5ba746f345, // Basic honest faulty
    0x10a1d36a26418ebd, // Byzantine honest faulty
    0xf0b44b6813cc5684, // Basic silent faulty
    0x81d58021f36ec4a3, // Byzantine silent faulty
];
const H_D8: [u64; 12] = [
    0x825788fa42d4c0f9, // Basic null clean
    0x4192cc20dc242ed4, // Byzantine null clean
    0x658d111d49d3eec3, // Basic honest clean
    0x3a8b89ea43a3691a, // Byzantine honest clean
    0xa9885f73efbe3608, // Basic silent clean
    0xd055206d6d9aa8ae, // Byzantine silent clean
    0x37bebc7d3329ee44, // Basic null faulty
    0x5c34455095352336, // Byzantine null faulty
    0x5d2af1790ee8b1b6, // Basic honest faulty
    0x667117d67509f628, // Byzantine honest faulty
    0x85368740af3d3929, // Basic silent faulty
    0xbfba9f1797e53ae7, // Byzantine silent faulty
];
const WATTS_STROGATZ: [u64; 12] = [
    0x3209fd907e95690d, // Basic null clean
    0x52c09ef11853ecdd, // Byzantine null clean
    0xced3cd0d3c364a77, // Basic honest clean
    0x3421fb2c283f27ef, // Byzantine honest clean
    0xcd2df66ce26a4300, // Basic silent clean
    0xe1765c2c89ebefc0, // Byzantine silent clean
    0xdae6c5a7ee781b45, // Basic null faulty
    0xd57fa309df55ee49, // Byzantine null faulty
    0xfc7fcebd18706ac3, // Basic honest faulty
    0x322aabe99355188f, // Byzantine honest faulty
    0x034e8e36d2aa030f, // Basic silent faulty
    0xdfdb093c48f6fbce, // Byzantine silent faulty
];
const RANDOM_TREE: [u64; 12] = [
    0x5f8a0a6bf166d8cc, // Basic null clean
    0x93240cf8948acbc2, // Byzantine null clean
    0x9f60008363246e32, // Basic honest clean
    0x85b317f1e2b01b70, // Byzantine honest clean
    0x1de093ae71e6d2c1, // Basic silent clean
    0x58e2d00918132a68, // Byzantine silent clean
    0xcccace7f5e2df80a, // Basic null faulty
    0x52e8439b84caa96c, // Byzantine null faulty
    0xce14eb180a4590fc, // Basic honest faulty
    0xd0669835276ad576, // Byzantine honest faulty
    0xadafef1947592381, // Basic silent faulty
    0x7c7e0d968c2f3a25, // Byzantine silent faulty
];
