//! Golden statistics of the cycle-level machine.
//!
//! Every paper figure is a function of `MachineStats`, so any change to
//! the machine's internals (scheduler, completion wheel, fetch order)
//! must leave them bit-identical. This file pins the statistics of a
//! fixed set of cells — 4-wide accuracy machines on three workload
//! characters under every estimator kind, a PaCo-gated machine, two
//! stall-heavy gated mcf machines (count gate and PaCo throttle, whose
//! gated cycles are mostly idle ones), an 8-wide SMT pair under every
//! fetch policy, and the `tiny` configuration — to values captured before
//! the scheduler became event-driven and before the run loops learned to
//! skip idle cycles. It is the oracle that replaces keeping a second
//! scheduler (or a second run loop) around.
//!
//! On a mismatch the assertion prints the whole table as it is now, in
//! the same literal form, so an *intended* behaviour change can be
//! re-pinned by pasting it (and must say why in its commit).

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_sim::{
    EstimatorKind, FetchPolicy, GatingPolicy, MachineBuilder, MachineStats, SimConfig, ThreadStats,
};
use paco_types::Probability;
use paco_workloads::BenchmarkId;

/// Warmup instructions per thread before the statistics reset.
const WARMUP: u64 = 20_000;
/// Measured instructions per thread.
const INSTRS: u64 = 30_000;

/// One pinned cell: label, cycles, then per thread `[retired, fetched,
/// fetched_badpath, executed, executed_badpath, gated_cycles, digest]`.
type Pin = (&'static str, u64, &'static [[u64; 7]]);

#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    ("4wide/gzip/none", 20322, &[
        [30003, 35523, 5535, 30021, 43, 0, 0x5500fa1f5142e3b7],
    ]),
    ("4wide/gzip/jrs", 20322, &[
        [30003, 35523, 5535, 30021, 43, 0, 0x1de44e63852c4f42],
    ]),
    ("4wide/gzip/paco", 20322, &[
        [30003, 35523, 5535, 30021, 43, 0, 0x7ae55da8f4221543],
    ]),
    ("4wide/gzip/static-mrt", 20322, &[
        [30003, 35523, 5535, 30021, 43, 0, 0xd62aba2f3bfa63d4],
    ]),
    ("4wide/gzip/per-branch-mrt", 20322, &[
        [30003, 35523, 5535, 30021, 43, 0, 0x4e286bcaefd0f5aa],
    ]),
    ("4wide/gzip/adaptive-mrt", 20322, &[
        [30003, 35523, 5535, 30021, 43, 0, 0x8b3bfbbc5253d16d],
    ]),
    ("4wide/mcf/none", 32564, &[
        [30002, 34221, 4195, 30109, 35, 0, 0xe01ba38397e3275e],
    ]),
    ("4wide/mcf/jrs", 32564, &[
        [30002, 34221, 4195, 30109, 35, 0, 0xf7114d47f5dfa381],
    ]),
    ("4wide/mcf/paco", 32564, &[
        [30002, 34221, 4195, 30109, 35, 0, 0x8be8ebfb85bcf5c0],
    ]),
    ("4wide/mcf/static-mrt", 32564, &[
        [30002, 34221, 4195, 30109, 35, 0, 0xa69d79ce2398f94f],
    ]),
    ("4wide/mcf/per-branch-mrt", 32564, &[
        [30002, 34221, 4195, 30109, 35, 0, 0xecf193b4dd17e600],
    ]),
    ("4wide/mcf/adaptive-mrt", 32564, &[
        [30002, 34221, 4195, 30109, 35, 0, 0x496449160a7b8028],
    ]),
    ("4wide/perlbmk/none", 12408, &[
        [30003, 30525, 648, 29902, 3, 0, 0xb5236ab1d95856f9],
    ]),
    ("4wide/perlbmk/jrs", 12408, &[
        [30003, 30525, 648, 29902, 3, 0, 0xc9be49a5794e80e6],
    ]),
    ("4wide/perlbmk/paco", 12408, &[
        [30003, 30525, 648, 29902, 3, 0, 0x97f910a6ca10bd37],
    ]),
    ("4wide/perlbmk/static-mrt", 12408, &[
        [30003, 30525, 648, 29902, 3, 0, 0x1055edaff4b526e1],
    ]),
    ("4wide/perlbmk/per-branch-mrt", 12408, &[
        [30003, 30525, 648, 29902, 3, 0, 0x41c71114877fd240],
    ]),
    ("4wide/perlbmk/adaptive-mrt", 12408, &[
        [30003, 30525, 648, 29902, 3, 0, 0x08dfc9aa9a6f742f],
    ]),
    ("4wide/gzip/paco-gate-0.50", 20343, &[
        [30003, 33917, 3913, 30022, 44, 1011, 0xe8bbb765b0b945f6],
    ]),
    ("4wide/mcf/jrs-count-gate-1", 33505, &[
        [30002, 30693, 667, 30098, 24, 12355, 0xbd973a2ffb1c965e],
    ]),
    ("4wide/mcf/paco-throttle-0.90-0.30", 32604, &[
        [30002, 33586, 3560, 30104, 30, 574, 0xd30c91f6e3891491],
    ]),
    ("smt8/gzip+mcf/round-robin", 49160, &[
        [78175, 140191, 62261, 78356, 319, 0, 0x9ba176d43bdc6979],
        [30005, 52952, 22957, 30056, 121, 0, 0x87bddbb1ad448087],
    ]),
    ("smt8/gzip+mcf/icount", 49143, &[
        [77700, 139922, 62462, 77764, 340, 0, 0x13d2bcae0957a441],
        [30000, 53067, 23027, 30100, 106, 0, 0xddb184ca79d2158b],
    ]),
    ("smt8/gzip+mcf/confidence", 50188, &[
        [79899, 144616, 65050, 79921, 293, 0, 0x1c19d178515c07dd],
        [30006, 52134, 22032, 30169, 126, 0, 0xee5df3b1c525e0b1],
    ]),
    ("tiny/twolf/jrs", 111540, &[
        [30001, 34148, 4137, 30066, 65, 0, 0x295f88b208a5ff7a],
    ]),
];

/// FNV-1a over every remaining statistic: branch and MDC counters and
/// the `prob_instances` / `score_instances` bins.
fn digest(t: &ThreadStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = [
        t.cond_retired,
        t.cond_mispredicted,
        t.control_retired,
        t.control_mispredicted,
    ]
    .into_iter()
    .chain(t.mdc_retired)
    .chain(t.mdc_mispredicted)
    .chain(t.prob_instances.iter().flat_map(|&(n, g)| [n, g]))
    .chain(t.score_instances.iter().flat_map(|&(n, g)| [n, g]));
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn row(t: &ThreadStats) -> [u64; 7] {
    [
        t.retired,
        t.fetched,
        t.fetched_badpath,
        t.executed,
        t.executed_badpath,
        t.gated_cycles,
        digest(t),
    ]
}

fn jrs() -> EstimatorKind {
    EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default())
}

/// PaCo with a refresh period short enough that its MRT encodings are
/// measured (not the cold-start defaults) well inside the warmup.
fn paco() -> EstimatorKind {
    EstimatorKind::Paco(PacoConfig::paper().with_refresh_period(4_000))
}

/// AdaptiveMRT with the same short refresh period as [`paco`].
fn adaptive() -> EstimatorKind {
    EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper().with_refresh_period(4_000))
}

/// Warms `builder`'s machine up, resets its statistics, and measures.
fn measure(builder: MachineBuilder) -> MachineStats {
    let mut machine = builder.build();
    machine.run(WARMUP);
    machine.reset_stats();
    machine.run(INSTRS)
}

/// Every golden cell, in table order.
fn cells() -> Vec<(String, MachineStats)> {
    let mut out = Vec::new();
    for bench in [BenchmarkId::Gzip, BenchmarkId::Mcf, BenchmarkId::Perlbmk] {
        for (name, est) in [
            ("none", EstimatorKind::None),
            ("jrs", jrs()),
            ("paco", paco()),
            ("static-mrt", EstimatorKind::StaticMrt),
            (
                "per-branch-mrt",
                EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
            ),
            ("adaptive-mrt", adaptive()),
        ] {
            let b = MachineBuilder::new(SimConfig::paper_4wide())
                .thread(Box::new(bench.build(3)), est)
                .seed(11);
            out.push((format!("4wide/{}/{name}", bench.name()), measure(b)));
        }
    }
    let gate = GatingPolicy::paco_gate(Probability::new(0.50).unwrap());
    let b = MachineBuilder::new(SimConfig::paper_4wide())
        .thread(Box::new(BenchmarkId::Gzip.build(3)), paco())
        .gating(gate)
        .seed(11);
    out.push(("4wide/gzip/paco-gate-0.50".to_string(), measure(b)));
    for (name, est, gating) in [
        (
            "jrs-count-gate-1",
            jrs(),
            GatingPolicy::CountGate { gate_count: 1 },
        ),
        (
            "paco-throttle-0.90-0.30",
            paco(),
            GatingPolicy::paco_throttle(
                Probability::new(0.90).unwrap(),
                Probability::new(0.30).unwrap(),
            ),
        ),
    ] {
        let b = MachineBuilder::new(SimConfig::paper_4wide())
            .thread(Box::new(BenchmarkId::Mcf.build(3)), est)
            .gating(gating)
            .seed(11);
        out.push((format!("4wide/mcf/{name}"), measure(b)));
    }
    for (name, policy) in [
        ("round-robin", FetchPolicy::RoundRobin),
        ("icount", FetchPolicy::ICount),
        ("confidence", FetchPolicy::Confidence),
    ] {
        let b = MachineBuilder::new(SimConfig::paper_smt_8wide())
            .thread(Box::new(BenchmarkId::Gzip.build(1)), paco())
            .thread(Box::new(BenchmarkId::Mcf.build(2)), paco())
            .fetch_policy(policy)
            .seed(5);
        out.push((format!("smt8/gzip+mcf/{name}"), measure(b)));
    }
    let b = MachineBuilder::new(SimConfig::tiny())
        .thread(Box::new(BenchmarkId::Twolf.build(7)), jrs())
        .seed(3);
    out.push(("tiny/twolf/jrs".to_string(), measure(b)));
    out
}

fn render(actual: &[(String, MachineStats)]) -> String {
    let mut s = String::from("const GOLDEN: &[Pin] = &[\n");
    for (label, stats) in actual {
        s += &format!("    (\"{label}\", {}, &[\n", stats.cycles);
        for t in &stats.threads {
            let r = row(t);
            s += &format!(
                "        [{}, {}, {}, {}, {}, {}, {:#018x}],\n",
                r[0], r[1], r[2], r[3], r[4], r[5], r[6]
            );
        }
        s += "    ]),\n";
    }
    s + "];\n"
}

#[test]
fn machine_statistics_match_golden_values() {
    let actual = cells();
    let matches = actual.len() == GOLDEN.len()
        && actual.iter().zip(GOLDEN).all(|((label, stats), pin)| {
            label == pin.0
                && stats.cycles == pin.1
                && stats.threads.iter().map(row).eq(pin.2.iter().copied())
        });
    assert!(
        matches,
        "machine statistics drifted from the golden values; now:\n{}",
        render(&actual)
    );
}
