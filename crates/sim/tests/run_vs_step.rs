//! The run loops against the one-cycle reference.
//!
//! `Machine::run` and `Machine::run_cycles` skip quiescent cycles in bulk;
//! `Machine::step` always advances exactly one cycle. Skipping must be
//! invisible: every machine here is run twice from the same build, once
//! through the run loops and once through a plain `step()` loop with the
//! same stopping rule, and the full `MachineStats` (and the cycle
//! counter) must be equal — across gating policies (whose gated cycles
//! are the bulk-accounted ones), SMT pairs under every fetch policy, and
//! the `tiny` configuration.

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_sim::{
    EstimatorKind, FetchPolicy, GatingPolicy, Machine, MachineBuilder, MachineStats, SimConfig,
};
use paco_types::Probability;
use paco_workloads::{BenchmarkId, ALL_BENCHMARKS};

fn jrs() -> EstimatorKind {
    EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default())
}

/// PaCo refreshing often enough that skipped cycles cross refreshes.
fn paco() -> EstimatorKind {
    EstimatorKind::Paco(PacoConfig::paper().with_refresh_period(3_000))
}

fn all_kinds() -> [EstimatorKind; 6] {
    [
        EstimatorKind::None,
        paco(),
        jrs(),
        EstimatorKind::StaticMrt,
        EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        EstimatorKind::AdaptiveMrt(
            AdaptiveMrtConfig::paper()
                .with_refresh_period(3_000)
                .with_detect_window(64),
        ),
    ]
}

/// `config` with a cycle cap far above any run here, so a machine the
/// run loop wrongly parks stops there (and fails the comparison) instead
/// of skipping towards `u64::MAX` for ever.
fn capped(config: SimConfig) -> SimConfig {
    SimConfig {
        max_cycles: 1 << 22,
        ..config
    }
}

fn p(v: f64) -> Probability {
    Probability::new(v).unwrap()
}

/// What `Machine::run` does, one `step()` at a time.
fn step_run(m: &mut Machine, instructions: u64, max_cycles: u64) -> MachineStats {
    while m.stats().threads.iter().any(|t| t.retired < instructions) && m.cycle() < max_cycles {
        m.step();
    }
    m.stats()
}

/// What `Machine::run_cycles` does, one `step()` at a time.
fn step_cycles(m: &mut Machine, cycles: u64) -> MachineStats {
    for _ in 0..cycles {
        m.step();
    }
    m.stats()
}

/// Instructions of warmup and of measurement, then cycles of tail.
type Lengths = (u64, u64, u64);

/// Run lengths of the tier-1 cells.
const SHORT: Lengths = (4_000, 8_000, 1_500);

/// Runs two machines from `build` — one through the run loops, one
/// through `step()` — over a warmup, a statistics reset, a measured run
/// and a fixed-cycle tail, comparing full statistics after every phase.
fn assert_run_matches_step(
    label: &str,
    config: SimConfig,
    (warmup, instrs, tail): Lengths,
    build: impl Fn() -> MachineBuilder,
) {
    let max = config.max_cycles;
    let mut run = build().build();
    let mut step = build().build();
    assert_eq!(
        run.run(warmup),
        step_run(&mut step, warmup, max),
        "{label}: warmup"
    );
    run.reset_stats();
    step.reset_stats();
    assert_eq!(
        run.run(instrs),
        step_run(&mut step, instrs, max),
        "{label}: run"
    );
    assert_eq!(
        run.run_cycles(tail),
        step_cycles(&mut step, tail),
        "{label}: run_cycles"
    );
    assert_eq!(run.cycle(), step.cycle(), "{label}: cycle");
}

fn single(
    config: SimConfig,
    bench: BenchmarkId,
    est: EstimatorKind,
    gating: GatingPolicy,
) -> impl Fn() -> MachineBuilder {
    move || {
        MachineBuilder::new(config)
            .thread(Box::new(bench.build(3)), est)
            .gating(gating)
            .seed(11)
    }
}

#[test]
fn run_matches_step_under_every_gating_policy() {
    let policies = [
        ("none", GatingPolicy::None),
        ("count-gate-1", GatingPolicy::CountGate { gate_count: 1 }),
        ("count-throttle-1", GatingPolicy::CountThrottle { start: 1 }),
        ("paco-gate-0.50", GatingPolicy::paco_gate(p(0.50))),
        (
            "paco-throttle-0.90-0.30",
            GatingPolicy::paco_throttle(p(0.90), p(0.30)),
        ),
    ];
    for bench in [BenchmarkId::Mcf, BenchmarkId::Gzip] {
        for (name, gating) in policies {
            // Count policies gate on the count estimator, PaCo's on PaCo.
            let est = if name.starts_with("count") {
                jrs()
            } else {
                paco()
            };
            let config = capped(SimConfig::paper_4wide());
            let label = format!("4wide/{}/{name}", bench.name());
            assert_run_matches_step(&label, config, SHORT, single(config, bench, est, gating));
        }
    }
}

#[test]
fn run_matches_step_for_smt_pairs_under_every_fetch_policy() {
    for policy in [
        FetchPolicy::RoundRobin,
        FetchPolicy::ICount,
        FetchPolicy::Confidence,
    ] {
        for gating in [GatingPolicy::None, GatingPolicy::paco_gate(p(0.50))] {
            let config = capped(SimConfig::paper_smt_8wide());
            let build = move || {
                MachineBuilder::new(config)
                    .thread(Box::new(BenchmarkId::Gzip.build(1)), paco())
                    .thread(Box::new(BenchmarkId::Mcf.build(2)), paco())
                    .fetch_policy(policy)
                    .gating(gating)
                    .seed(5)
            };
            let label = format!("smt8/{policy:?}/{gating:?}");
            assert_run_matches_step(&label, config, SHORT, build);
        }
    }
}

#[test]
fn run_matches_step_on_the_tiny_machine() {
    let config = capped(SimConfig::tiny());
    for est in [jrs(), paco()] {
        let build = single(config, BenchmarkId::Twolf, est, GatingPolicy::None);
        assert_run_matches_step(&format!("tiny/twolf/{est:?}"), config, SHORT, build);
    }
}

#[test]
fn a_machine_that_never_fetches_stops_exactly_at_max_cycles() {
    // Gate count 0 gates every cycle from the first, so the whole run is
    // one idle stretch: it must end at the cycle cap, not one past it,
    // with every cycle counted as gated.
    let config = SimConfig {
        max_cycles: 1_000,
        ..SimConfig::paper_4wide()
    };
    let build = single(
        config,
        BenchmarkId::Gzip,
        jrs(),
        GatingPolicy::CountGate { gate_count: 0 },
    );
    let stats = build().build().run(10);
    assert_eq!(stats.cycles, 1_000);
    assert_eq!(stats.threads[0].gated_cycles, 1_000);
    assert_eq!(stats.threads[0].fetched, 0);
    assert_eq!(stats, step_run(&mut build().build(), 10, 1_000));

    // The same for a fixed-cycle run, starting mid-way.
    let mut m = build().build();
    m.run_cycles(250);
    let stats = m.run_cycles(500);
    assert_eq!((stats.cycles, m.cycle()), (750, 750));
    assert_eq!(stats.threads[0].gated_cycles, 750);
}

/// Every benchmark under every estimator kind, ungated and under a count
/// gate and a PaCo throttle, at the golden test's run lengths (216 machine
/// pairs, kept out of the tier-1 run; CI runs it in release with
/// `--ignored`).
#[test]
#[ignore]
fn run_matches_step_for_every_benchmark_and_estimator() {
    let config = capped(SimConfig::paper_4wide());
    let gatings = [
        GatingPolicy::None,
        GatingPolicy::CountGate { gate_count: 1 },
        GatingPolicy::paco_throttle(p(0.90), p(0.30)),
    ];
    for bench in ALL_BENCHMARKS {
        for est in all_kinds() {
            for gating in gatings {
                let label = format!("4wide/{}/{est:?}/{gating:?}", bench.name());
                let build = single(config, bench, est, gating);
                assert_run_matches_step(&label, config, (20_000, 30_000, 5_000), build);
            }
        }
    }
}
