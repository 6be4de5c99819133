//! Benchmarks of the timing simulator itself: cycles/second and
//! instructions/second across workload characters, plus the gating and
//! SMT fetch-order paths of the machine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use paco::{PacoConfig, ThresholdCountConfig};
use paco_sim::{EstimatorKind, FetchPolicy, GatingPolicy, MachineBuilder, SimConfig};
use paco_types::Probability;
use paco_workloads::BenchmarkId;

fn machine(bench: BenchmarkId, estimator: EstimatorKind) -> paco_sim::Machine {
    MachineBuilder::new(SimConfig::paper_4wide())
        .thread(Box::new(bench.build(1)), estimator)
        .seed(1)
        .build()
}

fn bench_simulation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_20k_instructions");
    group.sample_size(10);
    group.throughput(Throughput::Elements(20_000));
    for bench in [BenchmarkId::Gzip, BenchmarkId::Mcf, BenchmarkId::Twolf] {
        group.bench_function(bench.name(), |b| {
            b.iter_batched(
                || machine(bench, EstimatorKind::None),
                |mut m| m.run(20_000),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_estimator_overhead(c: &mut Criterion) {
    // How much the confidence hooks cost the simulator (the paper's
    // hardware adds <60B of state; our model should add little time).
    let mut group = c.benchmark_group("estimator_overhead_20k");
    group.sample_size(10);
    for (name, est) in [
        ("none", EstimatorKind::None),
        ("paco", EstimatorKind::Paco(PacoConfig::paper())),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || machine(BenchmarkId::Gzip, est),
                |mut m| m.run(20_000),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_machine_paths(c: &mut Criterion) {
    // The scheduler, gating, idle-skip and SMT fetch-order paths: a
    // PaCo-gated 4-wide machine, a stall-heavy count-gated mcf machine
    // (most of its cycles are idle, gated ones the run loop skips), and
    // an ICOUNT SMT pair (20k instructions per thread).
    let mut group = c.benchmark_group("machine_paths_20k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(20_000));
    let paco = EstimatorKind::Paco(PacoConfig::paper());
    let gate = GatingPolicy::paco_gate(Probability::new(0.20).expect("0.20 is a probability"));
    group.bench_function("paco_gated_4wide", |b| {
        b.iter_batched(
            || {
                MachineBuilder::new(SimConfig::paper_4wide())
                    .thread(Box::new(BenchmarkId::Gzip.build(1)), paco)
                    .gating(gate)
                    .seed(1)
                    .build()
            },
            |mut m| m.run(20_000),
            BatchSize::LargeInput,
        )
    });
    let jrs = EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default());
    group.bench_function("mcf_count_gated_4wide", |b| {
        b.iter_batched(
            || {
                MachineBuilder::new(SimConfig::paper_4wide())
                    .thread(Box::new(BenchmarkId::Mcf.build(1)), jrs)
                    .gating(GatingPolicy::CountGate { gate_count: 1 })
                    .seed(1)
                    .build()
            },
            |mut m| m.run(20_000),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("icount_smt_pair", |b| {
        b.iter_batched(
            || {
                MachineBuilder::new(SimConfig::paper_smt_8wide())
                    .thread(Box::new(BenchmarkId::Gzip.build(1)), paco)
                    .thread(Box::new(BenchmarkId::Twolf.build(2)), paco)
                    .fetch_policy(FetchPolicy::ICount)
                    .seed(1)
                    .build()
            },
            |mut m| m.run(20_000),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    use paco_workloads::Workload;
    let mut group = c.benchmark_group("workload_stream");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("gcc_next_instr_x10k", |b| {
        let mut w = BenchmarkId::Gcc.build(3);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(w.next_instr().pc.addr());
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation_throughput,
    bench_estimator_overhead,
    bench_machine_paths,
    bench_workload_generation
);
criterion_main!(benches);
