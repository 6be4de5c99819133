//! `paper_sim`: the paper-reproduction path on one thread.
//!
//! Each operation is a sweep like an experiment grid's:
//! `paco_bench::engine::execute_cell` on one `Accuracy` cell and one
//! PaCo `Gating` cell (gzip model, the paper's 4-wide machine,
//! [`INSTRS`] measured instructions after [`WARMUP`]) for each of
//! [`SUBSEEDS`] cell seeds derived from the benchmark seed. The model
//! instance a cell seed draws sets its simulated IPC, and host time
//! follows simulated cycles, so one draw can cost three times another;
//! a sweep over many draws measures the model rather than one draw.
//! The estimators here run per instruction through `dyn` dispatch, with
//! probabilities feeding the gating policy — the same `core` code the
//! serving kernel uses, per_thread differently.
//!
//! Correctness: the canary cells (seed [`CANARY_SEED`]) must reproduce
//! [`PINNED`] exactly — that check is the workload's set-up — and every
//! sweep must repeat the statistics of a reference sweep run before the
//! window.

use std::time::{Duration, Instant};

use paco::PacoConfig;
use paco_bench::engine::{execute_cell, CellResult};
use paco_bench::spec::{CellSpec, RunParams};
use paco_sim::{EstimatorKind, GatingPolicy};
use paco_types::Probability;
use paco_workloads::BenchmarkId;

use crate::common::{self, Args, Outcome};
use crate::host;
use crate::layers::{self, ReplaySession};
use crate::trace::{Open, Tracer};

/// Measured instructions per cell.
pub const INSTRS: u64 = 8_000;
/// Warmup instructions per cell.
pub const WARMUP: u64 = 2_000;
/// Cell seeds per sweep.
pub const SUBSEEDS: u64 = 64;
/// Seed of the canary cells.
pub const CANARY_SEED: u64 = 42;
/// Canary statistics: (cycles, retired, badpath fetched) of the
/// accuracy cell, then of the gating cell.
pub const PINNED: [(u64, u64, u64); 2] = [(11019, 8000, 1534), (10961, 8000, 1555)];

/// The estimator under test.
pub fn paco_kind() -> EstimatorKind {
    EstimatorKind::Paco(PacoConfig::paper())
}

/// The operation's two cells for `seed`.
pub fn cells(seed: u64) -> [CellSpec; 2] {
    let params = RunParams {
        instrs: INSTRS,
        seed,
        warmup: WARMUP,
    };
    let gate = GatingPolicy::paco_gate(Probability::new(0.20).expect("0.20 is a probability"));
    [
        CellSpec::accuracy(BenchmarkId::Gzip, paco_kind(), &params),
        CellSpec::gating(BenchmarkId::Gzip, paco_kind(), gate, &params),
    ]
}

/// Instructions one operation simulates.
const OP_INSTRS: u64 = SUBSEEDS * 2 * (INSTRS + WARMUP);

fn key(r: &CellResult) -> (u64, u64, u64) {
    (
        r.stats.cycles,
        r.stats.total_retired(),
        r.stats.total_badpath_fetched(),
    )
}

/// The cell pairs of one run: one per cell seed derived from `seed`.
fn run_cells(seed: u64) -> Vec<[CellSpec; 2]> {
    (0..SUBSEEDS)
        .map(|j| cells(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(j)))
        .collect()
}

/// Set-up: the canary check.
fn canary(out: &mut Outcome) {
    for (cell, pinned) in cells(CANARY_SEED).iter().zip(PINNED) {
        out.attempted += 1;
        let got = key(&execute_cell(cell));
        if got != pinned {
            out.failed += 1;
            out.note(format!(
                "canary cell statistics {got:?} differ from pinned {pinned:?}"
            ));
        }
    }
}

/// The reference sweep: every cell of the run once.
fn reference(seed: u64) -> Vec<([CellSpec; 2], Vec<CellResult>)> {
    run_cells(seed)
        .into_iter()
        .map(|pair| {
            let reference = pair.iter().map(execute_cell).collect();
            (pair, reference)
        })
        .collect()
}

/// A measured window.
struct Window {
    /// Operation latencies, ns, in execution order.
    latency_ns: Vec<u64>,
    ops: u64,
    elapsed: f64,
}

fn window(
    cells: &[([CellSpec; 2], Vec<CellResult>)],
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Window {
    let mut latency_ns = Vec::new();
    let first = Instant::now();
    let deadline = first + Duration::from_secs_f64(seconds);
    let mut ops = 0u64;
    loop {
        let t = Instant::now();
        if t >= deadline {
            break;
        }
        let op = tracer.open("paper_sim.sweep", Open::root(), ops);
        for (pair, reference) in cells {
            for (cell, want) in pair.iter().zip(reference) {
                let got = tracer.span("sim.engine.execute_cell", op, ops, || execute_cell(cell));
                out.attempted += 1;
                if &got != want {
                    out.failed += 1;
                    out.note(format!("sweep {ops}: cell statistics did not repeat"));
                }
            }
        }
        tracer.close(op);
        latency_ns.push(t.elapsed().as_nanos() as u64);
        ops += 1;
    }
    Window {
        latency_ns,
        ops,
        elapsed: first.elapsed().as_secs_f64(),
    }
}

impl Window {
    /// Median over sweeps of simulated instructions per second.
    fn instr_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .latency_ns
            .iter()
            .map(|&ns| OP_INSTRS as f64 * 1e9 / ns as f64)
            .collect();
        crate::stats::median(&rates)
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.latency_ns.clone();
        v.sort_unstable();
        v
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let mut setups = common::Setups::default();
    setups.before(|| canary(&mut out));
    let cells = reference(args.seed);
    let mut tracer = Tracer::new(Instant::now(), false);
    let w = window(&cells, args.seconds, &mut tracer, &mut out);
    let rss = host::peak_rss_mib();
    setups.after(|| canary(&mut out), drop);
    let sorted = w.sorted();
    out.note(common::latency_note("sweep", &sorted));
    out.note(format!(
        "{} sweeps ({OP_INSTRS} simulated instructions each, {SUBSEEDS} cell seeds) in {:.3} s; \
         simulated cycles per cell seed {:?}",
        w.ops,
        w.elapsed,
        cells
            .iter()
            .map(|(_, r)| (r[0].stats.cycles, r[1].stats.cycles))
            .collect::<Vec<_>>()
    ));
    let (p50, tail) =
        common::p50_tail_us("sweep", &sorted, common::TAIL_PCT).unwrap_or_else(|e| panic!("{e}"));
    out.metric("setup_s", setups.median(), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("throughput_per_s", w.instr_per_s(), "1/s");
    out.metric("latency_p50_us", p50, "us");
    out.metric("latency_tail_us", tail, "us");
    out
}

/// The traced run: half the window untraced, half traced, the
/// simulator probe, and — since this workload serves nothing — a short
/// `stream` window, the session probe and the frame replay on the
/// seed's served events for the serving layers.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Vec::new();
    canary(&mut out);
    let cells = reference(args.seed);
    let epoch = Instant::now();
    let half = args.seconds / 2.0;
    let plain = window(&cells, half, &mut Tracer::new(epoch, false), &mut out);
    let mut tracer = Tracer::new(epoch, true);
    let traced = window(&cells, half, &mut tracer, &mut out);
    spans.push(tracer.into_spans());
    let overhead = plain.instr_per_s() / traced.instr_per_s();
    out.note(format!(
        "trace overhead: untraced/traced instructions per second = {overhead:.4}"
    ));
    let sim = layers::sim_probe(args.seed, &mut out, &mut spans);

    let mut live = crate::stream::setup(args.seed);
    let w = crate::stream::window(&mut live, STREAM_PROBE_SECONDS, true, epoch);
    out.attempted += w.attempted;
    out.failed += w.failed;
    let server = layers::server_layers(
        &live.server.metrics().batch_handle_ns.snapshot(),
        &w.rtt_ns,
        w.events,
        w.server_cpu,
        w.client_cpu,
    );
    spans.extend(w.spans);
    let session =
        crate::churn::session_probe(live.server.addr(), args.seed, epoch, &mut out, &mut spans);
    crate::stream::verify(&live, &mut out);
    let replay: Vec<ReplaySession<'_>> = crate::stream::replay_input(&live);
    let ladder = layers::ladder(&replay, &mut out, &mut spans);
    live.close();
    layers::emit(&mut out, &ladder, &sim, &server, &session, overhead);
    layers::write_spans("paper_sim", args.seed, spans, &mut out);
    out
}

/// Length of the `stream` window in this workload's traced run.
const STREAM_PROBE_SECONDS: f64 = 1.0;
