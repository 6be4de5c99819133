//! The per-layer breakdown of a traced run.
//!
//! Three sources feed it:
//!
//! * live spans around every `Client` call, the server's own
//!   `batch_handle_ns` histogram, and per-thread CPU from schedstat
//!   ([`ServerLayers`], [`SessionLayers`]);
//! * an in-process replay of served frames through the same public
//!   calls `paco-served` makes per EVENTS frame, in the same order —
//!   `decode_events_into` → `run_batch` → `encode_outcomes_into` →
//!   `observe_batch` → metering — each inside its own span
//!   ([`ladder`]);
//! * simulator probes through `paco_bench::engine::execute_cell` and
//!   `Workload::next_instr` ([`sim_probe`]).
//!
//! A layer cost obtained as a difference of two measurements is
//! compared with the run-to-run noise of those measurements; a note
//! flags any difference smaller than the noise.

use std::time::Instant;

use paco_bench::engine::execute_cell;
use paco_bench::spec::{CellSpec, RunParams};
use paco_obs::HistogramSnapshot;
use paco_serve::proto::{decode_events_into, encode_events, encode_outcomes_into};
use paco_serve::{Digest, FrameKind, ServeMetrics, WatchState};
use paco_sim::{EstimatorKind, OnlineConfig, OnlinePipeline, OutcomeBatch};
use paco_types::{DynInstr, EventBatch};
use paco_workloads::{BenchmarkId, Workload};

use crate::common::{none_config, paco_config, Outcome, FAMILY};
use crate::host::Cpu;
use crate::stats::{median, percentile, relative_iqr};
use crate::trace::{self, Open, Span, Tracer};

/// Server-side and client-side costs of a live window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLayers {
    /// `batch_handle_ns` median, µs.
    pub handle_p50_us: f64,
    /// `batch_handle_ns` tail (≤ p99), µs.
    pub handle_p99_us: f64,
    /// Client frame RTT median minus handle median, µs.
    pub residual_p50_us: f64,
    /// Shard and accept threads' CPU per event, ns.
    pub cpu_ns_per_event: f64,
    /// Shard and accept threads' run-queue wait per event, ns.
    pub runq_wait_ns_per_event: f64,
    /// Load threads' CPU per event, ns.
    pub client_cpu_ns_per_event: f64,
}

/// Server and client layer costs of a live window from the server's
/// handle-time histogram, the client's sorted frame round trips, the
/// events answered and the threads' CPU.
pub fn server_layers(
    handle: &HistogramSnapshot,
    rtt_sorted: &[u64],
    events: u64,
    server: Cpu,
    client: Cpu,
) -> ServerLayers {
    let rtt_p50_us = percentile(rtt_sorted, 50).map_or(0.0, |q| q.value as f64 / 1e3);
    let per_event = |ns: u64| ns as f64 / events.max(1) as f64;
    ServerLayers {
        handle_p50_us: handle.quantile(0.50) / 1e3,
        handle_p99_us: handle.quantile(0.99) / 1e3,
        residual_p50_us: rtt_p50_us - handle.quantile(0.50) / 1e3,
        cpu_ns_per_event: per_event(server.run_ns),
        runq_wait_ns_per_event: per_event(server.wait_ns),
        client_cpu_ns_per_event: per_event(client.run_ns),
    }
}

/// Session lifecycle costs from a churn window.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionLayers {
    /// Fresh HELLO round trip, µs.
    pub hello_p50_us: f64,
    /// Tail of the above.
    pub hello_p99_us: f64,
    /// Resume by id, first attempt to WELCOME, µs.
    pub resume_p50_us: f64,
    /// Tail of the above.
    pub resume_p99_us: f64,
    /// MIGRATE round trip, µs.
    pub migrate_p50_us: f64,
    /// Tail of the above.
    pub migrate_p99_us: f64,
    /// Refused resume attempts per resume.
    pub resume_retry_ratio: f64,
    /// Size of one paper-config session snapshot.
    pub snapshot_bytes: f64,
}

/// Per-frame serving costs from the in-process replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LadderLayers {
    /// `decode_events_into`, ns per event.
    pub decode_ns_per_event: f64,
    /// `encode_outcomes_into`, ns per event.
    pub encode_ns_per_event: f64,
    /// `run_batch` with PaCo, ns per event.
    pub run_batch_ns_per_event: f64,
    /// `run_batch` with no estimator, ns per event.
    pub none_ns_per_event: f64,
    /// PaCo minus no estimator, ns per event.
    pub paco_ns_per_event: f64,
    /// `observe_batch`, ns per event.
    pub watch_ns_per_event: f64,
    /// Metering, ns per frame.
    pub obs_ns_per_frame: f64,
}

/// Simulator costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimLayers {
    /// The machine's own host time per simulated instruction (no
    /// estimator, generator excluded), ns.
    pub machine_ns_per_instr: f64,
    /// Simulated cycles of the PaCo accuracy cell.
    pub cycles: f64,
    /// PaCo minus no estimator in the machine, ns per instruction.
    pub paco_sim_ns_per_instr: f64,
    /// `Workload::next_instr`, ns per instruction.
    pub gen_ns_per_instr: f64,
}

/// Adds every per-layer metric, in `BENCHMARK.json` order.
pub fn emit(
    out: &mut Outcome,
    ladder: &LadderLayers,
    sim: &SimLayers,
    server: &ServerLayers,
    session: &SessionLayers,
    overhead_ratio: f64,
) {
    out.metric(
        "proto.decode_ns_per_event",
        ladder.decode_ns_per_event,
        "ns",
    );
    out.metric(
        "proto.encode_ns_per_event",
        ladder.encode_ns_per_event,
        "ns",
    );
    out.metric(
        "sim.online.run_batch_ns_per_event",
        ladder.run_batch_ns_per_event,
        "ns",
    );
    out.metric(
        "sim.online.none_ns_per_event",
        ladder.none_ns_per_event,
        "ns",
    );
    out.metric("core.paco_ns_per_event", ladder.paco_ns_per_event, "ns");
    out.metric(
        "core.paco_sim_ns_per_instr",
        sim.paco_sim_ns_per_instr,
        "ns",
    );
    out.metric("serve.watch.ns_per_event", ladder.watch_ns_per_event, "ns");
    out.metric("obs.ns_per_frame", ladder.obs_ns_per_frame, "ns");
    out.metric("serve.server.handle_p50_us", server.handle_p50_us, "us");
    out.metric("serve.server.handle_p99_us", server.handle_p99_us, "us");
    out.metric("serve.server.residual_p50_us", server.residual_p50_us, "us");
    out.metric(
        "serve.server.cpu_ns_per_event",
        server.cpu_ns_per_event,
        "ns",
    );
    out.metric(
        "serve.server.runq_wait_ns_per_event",
        server.runq_wait_ns_per_event,
        "ns",
    );
    out.metric(
        "serve.client.cpu_ns_per_event",
        server.client_cpu_ns_per_event,
        "ns",
    );
    out.metric("serve.session.hello_p50_us", session.hello_p50_us, "us");
    out.metric("serve.session.hello_p99_us", session.hello_p99_us, "us");
    out.metric("serve.session.resume_p50_us", session.resume_p50_us, "us");
    out.metric("serve.session.resume_p99_us", session.resume_p99_us, "us");
    out.metric("serve.session.migrate_p50_us", session.migrate_p50_us, "us");
    out.metric("serve.session.migrate_p99_us", session.migrate_p99_us, "us");
    out.metric(
        "serve.session.resume_retry_ratio",
        session.resume_retry_ratio,
        "ratio",
    );
    out.metric(
        "serve.session.snapshot_bytes",
        session.snapshot_bytes,
        "bytes",
    );
    out.metric("sim.machine.ns_per_instr", sim.machine_ns_per_instr, "ns");
    out.metric("sim.machine.cycles", sim.cycles, "count");
    out.metric("workloads.gen_ns_per_instr", sim.gen_ns_per_instr, "ns");
    out.metric("trace.overhead_ratio", overhead_ratio, "ratio");
}

/// One served session's frames, with the digest its live run produced.
#[derive(Debug)]
pub struct ReplaySession<'a> {
    /// The frames, in order.
    pub frames: Vec<&'a [DynInstr]>,
    /// The live session's digest over these frames.
    pub expect: u64,
}

/// Replay passes per estimator; medians are reported.
const LADDER_PASSES: usize = 5;

/// One replay pass: every session through a fresh pipeline and watch,
/// each call in its own span under a per-frame span. Returns the
/// number of sessions whose replay digest differs from the live one.
fn replay_pass(
    config: &OnlineConfig,
    sessions: &[ReplaySession<'_>],
    payloads: &[Vec<Vec<u8>>],
    tracer: &mut Tracer,
) -> u64 {
    let reference = *paco_corpus::reference_profile(FAMILY).expect("markov_walk profile");
    let metrics = ServeMetrics::with_shards(1);
    let mut events = EventBatch::new();
    let mut outcomes = OutcomeBatch::new();
    let mut predictions = Vec::new();
    let mut mismatches = 0;
    let mut frame_id = 0u64;
    for (session, frames) in sessions.iter().zip(payloads) {
        let mut pipeline = OnlinePipeline::new(config);
        let mut watch = WatchState::new(Some(FAMILY.into()), Some(reference));
        let mut digest = Digest::new();
        for payload in frames {
            frame_id += 1;
            let frame = tracer.open("serve.frame", Open::root(), frame_id);
            // The server bumps the frame counter and starts its handle
            // clock before decoding.
            let started = tracer.span("obs.meter", frame, frame_id, || {
                metrics.frame(FrameKind::Events).inc();
                Instant::now()
            });
            tracer.span("proto.decode_events_into", frame, frame_id, || {
                decode_events_into(payload, &mut events).expect("self-encoded frame")
            });
            // `run_batch` appends, so the outcomes are cleared per frame
            // exactly as the server does.
            outcomes.clear();
            tracer.span("sim.online.run_batch", frame, frame_id, || {
                pipeline.run_batch(&events, &mut outcomes)
            });
            predictions.clear();
            tracer.span("proto.encode_outcomes_into", frame, frame_id, || {
                encode_outcomes_into(&mut predictions, &outcomes)
            });
            digest.update(&predictions);
            tracer.span("serve.watch.observe_batch", frame, frame_id, || {
                watch.observe_batch(&outcomes)
            });
            tracer.span("obs.meter", frame, frame_id, || {
                metrics.batch_events.record(events.len() as u64);
                metrics
                    .batch_handle_ns
                    .record(started.elapsed().as_nanos() as u64);
            });
            tracer.close(frame);
        }
        std::hint::black_box(watch.events());
        if digest.value() != session.expect {
            mismatches += 1;
        }
    }
    mismatches
}

/// Replays `sessions` in process with PaCo and with no estimator,
/// alternating, [`LADDER_PASSES`] times each. The PaCo replay's digests
/// must equal the live ones; every mismatch counts as a failure in
/// `out`. The replay spans are appended to `spans`.
pub fn ladder(
    sessions: &[ReplaySession<'_>],
    out: &mut Outcome,
    spans: &mut Vec<Vec<Span>>,
) -> LadderLayers {
    let payloads: Vec<Vec<Vec<u8>>> = sessions
        .iter()
        .map(|s| s.frames.iter().map(|f| encode_events(f)).collect())
        .collect();
    let events: usize = sessions
        .iter()
        .flat_map(|s| s.frames.iter())
        .map(|f| f.len())
        .sum();
    let frames: usize = sessions.iter().map(|s| s.frames.len()).sum();
    let empty = empty_span_ns();
    // Each span's own clock reads are subtracted from the call it wraps.
    let cost = |t: &trace::NameTotals| t.total_ns as f64 - t.count as f64 * empty;
    let per_event = |t: &trace::NameTotals| cost(t) / events as f64;
    let (mut decode, mut encode, mut paco, mut none, mut watch, mut obs) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for pass in 0..LADDER_PASSES {
        let mut tracer = Tracer::new(Instant::now(), true);
        out.attempted += sessions.len() as u64;
        out.failed += replay_pass(&paco_config(), sessions, &payloads, &mut tracer);
        let t = trace::totals(tracer.spans());
        decode.push(per_event(&t["proto.decode_events_into"]));
        encode.push(per_event(&t["proto.encode_outcomes_into"]));
        paco.push(per_event(&t["sim.online.run_batch"]));
        watch.push(per_event(&t["serve.watch.observe_batch"]));
        obs.push(cost(&t["obs.meter"]) / frames as f64);
        if pass == 0 {
            spans.push(tracer.into_spans());
        }

        let mut tracer = Tracer::new(Instant::now(), true);
        // The no-estimator digests differ from the live ones by design;
        // only its timing is used.
        replay_pass(&none_config(), sessions, &payloads, &mut tracer);
        none.push(per_event(
            &trace::totals(tracer.spans())["sim.online.run_batch"],
        ));
    }
    let diffs: Vec<f64> = paco.iter().zip(&none).map(|(p, n)| p - n).collect();
    let layers = LadderLayers {
        decode_ns_per_event: median(&decode),
        encode_ns_per_event: median(&encode),
        run_batch_ns_per_event: median(&paco),
        none_ns_per_event: median(&none),
        paco_ns_per_event: median(&diffs),
        watch_ns_per_event: median(&watch),
        obs_ns_per_frame: median(&obs),
    };
    noise_note(out, "core.paco_ns_per_event", &diffs, &[&paco, &none]);
    out.note(format!(
        "ladder: {} sessions, {frames} frames, {events} events, {LADDER_PASSES} passes per \
         estimator; {empty:.1} ns of clock reads subtracted per span",
        sessions.len()
    ));
    layers
}

/// Median duration of an empty span: what a span's own clock reads add
/// to the interval it measures.
fn empty_span_ns() -> f64 {
    let mut tracer = Tracer::new(Instant::now(), true);
    for _ in 0..10_000 {
        tracer.span("empty", Open::root(), 0, || ());
    }
    let durations: Vec<f64> = tracer
        .spans()
        .iter()
        .map(|s| (s.end - s.start) as f64)
        .collect();
    median(&durations)
}

/// Notes whether a difference of two measured series stands above
/// their run-to-run noise (the larger relative IQR of the two, applied
/// to the larger median).
fn noise_note(out: &mut Outcome, name: &str, diffs: &[f64], parts: &[&Vec<f64>]) {
    let noise = parts
        .iter()
        .map(|p| relative_iqr(p) * median(p))
        .fold(0.0, f64::max);
    let diff = median(diffs);
    let verdict = if diff.abs() > noise {
        "above noise"
    } else {
        "BELOW NOISE: not resolved"
    };
    out.note(format!(
        "{name}: {diff:.3} against noise {noise:.3} ({verdict})"
    ));
}

/// Simulated instructions per probe cell after warmup.
const SIM_PROBE_INSTRS: u64 = 60_000;
/// Warmup instructions per probe cell.
const SIM_PROBE_WARMUP: u64 = 20_000;
/// Cells per estimator in the probe.
const SIM_PROBE_REPS: usize = 7;
/// Instructions the generator probe draws per repetition.
const GEN_PROBE_INSTRS: u64 = 200_000;

/// Times `execute_cell` on accuracy cells without and with PaCo, and
/// the generator on its own. `spans` receives the probe's spans.
pub fn sim_probe(seed: u64, out: &mut Outcome, spans: &mut Vec<Vec<Span>>) -> SimLayers {
    let params = RunParams {
        instrs: SIM_PROBE_INSTRS,
        seed,
        warmup: SIM_PROBE_WARMUP,
    };
    let bench = BenchmarkId::Gzip;
    let none_cell = CellSpec::accuracy(bench, EstimatorKind::None, &params);
    let paco_cell = CellSpec::accuracy(bench, crate::paper_sim::paco_kind(), &params);
    let simulated = (SIM_PROBE_INSTRS + SIM_PROBE_WARMUP) as f64;
    let mut tracer = Tracer::new(Instant::now(), true);
    let (mut none, mut paco, mut gen) = (vec![], vec![], vec![]);
    let mut cycles = None;
    for rep in 0..SIM_PROBE_REPS {
        let id = rep as u64;
        let t = Instant::now();
        tracer.span("sim.engine.execute_cell", Open::root(), id, || {
            execute_cell(&none_cell)
        });
        none.push(t.elapsed().as_nanos() as f64 / simulated);
        let t = Instant::now();
        let result = tracer.span("sim.engine.execute_cell", Open::root(), id, || {
            execute_cell(&paco_cell)
        });
        paco.push(t.elapsed().as_nanos() as f64 / simulated);
        match cycles {
            None => cycles = Some(result.stats.cycles),
            Some(c) => {
                out.attempted += 1;
                if c != result.stats.cycles {
                    out.failed += 1;
                    out.note("sim probe: cycle count did not repeat");
                }
            }
        }
        let mut workload = bench.build(seed);
        let t = Instant::now();
        tracer.span("workloads.next_instr", Open::root(), id, || {
            for _ in 0..GEN_PROBE_INSTRS {
                std::hint::black_box(workload.next_instr());
            }
        });
        gen.push(t.elapsed().as_nanos() as f64 / GEN_PROBE_INSTRS as f64);
    }
    spans.push(tracer.into_spans());
    let paco_diff: Vec<f64> = paco.iter().zip(&none).map(|(p, n)| p - n).collect();
    let machine: Vec<f64> = none.iter().zip(&gen).map(|(n, g)| n - g).collect();
    noise_note(
        out,
        "core.paco_sim_ns_per_instr",
        &paco_diff,
        &[&paco, &none],
    );
    noise_note(out, "sim.machine.ns_per_instr", &machine, &[&none, &gen]);
    SimLayers {
        machine_ns_per_instr: median(&machine),
        cycles: cycles.expect("at least one repetition") as f64,
        paco_sim_ns_per_instr: median(&paco_diff),
        gen_ns_per_instr: median(&gen),
    }
}

/// Writes the run's spans under `.bench_out/` in the working directory.
pub fn write_spans(workload: &str, seed: u64, buffers: Vec<Vec<Span>>, out: &mut Outcome) {
    let spans = trace::merge(buffers);
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-{seed}.tsv"));
    match trace::write_tsv(&path, &spans) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
}
