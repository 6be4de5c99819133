//! `stream`: closed-loop streaming through long-lived sessions.
//!
//! [`CONNECTIONS`] load threads (one per core of the reference host),
//! each owning one session on an in-process `RunningServer` with
//! [`SHARDS`] shards. Every session declares the `markov_walk` family at
//! HELLO and streams that family's control events (generated from the
//! seed) in [`FRAME`]-event EVENTS frames, sending the next frame only
//! when the previous predictions are back. No session is created inside
//! the measured window, so the per-event layers — wire codec, fused
//! kernel, estimator, watch — do most of the work.
//!
//! Correctness: after the window each session's running digest must
//! equal the per-event offline oracle over exactly the frames it sent,
//! and its digest after [`CHECK_FRAMES`] frames must equal
//! `paco_serve::offline_digest` over that prefix.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use paco_serve::proto::encode_outcomes;
use paco_serve::{offline_digest, Client, Digest, RunningServer};
use paco_sim::OnlinePipeline;
use paco_types::DynInstr;

use crate::common::{self, family_events, paco_config, Args, Outcome, FAMILY};
use crate::host::{self, Cpu};
use crate::layers::{self, ReplaySession};
use crate::trace::{Open, Span, Tracer};

/// Client connections, one load thread each.
pub const CONNECTIONS: usize = 2;
/// Server worker shards.
pub const SHARDS: usize = 2;
/// Events per EVENTS frame.
pub const FRAME: usize = 512;
/// Distinct frames in the seeded event pool; sessions cycle through it.
const POOL_FRAMES: usize = 128;
/// Frames after which each session's digest is checkpointed.
pub const CHECK_FRAMES: usize = POOL_FRAMES / CONNECTIONS;

/// A set-up server with its connected sessions.
pub struct Live {
    /// The server.
    pub server: RunningServer,
    clients: Vec<Client>,
    frames: Frames,
    /// Per connection: frames sent so far.
    sent: Vec<u64>,
    /// Per connection: digest after [`CHECK_FRAMES`] frames.
    checkpoint: Vec<Option<u64>>,
}

/// Generates the pool, starts the server, and opens the sessions.
pub fn setup(seed: u64) -> Live {
    let pool = family_events(seed, POOL_FRAMES * FRAME);
    let server = RunningServer::bind("127.0.0.1:0", SHARDS).expect("bind a loopback port");
    let clients = (0..CONNECTIONS)
        .map(|_| {
            Client::connect_declaring(server.addr(), &paco_config(), FAMILY)
                .expect("open a stream session")
        })
        .collect();
    Live {
        server,
        clients,
        frames: Frames {
            pool,
            start: (0..CONNECTIONS)
                .map(|c| c * POOL_FRAMES / CONNECTIONS)
                .collect(),
        },
        sent: vec![0; CONNECTIONS],
        checkpoint: vec![None; CONNECTIONS],
    }
}

/// The seeded event pool and where each connection starts in it.
struct Frames {
    pool: Vec<DynInstr>,
    start: Vec<usize>,
}

impl Frames {
    /// Connection `conn`'s `k`-th frame.
    fn frame(&self, conn: usize, k: u64) -> &[DynInstr] {
        let f = (self.start[conn] + k as usize) % POOL_FRAMES;
        &self.pool[f * FRAME..(f + 1) * FRAME]
    }
}

impl Live {
    /// Closes every session and stops the server.
    pub fn close(self) {
        for client in self.clients {
            let _ = client.bye();
        }
        self.server.stop();
    }
}

/// Frames per second per connection the sample buffers reserve room for
/// (address space only: pages count in RSS once written).
const MAX_FRAMES_PER_S: f64 = 60_000.0;

/// Throughput is the median over slices of this length.
const RATE_SLICE_NS: u64 = 250_000_000;

/// What one measured window saw.
pub struct Window {
    /// Frame round trips, ns, sorted.
    pub rtt_ns: Vec<u64>,
    /// `(completion, round trip)` of every frame, ns from the window start.
    pub timed: Vec<(u64, u64)>,
    /// Peak RSS when the load threads finished, before the samples are merged.
    pub peak_rss_mib: f64,
    /// Events answered.
    pub events: u64,
    /// Window length, s.
    pub elapsed: f64,
    /// Median over [`RATE_SLICE_NS`] slices of events answered per second.
    pub events_per_s: f64,
    /// Frames attempted and failed.
    pub attempted: u64,
    /// Frames that failed.
    pub failed: u64,
    /// Load threads' CPU.
    pub client_cpu: Cpu,
    /// Server threads' CPU.
    pub server_cpu: Cpu,
    /// Spans, one buffer per load thread.
    pub spans: Vec<Vec<Span>>,
}

/// Streams for `seconds` from every connection at once.
pub fn window(live: &mut Live, seconds: f64, tracing: bool, epoch: Instant) -> Window {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let origin = OnceLock::new();
    let Live {
        clients,
        frames,
        sent,
        checkpoint,
        ..
    } = live;
    let frames = &*frames;
    struct PerThread {
        // Compact samples keep the benchmark's own share of peak RSS
        // small and linear in the frame count.
        rtt_ns: Vec<u32>,
        done_us: Vec<u32>,
        attempted: u64,
        failed: u64,
        first: Instant,
        last: Instant,
        cpu: Cpu,
        spans: Vec<Span>,
    }
    let (per_thread, server_cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sent.iter_mut())
            .zip(checkpoint.iter_mut())
            .enumerate()
            .map(|(conn, ((client, sent), checkpoint))| {
                let (barrier, origin) = (&barrier, &origin);
                std::thread::Builder::new()
                    .name(format!("pb-load-{conn}"))
                    .spawn_scoped(s, move || {
                        let mut tracer = Tracer::new(epoch, tracing);
                        let expect = (seconds * MAX_FRAMES_PER_S) as usize;
                        let mut rtt_ns = Vec::with_capacity(expect);
                        let mut done_us = Vec::with_capacity(expect);
                        let (mut attempted, mut failed) = (0, 0);
                        barrier.wait();
                        let cpu0 = host::thread_cpu();
                        let first: Instant = *origin.get().expect("origin set before the barrier");
                        let deadline = first + Duration::from_secs_f64(seconds);
                        loop {
                            let frame = frames.frame(conn, *sent);
                            let t = Instant::now();
                            if t >= deadline {
                                break;
                            }
                            let open =
                                tracer.open("serve.client.send_events", Open::root(), conn as u64);
                            attempted += 1;
                            let answer = client.send_events(frame);
                            let took = t.elapsed();
                            tracer.close(open);
                            match answer {
                                Ok(outcomes) if outcomes.len() == FRAME => {}
                                Ok(_) | Err(_) => {
                                    failed += 1;
                                    break;
                                }
                            }
                            rtt_ns.push(u32::try_from(took.as_nanos()).unwrap_or(u32::MAX));
                            done_us.push((t + took - first).as_micros() as u32);
                            *sent += 1;
                            if *sent == CHECK_FRAMES as u64 {
                                *checkpoint = Some(client.digest());
                            }
                        }
                        let last = Instant::now();
                        PerThread {
                            rtt_ns,
                            done_us,
                            attempted,
                            failed,
                            first,
                            last,
                            cpu: host::thread_cpu().since(cpu0),
                            spans: tracer.into_spans(),
                        }
                    })
                    .expect("spawn a load thread")
            })
            .collect();
        let before = host::threads_cpu(host::SERVER_THREADS);
        origin.set(Instant::now()).expect("origin set once");
        barrier.wait();
        let per_thread: Vec<PerThread> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        let after = host::threads_cpu(host::SERVER_THREADS);
        (per_thread, host::cpu_between(&before, &after))
    });
    let peak_rss_mib = host::peak_rss_mib();
    let first = per_thread
        .iter()
        .map(|d| d.first)
        .min()
        .expect("load threads ran");
    let last = per_thread
        .iter()
        .map(|d| d.last)
        .max()
        .expect("load threads ran");
    let mut rtt_ns: Vec<u64> = per_thread
        .iter()
        .flat_map(|d| d.rtt_ns.iter().map(|&ns| ns as u64))
        .collect();
    rtt_ns.sort_unstable();
    let timed: Vec<(u64, u64)> = per_thread
        .iter()
        .flat_map(|d| {
            d.done_us
                .iter()
                .zip(&d.rtt_ns)
                .map(|(&t, &rtt)| (t as u64 * 1000, rtt as u64))
        })
        .collect();
    let events_per_s = crate::stats::median_slice_rate(
        per_thread
            .iter()
            .flat_map(|d| d.done_us.iter().map(|&t| (t as u64 * 1000, FRAME as u64))),
        (seconds * 1e9) as u64,
        RATE_SLICE_NS,
    );
    Window {
        events_per_s,
        timed,
        peak_rss_mib,
        events: rtt_ns.len() as u64 * FRAME as u64,
        rtt_ns,
        elapsed: (last - first).as_secs_f64(),
        attempted: per_thread.iter().map(|d| d.attempted).sum(),
        failed: per_thread.iter().map(|d| d.failed).sum(),
        client_cpu: per_thread.iter().fold(Cpu::default(), |a, d| a.plus(d.cpu)),
        server_cpu,
        spans: per_thread.into_iter().map(|d| d.spans).collect(),
    }
}

/// Checks every session's digest against the oracle (one thread per
/// session) and counts each check as an operation.
pub fn verify(live: &Live, out: &mut Outcome) {
    let config = paco_config();
    let verdicts: Vec<(bool, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let config = &config;
                s.spawn(move || {
                    let mut pipeline = OnlinePipeline::new(config);
                    let mut digest = Digest::new();
                    for k in 0..live.sent[conn] {
                        let outcomes: Vec<_> = live
                            .frames
                            .frame(conn, k)
                            .iter()
                            .filter_map(|i| pipeline.on_instr(i))
                            .collect();
                        digest.update(&encode_outcomes(&outcomes));
                    }
                    let whole = digest.value() == live.clients[conn].digest();
                    let start = live.frames.start[conn] * FRAME;
                    let prefix = &live.frames.pool[start..start + CHECK_FRAMES * FRAME];
                    let checked = live.checkpoint[conn]
                        .is_some_and(|d| d == offline_digest(config, prefix, FRAME));
                    (whole, checked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .collect()
    });
    for (conn, (whole, checked)) in verdicts.into_iter().enumerate() {
        out.attempted += 2;
        if !whole {
            out.failed += 1;
            out.note(format!(
                "stream session {conn}: digest differs from the offline oracle"
            ));
        }
        if !checked {
            out.failed += 1;
            out.note(format!(
                "stream session {conn}: checkpoint digest missing or differs from offline_digest"
            ));
        }
    }
}

/// The replay input: session 0's first [`CHECK_FRAMES`] frames and its
/// live checkpoint digest.
pub fn replay_input(live: &Live) -> Vec<ReplaySession<'_>> {
    vec![ReplaySession {
        frames: (0..CHECK_FRAMES as u64)
            .map(|k| live.frames.frame(0, k))
            .collect(),
        expect: live.checkpoint[0].unwrap_or(0),
    }]
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let mut setups = common::Setups::default();
    let mut live = setups.before(|| setup(args.seed));
    let w = window(&mut live, args.seconds, false, Instant::now());
    setups.after(|| setup(args.seed), Live::close);
    out.attempted += w.attempted;
    out.failed += w.failed;
    verify(&live, &mut out);
    live.close();
    out.note(format!(
        "{} events in {:.3} s over {CONNECTIONS} connections, {FRAME}-event frames",
        w.events, w.elapsed
    ));
    out.metric("setup_s", setups.median(), "s");
    out.metric("peak_rss_mib", w.peak_rss_mib, "MiB");
    out.metric("throughput_per_s", w.events_per_s, "1/s");
    common::sliced_latency(&mut out, "frame rtt", &w.timed, args.seconds);
    out
}

/// The traced run: half the window untraced, half traced, then the
/// session probe on the same server, the replay and the simulator
/// probe.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Vec::new();
    let mut live = setup(args.seed);
    let epoch = Instant::now();
    let half = args.seconds / 2.0;
    let plain = window(&mut live, half, false, epoch);
    let traced = window(&mut live, half, true, epoch);
    for w in [&plain, &traced] {
        out.attempted += w.attempted;
        out.failed += w.failed;
    }
    let server = layers::server_layers(
        &live.server.metrics().batch_handle_ns.snapshot(),
        &traced.rtt_ns,
        traced.events,
        traced.server_cpu,
        traced.client_cpu,
    );
    let overhead = plain.events_per_s / traced.events_per_s;
    spans.extend(traced.spans);
    let session =
        crate::churn::session_probe(live.server.addr(), args.seed, epoch, &mut out, &mut spans);
    verify(&live, &mut out);
    let ladder = layers::ladder(&replay_input(&live), &mut out, &mut spans);
    live.close();
    let sim = layers::sim_probe(args.seed, &mut out, &mut spans);
    out.note(format!(
        "trace overhead: untraced/traced events per second = {overhead:.4}"
    ));
    layers::emit(&mut out, &ladder, &sim, &server, &session, overhead);
    layers::write_spans("stream", args.seed, spans, &mut out);
    out
}
