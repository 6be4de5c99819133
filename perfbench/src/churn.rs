//! `churn`: open-loop session arrivals that exercise the whole session
//! lifecycle.
//!
//! Sessions arrive on a fixed schedule ([`RATE`] per second, about half
//! the closed-loop capacity of the reference host) dealt over
//! [`THREADS`] load threads. Each session: fresh HELLO (PaCo paper
//! configuration) → [`FRAMES_PER_PHASE`] frames of [`FRAME`] events →
//! drop without BYE, so the server parks it → `resume_by_id`, retrying
//! while the park has not landed → every [`MIGRATE_EVERY`]th session asks
//! the server to migrate it → [`FRAMES_PER_PHASE`] more frames → BYE.
//! Latency runs from the session's scheduled arrival, so a stalled
//! server shows in every session queued behind the stall.
//!
//! Correctness: each session streams one of [`SCRIPTS`] seeded event
//! scripts, and its digest across the drop, resume and migration must
//! equal `paco_serve::offline_digest` of that script with the same frame
//! split.

use std::net::SocketAddr;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use paco_serve::{offline_digest, Client, ClientError, ErrorCode, RunningServer};
use paco_types::DynInstr;

use crate::common::{self, family_events, paco_config, Args, Outcome};
use crate::host::{self, Cpu};
use crate::layers::{self, ReplaySession, SessionLayers};
use crate::openloop::{self, Timed, WallClock};
use crate::stats;
use crate::trace::{Open, Span, Tracer};

/// Load threads.
pub const THREADS: usize = 2;
/// Server worker shards.
pub const SHARDS: usize = 2;
/// Events per EVENTS frame.
pub const FRAME: usize = 32;
/// Frames before the drop, and again after the resume.
pub const FRAMES_PER_PHASE: usize = 8;
/// Every this-many-th session migrates after resuming.
pub const MIGRATE_EVERY: usize = 4;
/// Distinct seeded event scripts the sessions cycle through.
pub const SCRIPTS: usize = 64;
/// Session arrivals per second: about half the closed-loop capacity
/// measured on a 2-vCPU AMD EPYC host (release build).
pub const RATE: f64 = 800.0;
/// Sessions in the closed-loop session probe of the other workloads'
/// traced runs: enough for a supported p99 of MIGRATE round trips.
pub const PROBE_SESSIONS: usize = 4400;
/// Seconds of arrivals before the measured window: they fill the
/// session table and the server's buffers, and bring both cores up to
/// the window's load, so the first latency slice is not a cold start.
/// Their outputs are checked like the window's.
pub const WARMUP_S: f64 = 2.0;
/// How long a resume keeps retrying a session the server has not
/// parked yet before the attempt counts as failed.
const RESUME_BUDGET: Duration = Duration::from_secs(1);
/// Pause between resume attempts.
const RETRY_SLEEP: Duration = Duration::from_micros(50);
/// A session that starts this much after its due time started late.
const LATE_NS: u64 = 1_000_000;

/// One session's events and the oracle digest of its frames.
pub struct Script {
    events: Vec<DynInstr>,
    expect: u64,
}

const SCRIPT_EVENTS: usize = 2 * FRAMES_PER_PHASE * FRAME;

/// The seeded scripts with their oracle digests.
pub fn scripts(seed: u64) -> Vec<Script> {
    let config = paco_config();
    let pool = family_events(seed, SCRIPTS * SCRIPT_EVENTS);
    pool.chunks(SCRIPT_EVENTS)
        .map(|events| Script {
            events: events.to_vec(),
            expect: offline_digest(&config, events, FRAME),
        })
        .collect()
}

/// Everything one load thread measured.
#[derive(Debug, Default)]
pub struct Log {
    frame_rtt: Vec<u64>,
    hello: Vec<u64>,
    resume: Vec<u64>,
    migrate: Vec<u64>,
    resumes: u64,
    wasted_attempts: u64,
    attempted: u64,
    failed: u64,
    events: u64,
    errors: Vec<String>,
}

impl Log {
    fn absorb(&mut self, other: Log) {
        self.frame_rtt.extend(other.frame_rtt);
        self.hello.extend(other.hello);
        self.resume.extend(other.resume);
        self.migrate.extend(other.migrate);
        self.resumes += other.resumes;
        self.wasted_attempts += other.wasted_attempts;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.events += other.events;
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, what: String) -> String {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what.clone());
        }
        what
    }

    fn sort(&mut self) {
        for v in [
            &mut self.frame_rtt,
            &mut self.hello,
            &mut self.resume,
            &mut self.migrate,
        ] {
            v.sort_unstable();
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn send_frames<'a>(
    client: &mut Client,
    frames: impl Iterator<Item = &'a [DynInstr]>,
    tracer: &mut Tracer,
    root: Open,
    id: u64,
    log: &mut Log,
) -> Result<(), String> {
    for frame in frames {
        log.attempted += 1;
        let t = Instant::now();
        let answer = tracer.span("serve.client.send_events", root, id, || {
            client.send_events(frame)
        });
        match answer {
            Ok(outcomes) if outcomes.len() == frame.len() => log.frame_rtt.push(ns_since(t)),
            Ok(_) => return Err(log.fail("predictions short of the frame".into())),
            Err(e) => return Err(log.fail(format!("events: {e}"))),
        }
    }
    Ok(())
}

/// One session's whole life, under one root span; `Err` after the
/// first failed operation.
fn session(
    addr: SocketAddr,
    script: &Script,
    index: usize,
    tracer: &mut Tracer,
    log: &mut Log,
) -> Result<(), String> {
    let root = tracer.open("churn.session", Open::root(), index as u64);
    let lived = session_steps(addr, script, index, tracer, root, log);
    tracer.close(root);
    lived
}

fn session_steps(
    addr: SocketAddr,
    script: &Script,
    index: usize,
    tracer: &mut Tracer,
    root: Open,
    log: &mut Log,
) -> Result<(), String> {
    let config = paco_config();
    let id = index as u64;
    let mut frames = script.events.chunks(FRAME);

    log.attempted += 1;
    let t = Instant::now();
    let mut client = tracer
        .span("serve.client.connect", root, id, || {
            Client::connect(addr, &config)
        })
        .map_err(|e| log.fail(format!("hello: {e}")))?;
    log.hello.push(ns_since(t));
    send_frames(
        &mut client,
        frames.by_ref().take(FRAMES_PER_PHASE),
        tracer,
        root,
        id,
        log,
    )?;
    let (session_id, digest) = (client.session_id(), client.digest());
    // No BYE: the server parks the session when it sees the EOF.
    tracer.span("serve.client.drop", root, id, || drop(client));

    log.attempted += 1;
    log.resumes += 1;
    let t = Instant::now();
    let open = tracer.open("serve.client.resume_by_id", root, id);
    let resumed = loop {
        match Client::resume_by_id(addr, &config, session_id) {
            Err(ClientError::Server(ErrorCode::UnknownSession, _))
                if t.elapsed() < RESUME_BUDGET =>
            {
                log.wasted_attempts += 1;
                std::thread::sleep(RETRY_SLEEP);
            }
            other => break other,
        }
    };
    tracer.close(open);
    let mut client = resumed.map_err(|e| log.fail(format!("resume: {e}")))?;
    log.resume.push(ns_since(t));
    client.seed_digest(digest);

    if index.is_multiple_of(MIGRATE_EVERY) {
        log.attempted += 1;
        let t = Instant::now();
        tracer
            .span("serve.client.migrate", root, id, || client.migrate(None))
            .map_err(|e| log.fail(format!("migrate: {e}")))?;
        log.migrate.push(ns_since(t));
    }
    send_frames(&mut client, frames, tracer, root, id, log)?;

    log.attempted += 1;
    if client.digest() != script.expect {
        return Err(log.fail(format!(
            "session {index}: digest differs from offline_digest"
        )));
    }
    log.attempted += 1;
    tracer
        .span("serve.client.bye", root, id, || client.bye())
        .map_err(|e| log.fail(format!("bye: {e}")))?;
    log.events += script.events.len() as u64;
    Ok(())
}

/// When sessions arrive.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// `rate` sessions per second for `seconds`.
    Open {
        /// Arrivals per second.
        rate: f64,
        /// Arrival window.
        seconds: f64,
    },
    /// `sessions` sessions back to back per thread.
    Closed {
        /// Total sessions.
        sessions: usize,
    },
}

/// A per_thread batch of sessions.
pub struct Run {
    /// Per-session timing, from due time.
    pub timed: Vec<Timed>,
    /// Merged operation log.
    pub log: Log,
    /// Span buffers, one per load thread.
    pub spans: Vec<Vec<Span>>,
    /// Load threads' CPU.
    pub client_cpu: Cpu,
    /// Server threads' CPU.
    pub server_cpu: Cpu,
    /// From the first due time to the last completion, s.
    pub elapsed: f64,
}

/// Drives sessions against `addr` according to `plan`.
pub fn drive(
    addr: SocketAddr,
    scripts: &[Script],
    plan: Plan,
    tracing: bool,
    epoch: Instant,
) -> Run {
    let barrier = Barrier::new(THREADS + 1);
    let origin = OnceLock::new();
    struct PerThread {
        timed: Vec<Timed>,
        log: Log,
        spans: Vec<Span>,
        cpu: Cpu,
    }
    let (per_thread, server_cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let (barrier, origin) = (&barrier, &origin);
                std::thread::Builder::new()
                    .name(format!("pb-load-{k}"))
                    .spawn_scoped(s, move || {
                        let mut tracer = Tracer::new(epoch, tracing);
                        let mut log = Log::default();
                        barrier.wait();
                        let cpu0 = host::thread_cpu();
                        let clock = WallClock {
                            start: *origin.get().expect("origin set before the barrier"),
                        };
                        let due: Box<dyn Iterator<Item = (usize, u64)>> = match plan {
                            Plan::Open { rate, seconds } => {
                                let total = (rate * seconds) as usize;
                                Box::new(
                                    (k..total)
                                        .step_by(THREADS)
                                        .map(move |i| (i, (i as f64 * 1e9 / rate) as u64)),
                                )
                            }
                            // Closed loop: each session is due when the
                            // previous one ends.
                            Plan::Closed { sessions } => Box::new(
                                (k..sessions)
                                    .step_by(THREADS)
                                    .map(move |i| (i, openloop::Clock::now_ns(&clock))),
                            ),
                        };
                        let timed = openloop::drive(&clock, due, |i| {
                            session(addr, &scripts[i % scripts.len()], i, &mut tracer, &mut log)
                                .is_ok()
                        });
                        PerThread {
                            timed,
                            log,
                            spans: tracer.into_spans(),
                            cpu: host::thread_cpu().since(cpu0),
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
    let elapsed = origin.get().expect("origin set").elapsed().as_secs_f64();
    let mut run = Run {
        timed: Vec::new(),
        log: Log::default(),
        spans: Vec::new(),
        client_cpu: Cpu::default(),
        server_cpu,
        elapsed,
    };
    for d in per_thread {
        run.timed.extend(d.timed);
        run.log.absorb(d.log);
        run.spans.push(d.spans);
        run.client_cpu = run.client_cpu.plus(d.cpu);
    }
    run.log.sort();
    run
}

impl Run {
    /// Session latencies from due time, ns, sorted.
    fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.timed.iter().map(|t| t.latency_ns).collect();
        v.sort_unstable();
        v
    }

    /// Adds this run's operations and its open-loop accounting to `out`.
    fn account(&self, out: &mut Outcome, label: &str) {
        out.attempted += self.log.attempted;
        out.failed += self.log.failed;
        for e in &self.log.errors {
            out.note(format!("{label}: {e}"));
        }
        let mut lags: Vec<u64> = self.timed.iter().map(|t| t.lag_ns).collect();
        lags.sort_unstable();
        let late = lags.iter().filter(|&&l| l > LATE_NS).count();
        let lag_tail = stats::tail(&lags, 99).map_or("-".into(), |q| {
            format!("p{} {:.1} us", q.pct, q.value as f64 / 1e3)
        });
        out.note(format!(
            "{label}: {} sessions, {} events in {:.3} s; generator lag {lag_tail}, max {:.1} us; \
             {late} sessions started over {} us late",
            self.timed.len(),
            self.log.events,
            self.elapsed,
            lags.last().copied().unwrap_or(0) as f64 / 1e3,
            LATE_NS / 1000
        ));
        out.note(common::latency_note(
            &format!("{label} session"),
            &self.latencies(),
        ));
        out.note(common::latency_note(
            &format!("{label} frame rtt"),
            &self.log.frame_rtt,
        ));
        out.note(format!(
            "{label}: {} resumes, {} refused attempts, {} migrations",
            self.log.resumes,
            self.log.wasted_attempts,
            self.log.migrate.len()
        ));
    }

    /// Session lifecycle layer costs.
    fn session_layers(&self, snapshot_bytes: usize) -> SessionLayers {
        let pair = |label: &str, v: &[u64]| common::p50_tail_us(label, v, 99).unwrap_or((0.0, 0.0));
        let (hello_p50_us, hello_p99_us) = pair("hello", &self.log.hello);
        let (resume_p50_us, resume_p99_us) = pair("resume", &self.log.resume);
        let (migrate_p50_us, migrate_p99_us) = pair("migrate", &self.log.migrate);
        SessionLayers {
            hello_p50_us,
            hello_p99_us,
            resume_p50_us,
            resume_p99_us,
            migrate_p50_us,
            migrate_p99_us,
            resume_retry_ratio: self.log.wasted_attempts as f64 / self.log.resumes.max(1) as f64,
            snapshot_bytes: snapshot_bytes as f64,
        }
    }
}

/// Size of one paper-config session's SNAPSHOT state after one frame.
fn snapshot_bytes(addr: SocketAddr, script: &Script, out: &mut Outcome) -> usize {
    out.attempted += 1;
    let taken = Client::connect(addr, &paco_config()).and_then(|mut c| {
        c.send_events(&script.events[..FRAME])?;
        let snap = c.snapshot()?;
        c.bye()?;
        Ok(snap.state.len())
    });
    taken.unwrap_or_else(|e| {
        out.failed += 1;
        out.note(format!("snapshot: {e}"));
        0
    })
}

/// The session layers for workloads that create no sessions in their
/// window: [`PROBE_SESSIONS`] closed-loop sessions against `addr`.
pub fn session_probe(
    addr: SocketAddr,
    seed: u64,
    epoch: Instant,
    out: &mut Outcome,
    spans: &mut Vec<Vec<Span>>,
) -> SessionLayers {
    let scripts = scripts(seed);
    let run = drive(
        addr,
        &scripts,
        Plan::Closed {
            sessions: PROBE_SESSIONS,
        },
        true,
        epoch,
    );
    run.account(out, "session probe");
    spans.extend(run.spans.iter().cloned());
    run.session_layers(snapshot_bytes(addr, &scripts[0], out))
}

/// [`WARMUP_S`] seconds of untimed arrivals at [`RATE`].
fn warm_up(addr: SocketAddr, scripts: &[Script]) -> Run {
    let plan = Plan::Open {
        rate: RATE,
        seconds: WARMUP_S,
    };
    drive(addr, scripts, plan, false, Instant::now())
}

fn setup(seed: u64) -> (RunningServer, Vec<Script>) {
    let server = RunningServer::bind("127.0.0.1:0", SHARDS).expect("bind a loopback port");
    (server, scripts(seed))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let mut setups = common::Setups::default();
    let (server, scripts) = setups.before(|| setup(args.seed));
    let warm = warm_up(server.addr(), &scripts);
    let plan = Plan::Open {
        rate: RATE,
        seconds: args.seconds,
    };
    let run = drive(server.addr(), &scripts, plan, false, Instant::now());
    server.stop();
    let rss = host::peak_rss_mib();
    setups.after(|| setup(args.seed), |(server, _)| server.stop());
    warm.account(&mut out, "warm-up");
    run.account(&mut out, "churn");
    out.metric("setup_s", setups.median(), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    // Arrivals fix the offered rate; a backlog stretches the elapsed
    // time past the arrival window and lowers the delivered rate.
    out.metric(
        "throughput_per_s",
        run.log.events as f64 / run.elapsed,
        "1/s",
    );
    let timed: Vec<(u64, u64)> = run.timed.iter().map(|t| (t.due_ns, t.latency_ns)).collect();
    common::sliced_latency(&mut out, "session", &timed, args.seconds);
    out
}

/// The traced run: half the arrival window untraced, half traced, then
/// the replay of every script and the simulator probe.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Vec::new();
    let (server, scripts) = setup(args.seed);
    warm_up(server.addr(), &scripts).account(&mut out, "warm-up");
    let epoch = Instant::now();
    let plan = Plan::Open {
        rate: RATE,
        seconds: args.seconds / 2.0,
    };
    let plain = drive(server.addr(), &scripts, plan, false, epoch);
    let traced = drive(server.addr(), &scripts, plan, true, epoch);
    plain.account(&mut out, "untraced half");
    traced.account(&mut out, "traced half");
    let median =
        |r: &Run| stats::percentile(&r.latencies(), 50).map_or(f64::NAN, |q| q.value as f64);
    let overhead = median(&traced) / median(&plain);
    out.note(format!(
        "trace overhead: traced/untraced session p50 = {overhead:.4}"
    ));
    let server_layers = layers::server_layers(
        &server.metrics().batch_handle_ns.snapshot(),
        &traced.log.frame_rtt,
        traced.log.events,
        traced.server_cpu,
        traced.client_cpu,
    );
    let session = traced.session_layers(snapshot_bytes(server.addr(), &scripts[0], &mut out));
    spans.extend(traced.spans);
    server.stop();
    let replay: Vec<ReplaySession<'_>> = scripts
        .iter()
        .map(|s| ReplaySession {
            frames: s.events.chunks(FRAME).collect(),
            expect: s.expect,
        })
        .collect();
    let ladder = layers::ladder(&replay, &mut out, &mut spans);
    let sim = layers::sim_probe(args.seed, &mut out, &mut spans);
    layers::emit(&mut out, &ladder, &sim, &server_layers, &session, overhead);
    layers::write_spans("churn", args.seed, spans, &mut out);
    out
}
