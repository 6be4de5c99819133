//! The cycle-level out-of-order machine.
//!
//! A trace-driven model of the paper's superscalar: per-cycle fetch (with
//! I-cache stalls, branch prediction, confidence hooks and gating), a
//! front-end pipe of configurable depth, a dynamically shared ROB and
//! scheduler, general-purpose FUs with data-cache latencies, in-order
//! retirement, and full wrong-path execution — when a branch mispredicts,
//! fetch follows the bogus target into a synthetic wrong-path stream whose
//! instructions occupy real resources (and whose branches allocate real
//! confidence state) until the mispredicted branch resolves.
//!
//! Issue is event-driven: a scheduler entry counts its producers that
//! have not finished executing, completions wake their waiting consumers,
//! and the issue stage pops ready entries in dispatch order — no stage
//! scans the scheduler or the ROB per cycle. The run loops skip idle
//! cycles outright: when no stage can act, they jump to the next cycle in
//! which one can, accounting for the skipped cycles in bulk (see
//! `docs/ARCHITECTURE.md`, "The cycle-level machine", for the invariants
//! this relies on). [`Machine::step`] stays the one-cycle reference.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use paco::{BranchFetchInfo, BranchToken, PathConfidenceEstimator};
use paco_branch::{
    Btb, DirectionPredictor, IndirectPredictor, Mdc, MdcIndex, MdcTable, ReturnAddressStack,
    TournamentPredictor,
};
use paco_types::{ControlKind, Cycle, DynInstr, GlobalHistory, InstrClass, Pc, SplitMix64};
use paco_workloads::{Workload, WrongPathGen};

use crate::stats::PercentBins;
use crate::{
    CacheHierarchy, EstimatorKind, FetchPolicy, GatingPolicy, MachineStats, SimConfig, ThreadStats,
    MAX_THREADS,
};

/// Size of the completion event wheel. An instruction of latency `l`
/// issued at cycle `c` completes from bucket `(c + l) % WHEEL`; issue runs
/// after the current bucket has drained, so every latency up to and
/// including `WHEEL` lands in a bucket that is still ahead.
/// [`MachineBuilder::build`] rejects configurations whose latencies could
/// exceed it.
const WHEEL: usize = 256;

/// A completion event: thread, sequence number, and the dispatch number
/// that tells a reused sequence number from the squashed one.
type Event = (usize, u64, u64);

/// [`SchedEntry::order`] of an empty scheduler entry.
const FREE: u64 = u64::MAX;

/// One shared scheduler entry: a dispatched instruction waiting to issue.
#[derive(Debug, Clone, Copy)]
struct SchedEntry {
    /// Dispatch number of the occupant, or [`FREE`]. Dispatch numbers are
    /// never reused, so a waiter or ready-set reference whose number no
    /// longer matches names an entry that `recover` squashed.
    order: u64,
    tid: usize,
    seq: u64,
    /// Producers that have not finished executing.
    pending: u32,
}

#[derive(Debug, Clone, Copy)]
struct CtrlState {
    kind: ControlKind,
    mispredicted: bool,
    predicted_taken: bool,
    actual_taken: bool,
    actual_target: Pc,
    pc: Pc,
    hist_before: u64,
    mdc_index: Option<MdcIndex>,
    mdc_at_fetch: Option<Mdc>,
    ras_checkpoint: (usize, usize),
}

#[derive(Debug, Clone)]
struct Slot {
    /// Dispatch number (set at dispatch; unique for the machine's
    /// lifetime), guarding completion events against sequence-number
    /// reuse after squashes.
    order: u64,
    seq: u64,
    class: InstrClass,
    deps: [u32; 2],
    mem_addr: Option<u64>,
    on_goodpath: bool,
    token: Option<BranchToken>,
    ctrl: Option<CtrlState>,
}

#[derive(Debug)]
enum PathState {
    Good,
    Bad { gen: WrongPathGen },
}

/// Observer of a thread's goodpath instruction stream, for trace
/// recording (the `paco-trace` crate's `TraceRecorder` implements this
/// via the blanket closure impl).
///
/// The sink sees every goodpath instruction the thread pulls from its
/// workload, in program order. Because wrong-path instructions are
/// synthesized separately (never pulled from the workload) and goodpath
/// instructions are never squashed, this pull order **is** the retired
/// instruction order; the stream additionally includes the handful of
/// instructions still in flight (or peeked for an I-cache probe) when the
/// run stops — exactly the suffix a bit-exact replay of the run needs.
///
/// Sinks are `Send` (like workloads and estimators) so that a machine with
/// a recording sink attached can run on an experiment-engine worker
/// thread.
pub trait TraceSink: Send {
    /// Called once per goodpath instruction, in program order.
    fn record(&mut self, instr: &DynInstr);
}

impl<F: FnMut(&DynInstr) + Send> TraceSink for F {
    fn record(&mut self, instr: &DynInstr) {
        self(instr)
    }
}

struct Thread {
    workload: Box<dyn Workload>,
    estimator: Box<dyn PathConfidenceEstimator>,
    /// Bins confidence instances by the estimator's predicted goodpath
    /// probability; `None` for estimators without one.
    prob_bins: Option<PercentBins>,
    hist: GlobalHistory,
    ras: ReturnAddressStack,
    path: PathState,
    pending: Option<DynInstr>,
    front: VecDeque<(Cycle, Slot)>,
    rob: VecDeque<Slot>,
    rob_front_seq: u64,
    /// Done flags of the in-ROB instructions, indexed by `seq & ring_mask`
    /// (the ring is at least as long as the ROB, so live instructions
    /// never share a slot). Reset at dispatch, set at completion.
    done: Vec<bool>,
    /// Scheduler entries `(index, dispatch number)` waiting on the
    /// in-ROB instruction in each ring slot; drained when it completes.
    waiters: Vec<Vec<(usize, u64)>>,
    next_seq: u64,
    fetch_stall_until: Cycle,
    in_flight: usize,
    wp_seeds: SplitMix64,
    stats: ThreadStats,
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("workload", &self.workload.name())
            .field("in_flight", &self.in_flight)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl Thread {
    /// Pulls the next goodpath instruction from the workload, teeing it
    /// into the trace sink when one is attached.
    fn pull_instr(&mut self) -> DynInstr {
        let instr = self.workload.next_instr();
        if let Some(sink) = &mut self.sink {
            sink.record(&instr);
        }
        instr
    }

    fn slot_by_seq_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        if seq < self.rob_front_seq {
            return None;
        }
        self.rob.get_mut((seq - self.rob_front_seq) as usize)
    }

    /// The PC the fetch unit would fetch next (drives the I-cache probe).
    fn peek_fetch_pc(&mut self) -> Pc {
        match &self.path {
            PathState::Good => {
                if self.pending.is_none() {
                    self.pending = Some(self.pull_instr());
                }
                self.pending.as_ref().unwrap().pc
            }
            PathState::Bad { gen } => gen.cursor(),
        }
    }

    fn on_goodpath(&self) -> bool {
        matches!(self.path, PathState::Good)
    }
}

/// The simulated machine: one or more hardware threads sharing the
/// pipeline, predictors and cache hierarchy.
///
/// # Examples
///
/// ```
/// use paco_sim::{Machine, MachineBuilder, SimConfig, EstimatorKind, GatingPolicy};
/// use paco::PacoConfig;
/// use paco_workloads::BenchmarkId;
///
/// let mut machine = MachineBuilder::new(SimConfig::paper_4wide())
///     .thread(Box::new(BenchmarkId::Gzip.build(1)), EstimatorKind::Paco(PacoConfig::paper()))
///     .seed(7)
///     .build();
/// let stats = machine.run(20_000);
/// assert!(stats.threads[0].retired >= 20_000);
/// assert!(stats.ipc(0) > 0.3);
/// ```
pub struct Machine {
    config: SimConfig,
    cycle: Cycle,
    stats_since: Cycle,
    predictor: TournamentPredictor,
    btb: Btb,
    indirect: IndirectPredictor,
    mdc: MdcTable,
    caches: CacheHierarchy,
    threads: Vec<Thread>,
    rob_free: usize,
    /// `seq & ring_mask` indexes each thread's done/waiter rings.
    ring_mask: u64,
    /// The shared scheduler's entries; `sched_free` lists the empty ones.
    sched: Vec<SchedEntry>,
    sched_free: Vec<usize>,
    /// Entries whose producers are all done, as `(dispatch number,
    /// index)`: popping the minimum issues oldest-dispatched first.
    /// Entries squashed after becoming ready are dropped when popped.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    next_order: u64,
    wheel: Vec<Vec<Event>>,
    /// The bucket being completed, swapped out of the wheel so its
    /// capacity is reused rather than reallocated.
    completing: Vec<Event>,
    gating: GatingPolicy,
    fetch_policy: FetchPolicy,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// A thread specification accumulated by the builder: workload,
/// estimator, and optional trace sink.
type ThreadSpec = (Box<dyn Workload>, EstimatorKind, Option<Box<dyn TraceSink>>);

/// Builder for [`Machine`].
pub struct MachineBuilder {
    config: SimConfig,
    threads: Vec<ThreadSpec>,
    gating: GatingPolicy,
    fetch_policy: FetchPolicy,
    seed: u64,
}

impl std::fmt::Debug for MachineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineBuilder")
            .field("config", &self.config)
            .field("threads", &self.threads.len())
            .field("gating", &self.gating)
            .field("fetch_policy", &self.fetch_policy)
            .field("seed", &self.seed)
            .finish()
    }
}

impl MachineBuilder {
    /// Starts a builder for the given machine configuration.
    pub fn new(config: SimConfig) -> Self {
        MachineBuilder {
            config,
            threads: Vec::new(),
            gating: GatingPolicy::None,
            fetch_policy: FetchPolicy::ICount,
            seed: 1,
        }
    }

    /// Adds a hardware thread running `workload` with the given estimator.
    pub fn thread(mut self, workload: Box<dyn Workload>, estimator: EstimatorKind) -> Self {
        self.threads.push((workload, estimator, None));
        self
    }

    /// Attaches a trace sink to the most recently added thread; the sink
    /// observes that thread's goodpath instruction stream (see
    /// [`TraceSink`]).
    ///
    /// # Panics
    ///
    /// Panics if no thread has been added yet.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        let slot = &mut self
            .threads
            .last_mut()
            .expect("trace_sink requires a preceding .thread(..) call")
            .2;
        *slot = Some(sink);
        self
    }

    /// Sets the gating policy (applies to every thread).
    pub fn gating(mut self, gating: GatingPolicy) -> Self {
        self.gating = gating;
        self
    }

    /// Sets the SMT fetch policy.
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Sets the machine seed (wrong-path streams etc.).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if no threads were added, more threads than
    /// `config.threads` (or [`MAX_THREADS`]) were added, or an
    /// instruction latency could exceed the completion wheel's 256 cycles
    /// (`config.muldiv_latency` above 256).
    pub fn build(self) -> Machine {
        assert!(
            !self.threads.is_empty(),
            "machine needs at least one thread"
        );
        assert!(
            self.threads.len() <= self.config.threads,
            "more workloads than configured hardware threads"
        );
        assert!(
            self.threads.len() <= MAX_THREADS,
            "more than {MAX_THREADS} hardware threads"
        );
        let caches = CacheHierarchy::paper();
        let max_latency = self.config.muldiv_latency.max(caches.max_data_latency());
        assert!(
            max_latency <= WHEEL as u64,
            "instruction latency {max_latency} exceeds the {WHEEL}-cycle completion wheel \
             (muldiv_latency is {})",
            self.config.muldiv_latency
        );
        let ring = self.config.rob_entries.next_power_of_two();
        let mut seeder = SplitMix64::new(self.seed);
        let threads = self
            .threads
            .into_iter()
            .map(|(workload, est, sink)| {
                let estimator = est.build();
                // A probability-producing estimator's probability is
                // `Probability::from_score` of its score, so its
                // instances bin by table lookup on the score.
                let prob_bins = estimator
                    .goodpath_probability()
                    .is_some()
                    .then(PercentBins::get);
                Thread {
                    workload,
                    estimator,
                    prob_bins,
                    hist: GlobalHistory::new(self.config.tournament.history_bits.max(8)),
                    ras: ReturnAddressStack::new(self.config.ras_depth),
                    path: PathState::Good,
                    pending: None,
                    front: VecDeque::new(),
                    rob: VecDeque::new(),
                    rob_front_seq: 0,
                    done: vec![false; ring],
                    waiters: vec![Vec::new(); ring],
                    next_seq: 0,
                    fetch_stall_until: 0,
                    in_flight: 0,
                    wp_seeds: seeder.fork(),
                    stats: ThreadStats::new(),
                    sink,
                }
            })
            .collect();
        Machine {
            predictor: TournamentPredictor::new(self.config.tournament),
            btb: Btb::new(self.config.btb),
            indirect: IndirectPredictor::new(1024),
            mdc: MdcTable::new(self.config.confidence),
            caches,
            threads,
            rob_free: self.config.rob_entries,
            ring_mask: ring as u64 - 1,
            sched: vec![
                SchedEntry {
                    order: FREE,
                    tid: 0,
                    seq: 0,
                    pending: 0,
                };
                self.config.scheduler_entries
            ],
            sched_free: (0..self.config.scheduler_entries).rev().collect(),
            ready: BinaryHeap::with_capacity(self.config.scheduler_entries),
            next_order: 0,
            wheel: vec![Vec::new(); WHEEL],
            completing: Vec::new(),
            gating: self.gating,
            fetch_policy: self.fetch_policy,
            cycle: 0,
            stats_since: 0,
            config: self.config,
        }
    }
}

impl Machine {
    /// Runs until every thread has retired at least `instructions`
    /// goodpath instructions (or the configured cycle cap is hit).
    /// Returns the accumulated statistics.
    pub fn run(&mut self, instructions: u64) -> MachineStats {
        let limit = self.config.max_cycles;
        while self.threads.iter().any(|t| t.stats.retired < instructions) && self.cycle < limit {
            self.advance(limit);
        }
        self.stats()
    }

    /// Runs for a fixed number of cycles.
    pub fn run_cycles(&mut self, cycles: u64) -> MachineStats {
        let limit = self.cycle.saturating_add(cycles);
        while self.cycle < limit {
            self.advance(limit);
        }
        self.stats()
    }

    /// Advances by one [`step`](Self::step) or, when the machine is
    /// quiescent, straight to the next cycle in which a stage can act —
    /// never past `limit`, which must lie ahead.
    fn advance(&mut self, limit: Cycle) {
        match self.idle_until(limit) {
            Some(until) => self.skip_to(until),
            None => self.step(),
        }
    }

    /// If no stage can act this cycle, the earliest cycle (capped at
    /// `limit`) in which one might: the next non-empty completion
    /// bucket, a front-end arrival, or the end of a fetch stall. Nothing
    /// else can wake a quiescent machine — retirement and issue wait on
    /// completions, dispatch on arrivals (or on room that only
    /// retirement, issue and recovery free), and a gated thread's score
    /// changes only at resolution. `None` when some stage can act now.
    fn idle_until(&self, limit: Cycle) -> Option<Cycle> {
        if !self.ready.is_empty() || !self.wheel[(self.cycle % WHEEL as u64) as usize].is_empty() {
            return None;
        }
        let front_cap = self.config.width * self.config.frontend_depth.max(1) as usize;
        let room = self.rob_free > 0 && !self.sched_free.is_empty();
        let mut until = limit;
        for t in &self.threads {
            if t.rob
                .front()
                .is_some_and(|s| t.done[(s.seq & self.ring_mask) as usize])
            {
                return None; // retires now
            }
            if let Some(&(arrival, _)) = t.front.front() {
                if arrival > self.cycle {
                    until = until.min(arrival);
                } else if room {
                    return None; // dispatches now
                }
            }
            if self.cycle < t.fetch_stall_until {
                until = until.min(t.fetch_stall_until);
            } else if !self.gated(t) && t.front.len() < front_cap {
                return None; // fetches now
            }
        }
        let next_completion = (self.cycle + 1..until)
            .take(WHEEL)
            .find(|&c| !self.wheel[(c % WHEEL as u64) as usize].is_empty());
        Some(next_completion.unwrap_or(until))
    }

    /// Whether gating blocks all of thread `t`'s fetch (at full width:
    /// in a quiescent cycle no other thread has fetched before it).
    fn gated(&self, t: &Thread) -> bool {
        self.gating
            .allowed_width(t.estimator.score(), self.config.width)
            == 0
    }

    /// Jumps over the quiescent cycles up to `until`, accounting for them
    /// exactly as that many [`step`](Self::step)s would: each unstalled
    /// gated thread counts them as gated, and every estimator ticks once
    /// for all of them — the same as one tick per cycle, since a refresh
    /// never touches the score register (nor, hence, the gating).
    fn skip_to(&mut self, until: Cycle) {
        let cycles = until - self.cycle;
        for tid in 0..self.threads.len() {
            let t = &self.threads[tid];
            if self.cycle >= t.fetch_stall_until && self.gated(t) {
                self.threads[tid].stats.gated_cycles += cycles;
            }
            self.threads[tid].estimator.tick(cycles);
        }
        self.cycle = until;
    }

    /// A snapshot of the statistics accumulated since construction or the
    /// last [`reset_stats`](Self::reset_stats) call.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.cycle - self.stats_since,
            threads: self.threads.iter().map(|t| t.stats.clone()).collect(),
        }
    }

    /// Zeroes all statistics while preserving microarchitectural state
    /// (predictor tables, caches, MRT encodings, in-flight instructions).
    ///
    /// Mirrors the paper's methodology of fast-forwarding through the
    /// initialization phase before measuring: warm the machine up with
    /// [`run`](Self::run), reset, then measure.
    pub fn reset_stats(&mut self) {
        self.stats_since = self.cycle;
        for t in &mut self.threads {
            t.stats = ThreadStats::new();
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Detaches and returns thread `tid`'s trace sink, if one was
    /// attached, so the caller can finalize it (flush buffered chunks,
    /// patch the trace header) after a run.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn take_trace_sink(&mut self, tid: usize) -> Option<Box<dyn TraceSink>> {
        self.threads[tid].sink.take()
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.complete_stage();
        self.retire_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        for t in &mut self.threads {
            t.estimator.tick(1);
        }
        self.cycle += 1;
    }

    // ---------------------------------------------------------------- //
    //  Completion: instructions finishing execution this cycle.        //
    // ---------------------------------------------------------------- //
    fn complete_stage(&mut self) {
        let bucket = (self.cycle % WHEEL as u64) as usize;
        std::mem::swap(&mut self.wheel[bucket], &mut self.completing);
        for i in 0..self.completing.len() {
            let (tid, seq, order) = self.completing[i];
            let Some(slot) = self.threads[tid].slot_by_seq_mut(seq) else {
                continue; // squashed while in flight
            };
            if slot.order != order {
                continue; // stale event: the seq was reused after a squash
            }
            let token = slot.token.take();
            let on_goodpath = slot.on_goodpath;
            let ctrl = slot.ctrl;
            self.wake(tid, seq);

            if let Some(ctrl) = ctrl {
                if on_goodpath {
                    if let Some(token) = token {
                        self.threads[tid]
                            .estimator
                            .on_resolve(token, ctrl.mispredicted);
                    }
                    // The JRS MDC table trains at branch resolution, like
                    // the MRT (paper Fig. 5: "Branch Exec Info (from
                    // backend)").
                    if let Some(idx) = ctrl.mdc_index {
                        self.mdc.update(idx, !ctrl.mispredicted);
                    }
                    if ctrl.mispredicted {
                        self.recover(tid, seq, &ctrl);
                    }
                } else if let Some(token) = token {
                    // Wrong-path branches leave the window without an
                    // architected outcome: remove their contribution
                    // without training.
                    self.threads[tid].estimator.on_squash(token);
                }
            }
        }
        self.completing.clear();
    }

    /// Marks `seq` of thread `tid` done and moves the scheduler entries
    /// waiting on nothing else into the ready set.
    fn wake(&mut self, tid: usize, seq: u64) {
        let ring_slot = (seq & self.ring_mask) as usize;
        let t = &mut self.threads[tid];
        t.done[ring_slot] = true;
        let mut waiters = std::mem::take(&mut t.waiters[ring_slot]);
        for &(idx, order) in &waiters {
            let entry = &mut self.sched[idx];
            if entry.order != order {
                continue; // squashed by `recover`
            }
            entry.pending -= 1;
            if entry.pending == 0 {
                self.ready.push(Reverse((order, idx)));
            }
        }
        waiters.clear();
        self.threads[tid].waiters[ring_slot] = waiters;
    }

    /// Squashes everything younger than `seq` in thread `tid` and
    /// redirects fetch to the goodpath.
    fn recover(&mut self, tid: usize, seq: u64, ctrl: &CtrlState) {
        let redirect_at = self.cycle + self.config.redirect_penalty;
        let t = &mut self.threads[tid];
        let mut rob_reclaimed = 0;

        // Squash ROB suffix.
        while t.rob.back().map(|s| s.seq > seq).unwrap_or(false) {
            let mut s = t.rob.pop_back().unwrap();
            if let Some(token) = s.token.take() {
                t.estimator.on_squash(token);
            }
            rob_reclaimed += 1;
            t.in_flight = t.in_flight.saturating_sub(1);
        }
        // Squash the entire front-end pipe (all younger than the branch).
        while let Some((_, mut s)) = t.front.pop_back() {
            if let Some(token) = s.token.take() {
                t.estimator.on_squash(token);
            }
            t.in_flight = t.in_flight.saturating_sub(1);
        }
        // Repair speculative state.
        t.hist
            .restore((ctrl.hist_before << 1) | ctrl.actual_taken as u64);
        t.ras.restore(ctrl.ras_checkpoint);
        t.path = PathState::Good;
        t.fetch_stall_until = t.fetch_stall_until.max(redirect_at);
        // Rewind the sequence counter: squashed seqs are dead, and reusing
        // them keeps each thread's ROB contiguous in seq (which the slot
        // lookup, the done/waiter rings and the workload's dependency
        // distances all rely on).
        t.next_seq = seq + 1;
        // `pending` (the peeked-but-unfetched goodpath successor) survives
        // recovery: it is exactly where fetch must resume.
        self.rob_free += rob_reclaimed;
        // Free the squashed (never issued) scheduler entries. Their
        // waiter-list and ready-set references go stale with the dispatch
        // number and are dropped when next visited.
        for (idx, entry) in self.sched.iter_mut().enumerate() {
            if entry.order != FREE && entry.tid == tid && entry.seq > seq {
                entry.order = FREE;
                self.sched_free.push(idx);
            }
        }
    }

    // ---------------------------------------------------------------- //
    //  Retirement: in-order, up to `width` per cycle, shared.           //
    // ---------------------------------------------------------------- //
    fn retire_stage(&mut self) {
        let mut budget = self.config.width;
        let nthreads = self.threads.len();
        let mut made_progress = true;
        while budget > 0 && made_progress {
            made_progress = false;
            for tid in 0..nthreads {
                if budget == 0 {
                    break;
                }
                let t = &mut self.threads[tid];
                let head_done = t
                    .rob
                    .front()
                    .is_some_and(|s| t.done[(s.seq & self.ring_mask) as usize]);
                if !head_done {
                    continue;
                }
                let slot = t.rob.pop_front().unwrap();
                t.rob_front_seq = slot.seq + 1;
                t.in_flight = t.in_flight.saturating_sub(1);
                self.rob_free += 1;
                budget -= 1;
                made_progress = true;

                debug_assert!(slot.on_goodpath, "wrong-path instruction retired");
                t.stats.retired += 1;
                if let Some(ctrl) = slot.ctrl {
                    self.train_on_retire(tid, &ctrl);
                }
            }
        }
    }

    fn train_on_retire(&mut self, tid: usize, ctrl: &CtrlState) {
        let stats = &mut self.threads[tid].stats;
        stats.control_retired += 1;
        stats.control_mispredicted += ctrl.mispredicted as u64;
        match ctrl.kind {
            ControlKind::Conditional => {
                stats.cond_retired += 1;
                stats.cond_mispredicted += ctrl.mispredicted as u64;
                if let Some(mdc) = ctrl.mdc_at_fetch {
                    stats.mdc_retired[mdc.bucket()] += 1;
                    stats.mdc_mispredicted[mdc.bucket()] += ctrl.mispredicted as u64;
                }
                self.predictor.update(
                    ctrl.pc,
                    ctrl.hist_before,
                    ctrl.actual_taken,
                    ctrl.predicted_taken,
                );
            }
            ControlKind::Indirect => {
                self.indirect.update(ctrl.pc, ctrl.actual_target);
            }
            ControlKind::Jump | ControlKind::Call | ControlKind::Return => {}
        }
        if ctrl.actual_taken {
            self.btb.update(ctrl.pc, ctrl.actual_target);
        }
    }

    // ---------------------------------------------------------------- //
    //  Issue: oldest-dispatched first among the ready entries.          //
    // ---------------------------------------------------------------- //
    fn issue_stage(&mut self) {
        let mut issued = 0;
        while issued < self.config.fu_count {
            let Some(Reverse((order, idx))) = self.ready.pop() else {
                break;
            };
            let entry = self.sched[idx];
            if entry.order != order {
                continue; // squashed after it became ready
            }
            self.sched[idx].order = FREE;
            self.sched_free.push(idx);
            issued += 1;

            let (tid, seq) = (entry.tid, entry.seq);
            let t = &self.threads[tid];
            let slot = &t.rob[(seq - t.rob_front_seq) as usize];
            let (class, mem, was_goodpath_instr) = (slot.class, slot.mem_addr, slot.on_goodpath);
            let latency = match class {
                InstrClass::Alu | InstrClass::Nop => 1,
                InstrClass::MulDiv => self.config.muldiv_latency,
                InstrClass::Store => {
                    if let Some(addr) = mem {
                        self.caches.l1d.access(addr);
                    }
                    1
                }
                InstrClass::Load => match mem {
                    Some(addr) => self.caches.data_latency(addr),
                    None => 2,
                },
                InstrClass::Control(_) => 1,
            };
            let done = self.cycle + latency.max(1);
            self.wheel[(done % WHEEL as u64) as usize].push((tid, seq, order));

            let t = &mut self.threads[tid];
            let on_goodpath = t.on_goodpath();
            t.stats.executed += 1;
            t.stats.executed_badpath += (!was_goodpath_instr) as u64;
            // Execute-event confidence instance (paper §4.3 footnote 6).
            let score = t.estimator.score().0;
            let prob_bin = t.prob_bins.map(|bins| bins.bin(score));
            t.stats.sample_instance(prob_bin, score, on_goodpath);
        }
    }

    // ---------------------------------------------------------------- //
    //  Dispatch: front-end pipe into ROB + scheduler.                   //
    // ---------------------------------------------------------------- //
    fn dispatch_stage(&mut self) {
        for tid in 0..self.threads.len() {
            let mut budget = self.config.width;
            while budget > 0 && self.rob_free > 0 {
                let t = &mut self.threads[tid];
                let arrived = t.front.front().is_some_and(|(c, _)| *c <= self.cycle);
                if !arrived {
                    break;
                }
                let Some(idx) = self.sched_free.pop() else {
                    break;
                };
                let (_, mut slot) = t.front.pop_front().unwrap();
                let seq = slot.seq;
                let order = self.next_order;
                self.next_order += 1;
                slot.order = order;
                if t.rob.is_empty() {
                    t.rob_front_seq = seq;
                }
                t.done[(seq & self.ring_mask) as usize] = false;
                // Register with every producer still executing. Producers
                // are older, so each is retired (before the ROB front) or
                // in the ROB, where the done ring answers for it.
                let mut pending = 0;
                for d in slot.deps {
                    if d == 0 || d as u64 > seq {
                        continue; // no producer
                    }
                    let producer = seq - d as u64;
                    let ring_slot = (producer & self.ring_mask) as usize;
                    if producer >= t.rob_front_seq && !t.done[ring_slot] {
                        t.waiters[ring_slot].push((idx, order));
                        pending += 1;
                    }
                }
                t.rob.push_back(slot);
                self.rob_free -= 1;
                self.sched[idx] = SchedEntry {
                    order,
                    tid,
                    seq,
                    pending,
                };
                if pending == 0 {
                    self.ready.push(Reverse((order, idx)));
                }
                budget -= 1;
            }
        }
    }

    // ---------------------------------------------------------------- //
    //  Fetch.                                                           //
    // ---------------------------------------------------------------- //
    fn fetch_stage(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        // Offer the fetch port to threads in policy-priority order; the
        // first thread able to fetch this cycle takes it. (A lone thread's
        // order needs no observations.)
        let mut observations = [(0, paco::ConfidenceScore(0)); MAX_THREADS];
        if self.threads.len() > 1 {
            for (obs, t) in observations.iter_mut().zip(&self.threads) {
                *obs = (t.in_flight, t.estimator.score());
            }
        }
        let order = self
            .fetch_policy
            .priority_order(&observations[..self.threads.len()], self.cycle);

        let front_cap = self.config.width * self.config.frontend_depth.max(1) as usize;
        // Fetch-slot sharing (ICOUNT.2.N style): threads claim groups in
        // priority order until the cycle's fetch width is spent. The
        // higher-priority (more confident / emptier) thread gets the first
        // and usually larger share; the other thread fills leftover slots,
        // so prioritization biases bandwidth without starving anyone —
        // this is how Luo-style confidence prioritization allocates "more
        // fetch bandwidth" rather than all of it.
        let mut remaining = self.config.width;
        for &tid in order.iter() {
            if remaining == 0 {
                break;
            }
            if self.cycle < self.threads[tid].fetch_stall_until {
                continue;
            }
            // Gating decision (per thread).
            let score = self.threads[tid].estimator.score();
            let width = self.gating.allowed_width(score, remaining);
            if width == 0 {
                self.threads[tid].stats.gated_cycles += 1;
                continue;
            }
            if self.threads[tid].front.len() >= front_cap {
                continue;
            }
            // I-cache probe for this thread's fetch group.
            let fetch_pc = self.threads[tid].peek_fetch_pc();
            let icache_stall = self.caches.fetch_latency(fetch_pc.addr());
            if icache_stall > 0 {
                self.threads[tid].fetch_stall_until = self.cycle + icache_stall;
                continue;
            }
            remaining -= self.fetch_group(tid, width, front_cap);
        }
    }

    /// Fetches up to `width` instructions for thread `tid`; returns how
    /// many were fetched.
    fn fetch_group(&mut self, tid: usize, width: usize, front_cap: usize) -> usize {
        let ready_at = self.cycle + self.config.frontend_depth;
        let mut fetched = 0;
        while fetched < width && self.threads[tid].front.len() < front_cap {
            let on_goodpath = self.threads[tid].on_goodpath();
            let instr = {
                let t = &mut self.threads[tid];
                if on_goodpath {
                    match t.pending.take() {
                        Some(i) => i,
                        None => t.pull_instr(),
                    }
                } else {
                    match &mut t.path {
                        PathState::Bad { gen } => gen.next_instr(),
                        PathState::Good => unreachable!(),
                    }
                }
            };
            let seq = self.threads[tid].next_seq;
            self.threads[tid].next_seq += 1;

            let mut slot = Slot {
                order: FREE,
                seq,
                class: instr.class,
                deps: instr.deps,
                mem_addr: instr.mem.map(|m| m.addr),
                on_goodpath,
                token: None,
                ctrl: None,
            };

            let mut ends_group = false;
            if let InstrClass::Control(kind) = instr.class {
                let (ctrl, token, predicted_taken) =
                    self.process_control_fetch(tid, kind, &instr, on_goodpath);
                ends_group = predicted_taken;
                slot.token = token;
                slot.ctrl = Some(ctrl);
            }

            let t = &mut self.threads[tid];
            t.stats.fetched += 1;
            t.stats.fetched_badpath += (!on_goodpath) as u64;
            // Fetch-event confidence instance.
            let score = t.estimator.score().0;
            let prob_bin = t.prob_bins.map(|bins| bins.bin(score));
            t.stats.sample_instance(prob_bin, score, on_goodpath);

            t.front.push_back((ready_at, slot));
            t.in_flight += 1;
            fetched += 1;
            if ends_group {
                break;
            }
        }
        fetched
    }

    /// Handles prediction, confidence allocation and path bookkeeping for a
    /// fetched control instruction. Returns the control state, the
    /// confidence token, and whether fetch was redirected (ends the group).
    fn process_control_fetch(
        &mut self,
        tid: usize,
        kind: ControlKind,
        instr: &DynInstr,
        on_goodpath: bool,
    ) -> (CtrlState, Option<BranchToken>, bool) {
        let pc = instr.pc;
        let hist_before = self.threads[tid].hist.bits();

        let (predicted_taken, mispredicted, wrong_target, mdc_index, mdc_at_fetch, info) =
            match kind {
                ControlKind::Conditional => {
                    let predicted = self.predictor.predict(pc, hist_before);
                    let idx = self.mdc.index(pc, hist_before, predicted);
                    let mdc = self.mdc.read(idx);
                    let info =
                        BranchFetchInfo::conditional_keyed(mdc, pc.table_hash() ^ hist_before);
                    let mispred = on_goodpath && predicted != instr.taken;
                    let wrong = if predicted { instr.target } else { pc.next() };
                    (predicted, mispred, wrong, Some(idx), Some(mdc), info)
                }
                ControlKind::Jump | ControlKind::Call => (
                    true,
                    false,
                    instr.target,
                    None,
                    None,
                    BranchFetchInfo::non_conditional(),
                ),
                ControlKind::Return => {
                    let predicted_target = self.threads[tid].ras.pop();
                    let mispred = on_goodpath && predicted_target != Some(instr.target);
                    (
                        true,
                        mispred,
                        predicted_target.unwrap_or_else(|| pc.next()),
                        None,
                        None,
                        BranchFetchInfo::non_conditional(),
                    )
                }
                ControlKind::Indirect => {
                    let predicted_target = self.indirect.predict(pc);
                    let mispred = on_goodpath && predicted_target != Some(instr.target);
                    (
                        true,
                        mispred,
                        predicted_target.unwrap_or_else(|| pc.next()),
                        None,
                        None,
                        BranchFetchInfo::non_conditional(),
                    )
                }
            };

        // Speculative state updates.
        if kind == ControlKind::Conditional {
            self.threads[tid].hist.push(predicted_taken);
        }
        if kind == ControlKind::Call {
            self.threads[tid].ras.push(pc.next());
        }
        let ras_checkpoint = self.threads[tid].ras.checkpoint();

        // Confidence token.
        let token = Some(self.threads[tid].estimator.on_fetch(info));

        // Fetch-path bookkeeping.
        if on_goodpath {
            if mispredicted {
                let seed = self.threads[tid].wp_seeds.next_u64();
                let gen = self.threads[tid].workload.wrong_path(wrong_target, seed);
                self.threads[tid].path = PathState::Bad { gen };
            }
            // On the goodpath the trace itself continues at the actual
            // successor; nothing to redirect.
        } else if let PathState::Bad { gen } = &mut self.threads[tid].path {
            // Follow the prediction down the wrong path: the generator's
            // synthetic taken-target stands in for the BTB's prediction.
            if predicted_taken {
                gen.redirect(instr.target);
            }
        }

        // The actual direction the front end follows: a predicted-taken
        // control (or a goodpath-actually-taken one the predictor got
        // right) redirects the group.
        let redirects = predicted_taken || (on_goodpath && instr.taken);

        let ctrl = CtrlState {
            kind,
            mispredicted,
            predicted_taken,
            actual_taken: instr.taken,
            actual_target: instr.target,
            pc,
            hist_before,
            mdc_index,
            mdc_at_fetch,
            ras_checkpoint,
        };
        (ctrl, token, redirects)
    }
}

// The experiment engine fans simulations out across threads; every trait
// object a machine holds (workload, estimator, trace sink) carries a
// `Send` supertrait, so the machine as a whole must stay `Send`. This
// fails to compile if a non-`Send` field is ever introduced.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<MachineBuilder>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use paco::{PacoConfig, ThresholdCountConfig};
    use paco_workloads::BenchmarkId;

    fn small_machine(est: EstimatorKind) -> Machine {
        MachineBuilder::new(SimConfig::paper_4wide())
            .thread(Box::new(BenchmarkId::Gzip.build(3)), est)
            .seed(11)
            .build()
    }

    #[test]
    fn retires_requested_instructions() {
        let mut m = small_machine(EstimatorKind::None);
        let stats = m.run(5_000);
        assert!(stats.threads[0].retired >= 5_000);
        assert!(stats.cycles > 0);
        let ipc = stats.ipc(0);
        assert!(ipc > 0.2 && ipc <= 4.0, "ipc {ipc}");
    }

    #[test]
    fn wrong_path_instructions_are_fetched_and_squashed() {
        let mut m = small_machine(EstimatorKind::None);
        let stats = m.run(30_000);
        let t = &stats.threads[0];
        assert!(
            t.fetched_badpath > 0,
            "mispredicts must cause wrong-path fetch"
        );
        assert!(
            t.executed_badpath > 0,
            "some wrong-path instrs must execute"
        );
        assert!(t.fetched > t.retired);
        // Badpath never retires: retired == goodpath instruction count.
        assert!(t.fetched - t.fetched_badpath >= t.retired);
    }

    #[test]
    fn mispredict_rates_match_workload_regime() {
        let mut m = small_machine(EstimatorKind::None);
        let stats = m.run(200_000);
        let rate = stats.threads[0].cond_mispredict_pct().unwrap();
        // gzip models ~3.2% conditional mispredicts.
        assert!(rate > 0.5 && rate < 8.0, "rate {rate}");
    }

    #[test]
    fn paco_estimator_tokens_balance() {
        // After draining the pipeline, the estimator's score returns to 0.
        let mut m = small_machine(EstimatorKind::Paco(PacoConfig::paper()));
        m.run(20_000);
        // Drain: stop fetching by exhausting with a huge gate.
        m.gating = GatingPolicy::CountGate { gate_count: 0 };
        for _ in 0..5_000 {
            m.step();
        }
        let t = &m.threads[0];
        assert_eq!(t.in_flight, 0, "pipeline must drain");
        assert_eq!(t.estimator.score().0, 0, "confidence register must empty");
    }

    #[test]
    fn counter_estimator_tokens_balance() {
        let mut m = small_machine(EstimatorKind::ThresholdCount(
            ThresholdCountConfig::paper_default(),
        ));
        m.run(20_000);
        m.gating = GatingPolicy::CountGate { gate_count: 0 };
        for _ in 0..5_000 {
            m.step();
        }
        assert_eq!(m.threads[0].estimator.score().0, 0);
    }

    #[test]
    fn gating_reduces_badpath_execution() {
        let mut base = small_machine(EstimatorKind::ThresholdCount(
            ThresholdCountConfig::paper_default(),
        ));
        let b = base.run(100_000);

        let mut gated = MachineBuilder::new(SimConfig::paper_4wide())
            .thread(
                Box::new(BenchmarkId::Gzip.build(3)),
                EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            )
            .gating(GatingPolicy::CountGate { gate_count: 1 })
            .seed(11)
            .build();
        let g = gated.run(100_000);

        assert!(
            g.total_badpath_executed() < b.total_badpath_executed(),
            "gating must reduce badpath execution: {} vs {}",
            g.total_badpath_executed(),
            b.total_badpath_executed()
        );
        assert!(g.threads[0].gated_cycles > 0);
    }

    #[test]
    fn smt_runs_two_threads() {
        let mut m = MachineBuilder::new(SimConfig::paper_smt_8wide())
            .thread(Box::new(BenchmarkId::Gzip.build(1)), EstimatorKind::None)
            .thread(Box::new(BenchmarkId::Twolf.build(2)), EstimatorKind::None)
            .fetch_policy(FetchPolicy::ICount)
            .seed(5)
            .build();
        let stats = m.run(20_000);
        assert!(stats.threads[0].retired >= 20_000);
        assert!(stats.threads[1].retired >= 20_000);
    }

    #[test]
    fn oracle_instances_are_recorded() {
        let mut m = small_machine(EstimatorKind::Paco(PacoConfig::paper()));
        let stats = m.run(50_000);
        let total: u64 = stats.threads[0].prob_instances.iter().map(|b| b.0).sum();
        assert!(total > 50_000, "fetch+execute instances: {total}");
        // Badpath instances exist, so some bins contain non-goodpath samples.
        let bad: u64 = stats.threads[0]
            .prob_instances
            .iter()
            .map(|b| b.0 - b.1)
            .sum();
        assert!(bad > 0);
    }

    #[test]
    fn only_probability_estimators_record_probability_bins() {
        use paco::{AdaptiveMrtConfig, PerBranchMrtConfig};
        let kinds = [
            (EstimatorKind::None, false),
            (
                EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
                false,
            ),
            (EstimatorKind::Paco(PacoConfig::paper()), true),
            (EstimatorKind::StaticMrt, true),
            (
                EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
                true,
            ),
            (EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()), true),
        ];
        for (kind, has_probability) in kinds {
            let stats = small_machine(kind).run(5_000);
            let t = &stats.threads[0];
            let binned: u64 = t.prob_instances.iter().map(|b| b.0).sum();
            let instances: u64 = t.score_instances.iter().map(|b| b.0).sum();
            // Every fetch and execute event is one instance.
            assert_eq!(instances, t.fetched + t.executed, "{kind:?}");
            let expected = if has_probability { instances } else { 0 };
            assert_eq!(binned, expected, "{kind:?}");
        }
    }

    #[test]
    fn throttling_reduces_fetch_without_stopping_it() {
        let mut full = MachineBuilder::new(SimConfig::paper_4wide())
            .thread(
                Box::new(BenchmarkId::Twolf.build(7)),
                EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            )
            .seed(3)
            .build();
        let f = full.run(50_000);

        let mut throttled = MachineBuilder::new(SimConfig::paper_4wide())
            .thread(
                Box::new(BenchmarkId::Twolf.build(7)),
                EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            )
            .gating(GatingPolicy::CountThrottle { start: 1 })
            .seed(3)
            .build();
        let t = throttled.run(50_000);

        assert!(
            t.total_badpath_fetched() < f.total_badpath_fetched(),
            "throttling must cut wrong-path fetch"
        );
        // Unlike a hard gate, throttling keeps the machine moving.
        assert!(t.ipc(0) > f.ipc(0) * 0.5, "throttle IPC {}", t.ipc(0));
    }

    #[test]
    fn smt_confidence_policy_does_not_starve_a_thread() {
        // A memory-bound thread (mcf) must not monopolize fetch just
        // because its few branches keep its confidence score at zero.
        let mut m = MachineBuilder::new(SimConfig::paper_smt_8wide())
            .thread(
                Box::new(BenchmarkId::Mcf.build(1)),
                EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            )
            .thread(
                Box::new(BenchmarkId::VprPlace.build(2)),
                EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            )
            .fetch_policy(FetchPolicy::Confidence)
            .seed(5)
            .build();
        let stats = m.run_cycles(120_000);
        let low = stats.threads[0].retired.min(stats.threads[1].retired);
        let high = stats.threads[0].retired.max(stats.threads[1].retired);
        assert!(
            low * 20 > high,
            "starvation: {} vs {} retired",
            stats.threads[0].retired,
            stats.threads[1].retired
        );
    }

    #[test]
    fn reset_stats_preserves_microarchitectural_state() {
        let mut m = small_machine(EstimatorKind::Paco(PacoConfig::paper()));
        m.run(30_000);
        let warm_rate = {
            let s = m.stats();
            s.threads[0].cond_mispredict_pct().unwrap()
        };
        m.reset_stats();
        let s = m.stats();
        assert_eq!(s.threads[0].retired, 0);
        assert_eq!(s.cycles, 0);
        // Continue running: the predictor is still warm, so the mispredict
        // rate should not blow back up to cold-start levels.
        let s2 = m.run(30_000);
        let rate = s2.threads[0].cond_mispredict_pct().unwrap();
        assert!(
            rate < warm_rate * 1.5 + 1.0,
            "post-reset rate {rate:.2}% vs warm {warm_rate:.2}%"
        );
    }

    /// A straight-line chain of multiplies, each consuming the previous
    /// one's result: its run time is the chain length times the latency.
    struct MulChain {
        produced: u64,
    }

    impl Workload for MulChain {
        fn name(&self) -> &str {
            "mulchain"
        }

        fn next_instr(&mut self) -> DynInstr {
            let pc = Pc::new(0x1000 + 4 * (self.produced % 16));
            self.produced += 1;
            DynInstr {
                class: InstrClass::MulDiv,
                deps: [1, 0],
                ..DynInstr::alu(pc)
            }
        }

        fn wrong_path_params(&self) -> paco_workloads::WrongPathParams {
            BenchmarkId::Gcc.build(1).wrong_path_params()
        }

        fn instructions_produced(&self) -> u64 {
            self.produced
        }
    }

    fn mulchain_cycles(muldiv_latency: u64, instrs: u64) -> u64 {
        let config = SimConfig {
            muldiv_latency,
            ..SimConfig::paper_4wide()
        };
        MachineBuilder::new(config)
            .thread(Box::new(MulChain { produced: 0 }), EstimatorKind::None)
            .build()
            .run(instrs)
            .cycles
    }

    #[test]
    fn latencies_up_to_the_wheel_size_complete_on_time() {
        // Every link of the chain waits exactly one latency for its
        // producer, so each extra cycle of latency costs one cycle per
        // instruction — including at the wheel size itself, where a
        // completion lands in the bucket drained earlier in the cycle.
        let n = 40;
        let at = |l| mulchain_cycles(l, n);
        assert_eq!(at(WHEEL as u64) - at(WHEEL as u64 - 1), n);
        assert_eq!(at(WHEEL as u64) - at(8), n * (WHEEL as u64 - 8));
    }

    #[test]
    #[should_panic(expected = "exceeds the 256-cycle completion wheel")]
    fn latency_beyond_the_wheel_is_rejected() {
        // One more cycle would wrap onto a drained bucket and complete
        // the multiply a whole wheel turn early.
        mulchain_cycles(WHEEL as u64 + 1, 1);
    }

    #[test]
    fn deterministic_runs() {
        let s1 = small_machine(EstimatorKind::Paco(PacoConfig::paper())).run(30_000);
        let s2 = small_machine(EstimatorKind::Paco(PacoConfig::paper())).run(30_000);
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.threads[0].retired, s2.threads[0].retired);
        assert_eq!(
            s1.threads[0].cond_mispredicted,
            s2.threads[0].cond_mispredicted
        );
    }
}
