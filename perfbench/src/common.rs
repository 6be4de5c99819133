//! What every workload shares: arguments, the result shape, the serving
//! configuration and the seeded event inputs.

use paco::PacoConfig;
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::DynInstr;
use paco_workloads::Workload;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: refusals, errors, exhausted retries, digest
    /// or statistics mismatches.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable context (percentile ranks, sample counts, noise).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Corpus family every served session streams.
pub const FAMILY: &str = "markov_walk";

/// The serving configuration: the paper's tables with the PaCo estimator.
pub fn paco_config() -> OnlineConfig {
    OnlineConfig::paper(EstimatorKind::Paco(PacoConfig::paper()))
}

/// The same tables with no estimator.
pub fn none_config() -> OnlineConfig {
    OnlineConfig::paper(EstimatorKind::None)
}

/// The first `count` control events of the [`FAMILY`] corpus workload
/// built with `seed`.
pub fn family_events(seed: u64, count: usize) -> Vec<DynInstr> {
    let family = paco_corpus::find_entry(FAMILY)
        .expect("markov_walk is in the corpus manifest")
        .family;
    let mut workload = family.build(seed);
    let mut events = Vec::with_capacity(count);
    while events.len() < count {
        let instr = workload.next_instr();
        if instr.class.is_control() {
            events.push(instr);
        }
    }
    events
}

/// Wall-clock samples of a workload's set-up. Set-up runs several times
/// before the measured window and again after it, so a burst of host
/// noise at either moment moves only some samples; `setup_s` is their
/// median.
#[derive(Debug, Default)]
pub struct Setups {
    secs: Vec<f64>,
}

/// Set-ups timed before the measured window.
pub const SETUPS_BEFORE: usize = 11;
/// Set-ups timed after the measured window.
pub const SETUPS_AFTER: usize = 10;

impl Setups {
    /// Runs `setup` [`SETUPS_BEFORE`] times, tearing each result down
    /// outside the timed stretch, and returns the last one.
    pub fn before<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUPS_BEFORE {
            drop(last.take());
            last = Some(self.time(&mut setup));
        }
        last.expect("at least one set-up")
    }

    /// Runs `setup` [`SETUPS_AFTER`] more times, handing each result to
    /// `teardown` outside the timed stretch.
    pub fn after<T>(&mut self, mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) {
        for _ in 0..SETUPS_AFTER {
            let value = self.time(&mut setup);
            teardown(value);
        }
    }

    fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let value = setup();
        self.secs.push(t.elapsed().as_secs_f64());
        value
    }

    /// Median of every sample, seconds.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.secs)
    }
}

/// `sorted` ns samples as a note: median and tail percentile with the
/// sample count.
pub fn latency_note(label: &str, sorted: &[u64]) -> String {
    match (
        crate::stats::percentile(sorted, 50),
        crate::stats::tail(sorted, 99),
    ) {
        (Some(m), Some(t)) => format!(
            "{label}: p50 {:.1} us, p{} {:.1} us over {} samples",
            m.value as f64 / 1e3,
            t.pct,
            t.value as f64 / 1e3,
            t.samples
        ),
        _ => format!("{label}: too few samples ({})", sorted.len()),
    }
}

/// Latency figures are medians over time slices of this many seconds
/// (at least one slice per window): a burst of host noise moves the
/// slices it falls in, not the reported figure.
pub const LATENCY_SLICE_S: f64 = 1.0;

/// The gated tail percentile. The highest percentile with ten samples
/// beyond it (p99 and up here) moved by more than any allowed bound
/// between runs of the same code on a shared 2-vCPU host — `churn`'s
/// p99 ranged 1.1–2.9 ms while its p90 stayed within 8% — so p99 goes
/// to the notes and p90 is the gated tail.
pub const TAIL_PCT: u32 = 90;

/// `latency_p50_us` and `latency_tail_us` from `(time ns, latency ns)`
/// samples over a `window_s` window, each the median over slices of
/// [`LATENCY_SLICE_S`], with a note naming the tail percentile.
pub fn sliced_latency(out: &mut Outcome, label: &str, samples: &[(u64, u64)], window_s: f64) {
    let slices = ((window_s / LATENCY_SLICE_S) as usize).max(1);
    let s = crate::stats::sliced(samples, (window_s * 1e9) as u64, slices, TAIL_PCT)
        .unwrap_or_else(|| {
            panic!(
                "{label}: {} samples support no percentile per slice",
                samples.len()
            )
        });
    let mut sorted: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
    sorted.sort_unstable();
    out.note(latency_note(label, &sorted));
    out.note(format!(
        "{label}: medians over {slices} slices: p50 {:.1} us, p{} {:.1} us",
        s.p50 as f64 / 1e3,
        s.tail_pct,
        s.tail as f64 / 1e3,
    ));
    out.metric("latency_p50_us", s.p50 as f64 / 1e3, "us");
    out.metric("latency_tail_us", s.tail as f64 / 1e3, "us");
}

/// Median and tail (≤ `max_pct`) of `sorted` ns samples in µs, or an
/// error naming the metric when the sample supports neither.
pub fn p50_tail_us(label: &str, sorted: &[u64], max_pct: u32) -> Result<(f64, f64), String> {
    match (
        crate::stats::percentile(sorted, 50),
        crate::stats::tail(sorted, max_pct),
    ) {
        (Some(m), Some(t)) => Ok((m.value as f64 / 1e3, t.value as f64 / 1e3)),
        _ => Err(format!(
            "{label}: {} samples support no percentile",
            sorted.len()
        )),
    }
}
