//! Open-loop arrival accounting: each operation is due at a fixed time,
//! and its latency runs from that due time, not from when the generator
//! got round to it. A stall therefore shows up in the latency of every
//! operation queued behind it, and the generator's own lateness is
//! reported as lag.

/// Time source for [`drive`]; tests substitute a virtual clock.
pub trait Clock {
    /// Nanoseconds since the schedule's origin.
    fn now_ns(&self) -> u64;
    /// Blocks until [`now_ns`](Self::now_ns) reaches `t` (or returns
    /// at once if it already has).
    fn sleep_until_ns(&self, t: u64);
}

/// How far ahead of a due time [`WallClock`] stops sleeping.
const WAKE_EARLY_NS: u64 = 100_000;

/// A monotonic wall clock whose origin is `start`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// The schedule's origin.
    pub start: std::time::Instant,
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, t: u64) {
        // Sleep to just short of the due time, then yield until it: a
        // plain sleep overshoots by the timer slack and wake-up delay,
        // which would count as generator lag.
        let now = self.now_ns();
        if t > now + WAKE_EARLY_NS {
            std::thread::sleep(std::time::Duration::from_nanos(t - now - WAKE_EARLY_NS));
        }
        while self.now_ns() < t {
            std::thread::yield_now();
        }
    }
}

/// One operation's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// When the operation was due.
    pub due_ns: u64,
    /// How late the generator started it (`start - due`).
    pub lag_ns: u64,
    /// Completion minus due time.
    pub latency_ns: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Runs the operations `(index, due_ns)` in order on the calling thread:
/// waits for each due time (never for a missed one), runs `op`, and
/// times it from its due time.
pub fn drive<C: Clock>(
    clock: &C,
    due: impl IntoIterator<Item = (usize, u64)>,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Timed> {
    let mut out = Vec::new();
    for (index, due_ns) in due {
        clock.sleep_until_ns(due_ns);
        let start = clock.now_ns();
        let ok = op(index);
        let end = clock.now_ns();
        out.push(Timed {
            due_ns,
            lag_ns: start.saturating_sub(due_ns),
            latency_ns: end.saturating_sub(due_ns),
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct VirtualClock(Cell<u64>);

    impl Clock for VirtualClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until_ns(&self, t: u64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stall_delays_every_operation_queued_behind_it() {
        // Due every 100 ns; each op takes 10 ns, except op 2 which
        // stalls for 450 ns.
        let clock = VirtualClock(Cell::new(0));
        let schedule = (0..8).map(|i| (i, i as u64 * 100));
        let timed = drive(&clock, schedule, |i| {
            let cost = if i == 2 { 450 } else { 10 };
            clock.0.set(clock.0.get() + cost);
            true
        });
        let lat: Vec<u64> = timed.iter().map(|t| t.latency_ns).collect();
        let lag: Vec<u64> = timed.iter().map(|t| t.lag_ns).collect();
        // Op 2 ends at 650: op 3 (due 300) starts 350 late, op 4 (due
        // 400) 260 late, op 5 (due 500) 170 late, op 6 80 late, op 7 on
        // time. Timing from the start instead would report 10 ns for
        // ops 3..6 and hide the stall.
        assert_eq!(lag, vec![0, 0, 0, 350, 260, 170, 80, 0]);
        assert_eq!(lat, vec![10, 10, 450, 360, 270, 180, 90, 10]);
    }

    #[test]
    fn an_early_generator_waits_for_the_due_time() {
        let clock = VirtualClock(Cell::new(0));
        let timed = drive(&clock, [(0, 1000)], |_| {
            clock.0.set(clock.0.get() + 5);
            false
        });
        assert_eq!(
            timed,
            vec![Timed {
                due_ns: 1000,
                lag_ns: 0,
                latency_ns: 5,
                ok: false
            }]
        );
    }
}
