//! What the benchmark reads about its host and its own process: the
//! host block printed with every result, peak RSS, and per-thread CPU
//! time from `/proc/self/task/*/schedstat` (run and run-queue wait
//! nanoseconds), which splits server CPU from client CPU without any
//! dependency.

use std::fs;

/// The host a result was measured on.
pub fn host_block() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let l3 = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"cpu\":{},\"nproc\":{},\"l3\":{},\"kernel\":{},\"rustc\":{},\"profile\":{}}}",
        json_str(&cpu),
        nproc(),
        json_str(&l3),
        json_str(&kernel),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kb / 1024.0
}

/// CPU time of one thread, ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cpu {
    /// Time on a CPU.
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl Cpu {
    fn parse(schedstat: &str) -> Option<Cpu> {
        let mut f = schedstat.split_whitespace().map(|v| v.parse::<u64>().ok());
        Some(Cpu {
            run_ns: f.next()??,
            wait_ns: f.next()??,
        })
    }

    /// `self - earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    /// Sum of two readings.
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            run_ns: self.run_ns + other.run_ns,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

/// Name prefix of the server's threads: `paco-shard-N` and the accept
/// thread, whose name the kernel truncates to `paco-served-acc`.
pub const SERVER_THREADS: &str = "paco-s";

/// The calling thread's CPU time so far.
pub fn thread_cpu() -> Cpu {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| Cpu::parse(&s))
        .unwrap_or_default()
}

/// CPU time so far of every thread of this process whose name starts
/// with `prefix`, keyed by thread id.
pub fn threads_cpu(prefix: &str) -> Vec<(u64, Cpu)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(tid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        let named = fs::read_to_string(path.join("comm")).is_ok_and(|c| c.starts_with(prefix));
        if !named {
            continue;
        }
        if let Some(cpu) = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| Cpu::parse(&s))
        {
            out.push((tid, cpu));
        }
    }
    out
}

/// CPU spent between two [`threads_cpu`] readings, summed over the
/// threads present in the later one (a thread born in between counts
/// from zero).
pub fn cpu_between(before: &[(u64, Cpu)], after: &[(u64, Cpu)]) -> Cpu {
    after.iter().fold(Cpu::default(), |acc, (tid, now)| {
        let then = before
            .iter()
            .find(|(t, _)| t == tid)
            .map_or(Cpu::default(), |(_, c)| *c);
        acc.plus(now.since(then))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_and_subtracts() {
        let a = Cpu::parse("1000 200 7\n").expect("three fields");
        assert_eq!(
            a,
            Cpu {
                run_ns: 1000,
                wait_ns: 200
            }
        );
        let b = Cpu {
            run_ns: 1500,
            wait_ns: 260,
        };
        assert_eq!(
            b.since(a),
            Cpu {
                run_ns: 500,
                wait_ns: 60
            }
        );
        let before = [(1, a)];
        let after = [(1, b), (2, a)];
        assert_eq!(
            cpu_between(&before, &after),
            Cpu {
                run_ns: 1500,
                wait_ns: 260
            }
        );
    }

    #[test]
    fn own_thread_is_visible() {
        // Run time may be accounted at scheduler-tick granularity, so a
        // fresh thread reads zero until it has run for a tick.
        let start = std::time::Instant::now();
        while thread_cpu().run_ns == 0 && start.elapsed() < std::time::Duration::from_secs(2) {}
        assert!(thread_cpu().run_ns > 0);
        assert!(peak_rss_mib() > 0.0);
        assert!(host_block().contains("\"nproc\":"));
    }
}
