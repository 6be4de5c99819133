//! Set-associative cache models (L1I, L1D, unified L2).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Latency added when this level misses (the paper expresses cache
    /// parameters as "miss = N cycles").
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// Paper Table 6 L1 I-cache: 32KB, 4-way, 128-byte lines, 10-cycle miss.
    pub const fn paper_l1i() -> Self {
        CacheConfig {
            bytes: 32 * 1024,
            ways: 4,
            line_bytes: 128,
            miss_penalty: 10,
        }
    }

    /// Paper Table 6 L1 D-cache: 32KB, 4-way, 64-byte lines, 10-cycle miss.
    pub const fn paper_l1d() -> Self {
        CacheConfig {
            bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            miss_penalty: 10,
        }
    }

    /// Paper Table 6 L2: 512KB, 8-way, 128-byte lines, 100-cycle miss.
    pub const fn paper_l2() -> Self {
        CacheConfig {
            bytes: 512 * 1024,
            ways: 8,
            line_bytes: 128,
            miss_penalty: 100,
        }
    }

    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> usize {
        self.bytes / (self.ways * self.line_bytes)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    lru: u64,
}

/// A set-associative cache with LRU replacement.
///
/// Tracks only presence (no data); `access` returns whether the line hit
/// and installs it on miss.
///
/// # Examples
///
/// ```
/// use paco_sim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::paper_l1d());
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1000));  // now resident
/// assert!(c.access(0x1004));  // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_shift: u32,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways or a
    /// non-power-of-two line size or set count).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0 && config.ways > 0, "degenerate cache geometry");
        assert!(
            config.line_bytes.is_power_of_two() && sets.is_power_of_two(),
            "line size and set count must be powers of two"
        );
        Cache {
            lines: vec![Line::default(); sets * config.ways],
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            config,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses `addr`; returns `true` on hit. Misses install the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line_addr = addr >> self.set_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];

        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, l) in ways.iter_mut().enumerate() {
            if l.valid && l.tag == tag {
                l.lru = self.tick;
                self.hits += 1;
                return true;
            }
            let age = if l.valid { l.lru } else { 0 };
            if age < oldest {
                oldest = age;
                victim = i;
            }
        }
        ways[victim] = Line {
            valid: true,
            tag,
            lru: self.tick,
        };
        self.misses += 1;
        false
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The two-level hierarchy used by the simulator: split L1s over a unified
/// L2 (paper Table 6).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// Instruction L1.
    pub l1i: Cache,
    /// Data L1.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
}

/// Load-to-use latency of an L1D hit, in cycles.
const L1D_HIT: u64 = 2;

impl CacheHierarchy {
    /// The longest latency [`data_latency`](Self::data_latency) can
    /// return: a miss in both the L1D and the L2.
    pub(crate) fn max_data_latency(&self) -> u64 {
        L1D_HIT + self.l1d.config().miss_penalty + self.l2.config().miss_penalty
    }

    /// Builds the paper's hierarchy.
    pub fn paper() -> Self {
        CacheHierarchy {
            l1i: Cache::new(CacheConfig::paper_l1i()),
            l1d: Cache::new(CacheConfig::paper_l1d()),
            l2: Cache::new(CacheConfig::paper_l2()),
        }
    }

    /// Instruction fetch at `addr`: returns the added stall in cycles
    /// (0 = L1I hit).
    pub fn fetch_latency(&mut self, addr: u64) -> u64 {
        if self.l1i.access(addr) {
            0
        } else if self.l2.access(addr) {
            self.l1i.config().miss_penalty
        } else {
            self.l1i.config().miss_penalty + self.l2.config().miss_penalty
        }
    }

    /// Data access at `addr`: returns total load-to-use latency in cycles
    /// (baseline hit latency of 2).
    pub fn data_latency(&mut self, addr: u64) -> u64 {
        if self.l1d.access(addr) {
            L1D_HIT
        } else if self.l2.access(addr) {
            L1D_HIT + self.l1d.config().miss_penalty
        } else {
            self.max_data_latency()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_paper_l1d() {
        let c = CacheConfig::paper_l1d();
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn hit_after_install() {
        let mut c = Cache::new(CacheConfig::paper_l1d());
        assert!(!c.access(0x4000));
        assert!(c.access(0x4000));
        assert!(c.access(0x403f)); // same 64B line
        assert!(!c.access(0x4040)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_within_set() {
        // Build a tiny 2-way cache: 2 sets x 2 ways x 64B = 256B.
        let cfg = CacheConfig {
            bytes: 256,
            ways: 2,
            line_bytes: 64,
            miss_penalty: 10,
        };
        let mut c = Cache::new(cfg);
        // Three lines mapping to set 0 (stride = sets*line = 128B).
        assert!(!c.access(0x0));
        assert!(!c.access(0x100));
        assert!(c.access(0x0)); // refresh 0x0; 0x100 is now LRU
        assert!(!c.access(0x200)); // evicts 0x100
        assert!(c.access(0x0));
        assert!(!c.access(0x100));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(CacheConfig::paper_l1d());
        // 1MB working set streamed twice: second pass still misses.
        for pass in 0..2 {
            let mut misses = 0;
            for i in 0..(1 << 20) / 64 {
                if !c.access(i * 64) {
                    misses += 1;
                }
            }
            assert!(misses > 15_000, "pass {pass} misses {misses}");
        }
    }

    #[test]
    fn hierarchy_latencies_are_tiered() {
        let mut h = CacheHierarchy::paper();
        let cold = h.data_latency(0x1_0000);
        assert_eq!(cold, 2 + 10 + 100);
        let warm = h.data_latency(0x1_0000);
        assert_eq!(warm, 2);
        // Evict from L1 but not L2: touch > 32KB of conflicting lines.
        for i in 0..1024 {
            h.data_latency(0x10_0000 + i * 64);
        }
        let l2_hit = h.data_latency(0x1_0000);
        assert_eq!(l2_hit, 2 + 10);
    }

    #[test]
    fn fetch_latency_zero_on_hit() {
        let mut h = CacheHierarchy::paper();
        assert_eq!(h.fetch_latency(0x40_0000), 110);
        assert_eq!(h.fetch_latency(0x40_0000), 0);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig {
            bytes: 3 * 1024,
            ways: 3,
            line_bytes: 96,
            miss_penalty: 1,
        });
    }
}
