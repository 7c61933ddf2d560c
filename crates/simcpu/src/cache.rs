//! A small set-associative data cache used to re-time memory traffic.
//!
//! The cache affects only *when* a datum appears on the memory bus (hit
//! vs miss latency feeding the event queue), never its value — exactly
//! the role SimpleScalar's access-latency accounting plays in the
//! paper's bus timing generators.

/// Cache geometry and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Words per line (power of two).
    pub line_words: usize,
    /// Cycles from issue to data for a hit.
    pub hit_latency: u64,
    /// Cycles from issue to data for a miss.
    pub miss_latency: u64,
}

impl Default for CacheConfig {
    /// A 16 KiB-ish data cache: 128 sets × 2 ways × 16 words.
    fn default() -> Self {
        CacheConfig {
            sets: 128,
            ways: 2,
            line_words: 16,
            hit_latency: 2,
            miss_latency: 24,
        }
    }
}

/// The cache: LRU within each set, allocate on read and write.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * ways + way]`, `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_words` is not a power of two, or any
    /// geometry field is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        assert!(config.ways >= 1, "at least one way required");
        let n = config.sets * config.ways;
        Cache {
            config,
            tags: vec![u64::MAX; n],
            stamps: vec![0; n],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Performs an access to a word address; returns the data latency in
    /// cycles and updates hit/miss statistics.
    pub fn access(&mut self, word_addr: u64) -> u64 {
        if self.probe(word_addr) {
            self.config.hit_latency
        } else {
            self.config.miss_latency
        }
    }

    /// Performs an access, returning whether it hit. State (LRU, fills,
    /// statistics) updates either way; latency policy is the caller's —
    /// this is what lets a [`CacheHierarchy`] stack levels.
    pub fn probe(&mut self, word_addr: u64) -> bool {
        self.clock += 1;
        let line = word_addr / self.config.line_words as u64;
        let set = (line as usize) & (self.config.sets - 1);
        let tag = line / self.config.sets as u64;
        let base = set * self.config.ways;
        let slots = base..base + self.config.ways;

        for i in slots.clone() {
            if self.tags[i] == tag {
                self.stamps[i] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        // Miss: fill the LRU way.
        self.misses += 1;
        let victim = slots.min_by_key(|&i| self.stamps[i]).expect("ways >= 1");
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `0.0..=1.0` (zero before any access).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidates everything and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

/// A two-level cache hierarchy with a flat main-memory latency behind
/// it — the latency source for the memory-bus timing generator when more
/// realistic re-timing spread is wanted than a single level gives.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Option<Cache>,
    /// Latency of a miss all the way to main memory, in cycles.
    memory_latency: u64,
}

impl CacheHierarchy {
    /// Creates a hierarchy. With `l2: None`, behaves exactly like the
    /// single [`Cache`] (misses cost the L1 config's `miss_latency`).
    pub fn new(l1: CacheConfig, l2: Option<CacheConfig>, memory_latency: u64) -> Self {
        CacheHierarchy {
            l1: Cache::new(l1),
            l2: l2.map(Cache::new),
            memory_latency,
        }
    }

    /// Performs an access; returns the data latency in cycles.
    pub fn access(&mut self, word_addr: u64) -> u64 {
        if self.l1.probe(word_addr) {
            return self.l1.config().hit_latency;
        }
        match &mut self.l2 {
            None => self.l1.config().miss_latency,
            Some(l2) => {
                if l2.probe(word_addr) {
                    l2.config().hit_latency
                } else {
                    self.memory_latency
                }
            }
        }
    }

    /// The L1 cache (statistics access).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache, if configured.
    pub fn l2(&self) -> Option<&Cache> {
        self.l2.as_ref()
    }

    /// Invalidates all levels and clears statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        if let Some(l2) = &mut self.l2 {
            l2.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0), 10);
        assert_eq!(c.access(1), 1, "same line");
        assert_eq!(c.access(3), 1);
        assert_eq!(c.access(4), 10, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: lines 0, 4, 8 (4 sets).
        let addr = |line: u64| line * 4;
        c.access(addr(0)); // miss, way A
        c.access(addr(4)); // miss, way B
        c.access(addr(0)); // hit, refreshes A
        c.access(addr(8)); // miss, evicts B (LRU)
        assert_eq!(c.access(addr(0)), 1, "line 0 still resident");
        assert_eq!(c.access(addr(4)), 10, "line 4 was evicted");
    }

    #[test]
    fn sequential_walk_has_high_hit_rate() {
        let mut c = Cache::new(CacheConfig::default());
        for a in 0..10_000u64 {
            c.access(a);
        }
        assert!(c.hit_rate() > 0.9, "rate {}", c.hit_rate());
    }

    #[test]
    fn huge_random_walk_has_low_hit_rate() {
        let mut c = Cache::new(CacheConfig::default());
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.access(x >> 16); // far beyond capacity
        }
        assert!(c.hit_rate() < 0.1, "rate {}", c.hit_rate());
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.access(0), 10, "cold again after reset");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ..CacheConfig::default()
        });
    }

    #[test]
    fn hierarchy_without_l2_matches_single_cache() {
        let cfg = CacheConfig {
            sets: 4,
            ways: 2,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        };
        let mut single = Cache::new(cfg);
        let mut hier = CacheHierarchy::new(cfg, None, 99);
        let mut x = 5u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = x >> 50;
            assert_eq!(single.access(a), hier.access(a));
        }
    }

    #[test]
    fn hierarchy_l2_catches_l1_victims() {
        // Small L1, big L2: a working set that thrashes L1 but fits L2
        // pays L2 latency, not memory latency.
        let l1 = CacheConfig {
            sets: 2,
            ways: 1,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        };
        let l2 = CacheConfig {
            sets: 64,
            ways: 4,
            line_words: 4,
            hit_latency: 6,
            miss_latency: 0,
        };
        let mut h = CacheHierarchy::new(l1, Some(l2), 100);
        // Touch 16 lines round-robin: L1 (2 lines) always misses after
        // warmup, L2 (256 lines) always hits.
        let mut saw_memory = 0;
        let mut saw_l2 = 0;
        for i in 0..400u64 {
            let lat = h.access((i % 16) * 4);
            match lat {
                100 => saw_memory += 1,
                6 => saw_l2 += 1,
                1 => {}
                other => panic!("unexpected latency {other}"),
            }
        }
        assert_eq!(saw_memory, 16, "only compulsory misses reach memory");
        assert!(saw_l2 > 300, "L2 should absorb the thrash: {saw_l2}");
        assert!(h.l2().unwrap().hit_rate() > 0.9);
        assert!(h.l1().hit_rate() < 0.2);
    }

    #[test]
    fn hierarchy_reset_clears_all_levels() {
        let cfg = CacheConfig {
            sets: 4,
            ways: 1,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        };
        let mut h = CacheHierarchy::new(cfg, Some(cfg), 50);
        h.access(0);
        h.reset();
        assert_eq!(h.l1().hits() + h.l1().misses(), 0);
        assert_eq!(h.access(0), 50, "cold after reset");
    }
}
