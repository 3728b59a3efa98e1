//! The sharded step-pattern memo cache.
//!
//! Keys are [`StepKey`]s (canonical fingerprint of pattern × config ×
//! relative readiness); values are *normalized* step completions — the
//! per-processor ends of a step simulated as if the earliest-ready
//! processor entered it at time zero. Because the LogGP simulators are
//! translation-invariant (see [`crate::fingerprint`]), a cached normalized
//! completion shifted by the step's base time is bit-identical to
//! simulating the step directly.
//!
//! Shards are independent `parking_lot`-style `RwLock` maps selected by
//! the key's digest, so concurrent workers rarely contend; hit/miss/
//! insert/eviction counters are lock-free atomics.

use crate::fingerprint::StepKey;
use commsim::{CommPattern, StepEnds};
use loggp::Time;
use parking_lot::RwLock;
use predsim_core::{DirectStepSimulator, SimHooks, SimOptions, StepSimulator};
use predsim_obs::{TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// `out = normalized` with every processor's end shifted by `base`.
fn shifted(normalized: &StepEnds, base: Time, out: &mut StepEnds) {
    out.comm_done.clear();
    out.comm_done
        .extend(normalized.comm_done.iter().map(|&t| t + base));
    out.last_recv_done.clear();
    out.last_recv_done
        .extend(normalized.last_recv_done.iter().map(|&t| t + base));
    out.forced_sends = normalized.forced_sends;
}

/// Monotonic cache counters (snapshot via [`MemoCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Normalized schedules stored.
    pub inserts: u64,
    /// Entries dropped because a shard reached capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// Sharded fingerprint → normalized-completion map.
pub struct MemoCache {
    shards: Vec<RwLock<HashMap<StepKey, StepEnds>>>,
    shard_capacity: usize,
    counters: Counters,
}

impl MemoCache {
    /// A cache with `shards` independent locks and at most
    /// `shard_capacity` entries per shard.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            shard_capacity > 0,
            "need room for at least one entry per shard"
        );
        MemoCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity,
            counters: Counters::default(),
        }
    }

    fn shard(&self, key: &StepKey) -> &RwLock<HashMap<StepKey, StepEnds>> {
        // The digest already mixes every word; fold high bits in so shard
        // choice is not just the digest's low bits.
        let d = key.digest();
        &self.shards[((d ^ (d >> 32)) % self.shards.len() as u64) as usize]
    }

    /// Look up a normalized completion and write it into `out` shifted to
    /// `base`; false (and `out` untouched) on a miss.
    pub fn get(&self, key: &StepKey, base: Time, out: &mut StepEnds) -> bool {
        match self.shard(key).read().get(key) {
            Some(normalized) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                shifted(normalized, base, out);
                true
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Store the *normalized* completion of simulating `key` (computed
    /// with base time zero).
    pub fn insert(&self, key: StepKey, normalized: &StepEnds) {
        let mut shard = self.shard(&key).write();
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            // Epoch eviction: drop the whole shard. Deterministic, O(1)
            // amortized, and a sweep's working set either fits (no
            // eviction ever) or cycles anyway.
            self.counters
                .evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        if shard.insert(key, normalized.clone()).is_none() {
            self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            inserts: self.counters.inserts.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently cached, across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`StepSimulator`] that answers repeated steps from a [`MemoCache`].
///
/// Each step's readiness vector is normalized by its minimum; the key is
/// built over the relative offsets; on a miss the step is simulated *at
/// the relative offsets* (so the stored completion is base-free) and
/// shifted back. Translation invariance of the LogGP algorithms makes the
/// shifted completion bit-identical to simulating at the absolute times
/// directly.
///
/// Steps run with a tracer or a fault plan bypass the cache: their events
/// and fault decisions are tied to the absolute step index, which the
/// relative fingerprints cannot represent. So does every step when there
/// is no cache.
///
/// With a sink attached ([`MemoStepSimulator::traced`]), every lookup
/// also emits a [`TraceEvent::MemoHit`]/[`TraceEvent::MemoMiss`] event —
/// purely observational, the returned completions are unaffected.
pub struct MemoStepSimulator<'a> {
    cache: Option<&'a MemoCache>,
    trace: Option<(&'a dyn TraceSink, u64)>,
    /// Miss-path backend; owning it (rather than constructing one per
    /// miss) keeps one `SimScratch` alive across the whole job, so cache
    /// misses reuse the same arenas the direct simulator would.
    direct: DirectStepSimulator,
    /// Per-step buffers: the readiness relative to its minimum, and the
    /// normalized completion of a miss.
    rel: Vec<Time>,
    normalized: StepEnds,
}

impl<'a> MemoStepSimulator<'a> {
    /// A simulator backed by `cache`; `None` simulates every step directly.
    pub fn new(cache: Option<&'a MemoCache>) -> Self {
        MemoStepSimulator {
            cache,
            trace: None,
            direct: DirectStepSimulator::new(),
            rel: Vec::new(),
            normalized: StepEnds::default(),
        }
    }

    /// Report every hit and miss to `sink` when given, stamped with the
    /// engine job index `job`.
    pub fn traced(mut self, sink: Option<&'a dyn TraceSink>, job: u64) -> Self {
        self.trace = sink.map(|s| (s, job));
        self
    }
}

impl StepSimulator for MemoStepSimulator<'_> {
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    ) {
        let cache = match self.cache {
            Some(cache) if hooks.trace.is_none() && hooks.faults.is_none() => cache,
            _ => {
                return self
                    .direct
                    .simulate_step(step_idx, comm, opts, hooks, ready, out)
            }
        };
        let base = ready.iter().copied().min().unwrap_or(Time::ZERO);
        self.rel.clear();
        self.rel.extend(ready.iter().map(|&t| t - base));
        let key = StepKey::new(comm, opts, &self.rel);
        let hit = cache.get(&key, base, out);
        if let Some((sink, job)) = self.trace {
            let step = step_idx as u64;
            sink.emit(&if hit {
                TraceEvent::MemoHit { job, step }
            } else {
                TraceEvent::MemoMiss { job, step }
            });
        }
        if !hit {
            let normalized = &mut self.normalized;
            self.direct
                .simulate_step(step_idx, comm, opts, hooks, &self.rel, normalized);
            shifted(normalized, base, out);
            cache.insert(key, normalized);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{standard, SimConfig};
    use loggp::presets;
    use predsim_core::SimOptions;

    fn pattern() -> CommPattern {
        let mut c = CommPattern::new(2);
        c.add(0, 1, 256);
        c
    }

    /// The completion of simulating `p` from `ready` directly.
    fn direct(p: &CommPattern, opts: &SimOptions, ready: &[Time]) -> StepEnds {
        let mut out = StepEnds::default();
        DirectStepSimulator::new().simulate_step(0, p, opts, &SimHooks::default(), ready, &mut out);
        out
    }

    #[test]
    fn hit_returns_the_shifted_completion() {
        let cache = MemoCache::new(4, 16);
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let p = pattern();
        let rel = vec![Time::ZERO, Time::from_us(2.0)];
        let key = StepKey::new(&p, &opts, &rel);

        let mut got = StepEnds::default();
        assert!(!cache.get(&key, Time::ZERO, &mut got));
        let mut normalized = StepEnds::default();
        normalized.reset(&rel);
        normalized.absorb(&standard::simulate_from(&p, &opts.cfg, &rel));
        cache.insert(key.clone(), &normalized);

        let base = Time::from_us(100.0);
        assert!(cache.get(&key, base, &mut got));
        for (p, (a, b)) in got.comm_done.iter().zip(&normalized.comm_done).enumerate() {
            assert_eq!(*a, *b + base, "P{p} comm_done");
        }
        for (a, b) in got.last_recv_done.iter().zip(&normalized.last_recv_done) {
            assert_eq!(*a, *b + base);
        }
        let abs: Vec<Time> = rel.iter().map(|&t| t + base).collect();
        assert_eq!(got, direct(&p, &opts, &abs));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn capacity_triggers_epoch_eviction() {
        let cache = MemoCache::new(1, 2);
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let normalized = direct(&pattern(), &opts, &[Time::ZERO; 2]);
        for bytes in 1..=5usize {
            let mut c = CommPattern::new(2);
            c.add(0, 1, bytes);
            let key = StepKey::new(&c, &opts, &[Time::ZERO, Time::ZERO]);
            cache.insert(key, &normalized);
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        assert!(cache.len() <= 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn memo_simulator_matches_direct_on_hit_and_miss() {
        let cache = MemoCache::new(2, 64);
        let mut memo = MemoStepSimulator::new(Some(&cache));
        let p = pattern();
        for opts in [
            SimOptions::new(SimConfig::new(presets::meiko_cs2(2))),
            SimOptions::new(SimConfig::new(presets::meiko_cs2(2))).worst_case(),
        ] {
            // Same relative shape at three different absolute bases: the
            // first call misses, the rest hit — all must equal direct.
            for base_us in [0.0, 55.0, 1234.5] {
                let ready = vec![Time::from_us(base_us), Time::from_us(base_us + 7.0)];
                let want = direct(&p, &opts, &ready);
                let mut got = StepEnds::default();
                memo.simulate_step(0, &p, &opts, &SimHooks::default(), &ready, &mut got);
                assert_eq!(got, want);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "one miss per algorithm");
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn traced_memo_reports_hits_and_misses_without_changing_results() {
        let cache = MemoCache::new(2, 64);
        let sink = predsim_obs::MemorySink::new();
        let p = pattern();
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let ready = vec![Time::ZERO, Time::from_us(1.0)];
        let want = direct(&p, &opts, &ready);

        let mut memo = MemoStepSimulator::new(Some(&cache)).traced(Some(&sink), 9);
        let hooks = SimHooks::default();
        let (mut miss, mut hit) = (StepEnds::default(), StepEnds::default());
        memo.simulate_step(4, &p, &opts, &hooks, &ready, &mut miss);
        memo.simulate_step(4, &p, &opts, &hooks, &ready, &mut hit);
        assert_eq!(miss, want);
        assert_eq!(hit, want);
        assert_eq!(
            sink.events(),
            vec![
                TraceEvent::MemoMiss { job: 9, step: 4 },
                TraceEvent::MemoHit { job: 9, step: 4 },
            ]
        );
    }

    #[test]
    fn traced_and_faulted_steps_bypass_the_cache() {
        let cache = MemoCache::new(2, 64);
        let sink = predsim_obs::MemorySink::new();
        let p = pattern();
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let ready = vec![Time::ZERO; 2];
        let plan = predsim_faults::FaultPlan::new(predsim_faults::FaultSpec::default(), 1);
        let mut memo = MemoStepSimulator::new(Some(&cache));
        for hooks in [
            SimHooks {
                trace: Some(&sink),
                ..SimHooks::default()
            },
            SimHooks {
                faults: Some(&plan),
                ..SimHooks::default()
            },
        ] {
            let mut got = StepEnds::default();
            memo.simulate_step(0, &p, &opts, &hooks, &ready, &mut got);
            assert_eq!(got, direct(&p, &opts, &ready));
        }
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(sink.events().iter().all(|e| e.kind() != "memo_miss"));
    }
}
