//! The machine emulator producing "measured" running times: the
//! predictor's own fold, [`predsim_core::simulate_program_with`], over a
//! [`ChargedProgram`] (loop and cache costs, charged once per program) and
//! an emulated-network backend (seeded jitter, contention, the shared bus
//! and local copies). Everything is deterministic for a fixed seed.

use crate::cache::{Cache, Hierarchy};
use commsim::{standard, CommPattern, Message, SimConfig, SimScratch, StepEnds, StepFaults};
use loggp::Time;
use predsim_core::{
    simulate_program_with, Prediction, Program, SimHooks, SimOptions, Step, StepFaultView,
    StepLoad, StepSimulator,
};
use predsim_faults::FaultPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-processor cache configuration of the emulated node.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Penalty charged per missing line.
    pub miss_penalty: Time,
}

impl CacheConfig {
    /// A mid-90s workstation node: 128 KiB, 64-byte lines, 4-way, 500 ns
    /// per line miss (memory latency of the era; the penalty also absorbs
    /// the TLB and write-back traffic a tag-only model does not see).
    pub fn workstation() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            line_bytes: 64,
            ways: 4,
            miss_penalty: Time::from_ns(500),
        }
    }
}

/// Configuration of the emulated machine.
#[derive(Clone, Debug)]
pub struct EmulatorConfig {
    /// The base LogGP "hardware" (also supplies the RNG seed).
    pub cfg: SimConfig,
    /// Uniform per-message jitter on the network part (`(k−1)·G + L`) of
    /// the arrival time, in percent: each message's flight time is scaled
    /// by a factor drawn from `[1 − j/100, 1 + j/100]`. 0 disables.
    pub jitter_pct: u32,
    /// Serialize deliveries per destination: a message cannot finish
    /// arriving while the previous message to the same destination is
    /// still draining its wire time (single input link).
    pub contention: bool,
    /// Model a single shared medium (classic Ethernet): *all* wire times
    /// serialize globally, not just per destination. Implies the
    /// per-destination rule.
    pub shared_bus: bool,
    /// Cost per byte of a self-message (local memory copy), charged to the
    /// processor at the end of its communication section.
    pub self_copy_per_byte: Time,
    /// Loop overhead charged per block visit of the computation phase.
    pub iter_overhead: Time,
    /// Per-processor cache; `None` emulates the paper's "measured without
    /// caching" series (the dummy-instruction prefetch variant).
    pub cache: Option<CacheConfig>,
    /// Optional second cache level. When set (and `cache` is set), lines
    /// missing L1 but present in L2 cost `cache.miss_penalty`, and only
    /// true memory fills cost `l2.miss_penalty`.
    pub l2: Option<CacheConfig>,
}

impl EmulatorConfig {
    /// A CS-2-like testbed around the given LogGP model: 8% network
    /// jitter, link contention, 10 ns/byte local copies, 2 µs loop
    /// overhead per block visit, and the workstation cache.
    pub fn meiko_like(cfg: SimConfig) -> Self {
        EmulatorConfig {
            cfg,
            jitter_pct: 8,
            contention: true,
            shared_bus: false,
            self_copy_per_byte: Time::from_ns(10),
            iter_overhead: Time::from_us(2.0),
            cache: Some(CacheConfig::workstation()),
            l2: None,
        }
    }

    /// Disable the cache model (the paper's "measured w/o caching").
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self.l2 = None;
        self
    }

    /// Add a second cache level (e.g. the CS-2 node's external SRAM):
    /// `size_bytes` at `miss_penalty` per line fill from memory; L1 misses
    /// that hit L2 keep costing the L1 penalty.
    pub fn with_l2(mut self, size_bytes: usize, miss_penalty: Time) -> Self {
        let line = self.cache.map(|c| c.line_bytes).unwrap_or(64);
        self.l2 = Some(CacheConfig {
            size_bytes,
            line_bytes: line,
            ways: 8,
            miss_penalty,
        });
        self
    }
}

/// The emulator's output: "measured" times in the predictor's shape plus
/// the emulator-only statistics.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Totals and breakdowns, same semantics as the predictor's
    /// [`Prediction`].
    pub prediction: Prediction,
    /// Cache hits summed over processors (0 without a cache model).
    pub cache_hits: u64,
    /// Cache misses summed over processors.
    pub cache_misses: u64,
    /// Total time charged to cache misses.
    pub cache_penalty_time: Time,
    /// Total time charged to local (self-message) copies.
    pub self_copy_time: Time,
    /// Total time charged to per-block iteration overhead.
    pub iter_overhead_time: Time,
}

/// A program charged for the emulated node: each step's computation
/// includes the iteration overhead and cache penalty of its loads. The LRU
/// caches see the same touches in every run, so no seed changes a charge:
/// charge once, then [`ChargedProgram::run`] under each seed.
#[derive(Debug)]
pub struct ChargedProgram {
    ecfg: EmulatorConfig,
    program: Program,
    cache_hits: u64,
    cache_misses: u64,
    cache_penalty_time: Time,
    iter_overhead_time: Time,
}

impl ChargedProgram {
    /// Charge `prog` for `ecfg`'s node. `loads` may be empty (no
    /// iteration or cache charges) or must be parallel to `prog.steps()`.
    pub fn new(prog: &Program, loads: &[StepLoad], ecfg: &EmulatorConfig) -> Self {
        assert!(
            loads.is_empty() || loads.len() == prog.len(),
            "loads must be empty or parallel to the program steps"
        );
        let procs = prog.procs();
        let mut caches: Vec<CacheSim> = match &ecfg.cache {
            Some(l1) => (0..procs)
                .map(|_| CacheSim::new(l1, ecfg.l2.as_ref()))
                .collect(),
            None => Vec::new(),
        };
        let mut cache_penalty_time = Time::ZERO;
        let mut iter_overhead_time = Time::ZERO;
        let mut program = Program::new(procs);
        for (step_idx, step) in prog.steps().iter().enumerate() {
            let mut comp = step.comp.clone();
            if let Some(load) = loads.get(step_idx) {
                comp.resize(procs, Time::ZERO);
                for (p, charge) in comp.iter_mut().enumerate() {
                    let iter = ecfg.iter_overhead * load.visits[p] as u64;
                    let penalty = caches.get_mut(p).map_or(Time::ZERO, |cache| {
                        let touches = load.touches[p].iter();
                        touches.map(|&(base, len)| cache.touch(base, len)).sum()
                    });
                    iter_overhead_time += iter;
                    cache_penalty_time += penalty;
                    *charge += iter + penalty;
                }
            }
            program.push(Step {
                label: step.label.clone(),
                comp,
                comm: step.comm.clone(),
            });
        }
        let (cache_hits, cache_misses) = caches.iter().fold((0, 0), |(h, m), c| match c {
            CacheSim::One(c, _) => (h + c.stats().hits, m + c.stats().misses),
            CacheSim::Two(hier, ..) => (h + hier.l1_hits + hier.l2_hits, m + hier.mem_accesses),
        });
        ChargedProgram {
            ecfg: ecfg.clone(),
            program,
            cache_hits,
            cache_misses,
            cache_penalty_time,
            iter_overhead_time,
        }
    }

    /// One run under network seed `seed`: the fold over the emulated
    /// network. `faults` injects a plan into the emulated hardware: drops
    /// cost retransmissions on top of the jittered, contended arrivals,
    /// and slowdowns and outages stretch the charged computation.
    pub fn run(&self, seed: u64, faults: Option<&FaultPlan>) -> Measurement {
        let opts = SimOptions::new(self.ecfg.cfg.with_seed(seed));
        let mut network = EmulatedNetwork {
            ecfg: &self.ecfg,
            self_copy_time: Time::ZERO,
            link_free: Vec::new(),
            scratch: SimScratch::new(),
        };
        let hooks = SimHooks {
            faults,
            ..SimHooks::default()
        };
        let prediction =
            simulate_program_with(&self.program, &opts, &mut network, hooks).prediction;
        Measurement {
            prediction,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_penalty_time: self.cache_penalty_time,
            self_copy_time: network.self_copy_time,
            iter_overhead_time: self.iter_overhead_time,
        }
    }
}

/// Run `prog` on the emulated machine. `loads` may be empty (no iteration
/// or cache charges) or must be parallel to `prog.steps()`.
pub fn emulate(prog: &Program, loads: &[StepLoad], ecfg: &EmulatorConfig) -> Measurement {
    ChargedProgram::new(prog, loads, ecfg).run(ecfg.cfg.seed, None)
}

/// One processor's caches, with the penalty of a miss at each level.
enum CacheSim {
    One(Cache, Time),
    Two(Box<Hierarchy>, Time, Time),
}

impl CacheSim {
    fn new(l1: &CacheConfig, l2: Option<&CacheConfig>) -> Self {
        let cache = |c: &CacheConfig| Cache::new(c.size_bytes, c.line_bytes, c.ways);
        match l2 {
            None => CacheSim::One(cache(l1), l1.miss_penalty),
            Some(l2) => CacheSim::Two(
                Box::new(Hierarchy::new(cache(l1), cache(l2))),
                l1.miss_penalty,
                l2.miss_penalty,
            ),
        }
    }

    /// Touch `len` bytes at `base`; the penalty of the lines that missed.
    fn touch(&mut self, base: u64, len: u32) -> Time {
        match self {
            CacheSim::One(c, miss) => *miss * c.touch_range(base, len as usize),
            CacheSim::Two(h, l1_miss, l2_miss) => {
                let (from_l2, from_mem) = h.touch_range(base, len as usize);
                *l1_miss * from_l2 + *l2_miss * from_mem
            }
        }
    }
}

/// The emulated network as a fold backend: the standard algorithm (real
/// executions behave like its eager, receive-priority schedule, not like
/// the overestimation) under a jittered, contended arrival rule, and local
/// copies of self-messages after each step.
struct EmulatedNetwork<'a> {
    ecfg: &'a EmulatorConfig,
    /// Total time charged to local copies so far.
    self_copy_time: Time,
    /// Per destination: when its input link finishes draining.
    link_free: Vec<Time>,
    scratch: SimScratch,
}

impl StepSimulator for EmulatedNetwork<'_> {
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    ) {
        let step = step_idx as u64;
        let params = opts.cfg.params;
        let jitter = self.ecfg.jitter_pct as i64;
        let (contention, shared_bus) = (self.ecfg.contention, self.ecfg.shared_bus);
        let link_free = &mut self.link_free;
        link_free.clear();
        link_free.resize(comm.procs(), Time::ZERO);
        let mut bus_free = Time::ZERO;
        let mut rng = SmallRng::seed_from_u64(opts.cfg.seed ^ (0x9E37_79B9 ^ step).rotate_left(17));
        let view = hooks.faults.map(|plan| StepFaultView::new(plan, step));

        let mut arrival = |m: &Message, send_start: Time| {
            // Network part of the flight, jittered.
            let flight = params.wire_time(m.bytes) + params.latency;
            let factor_permille = if jitter == 0 {
                1000
            } else {
                // Clamp at zero: jitter_pct >= 100 can draw a factor below
                // -1000 permille, and a negative value cast to u64 would wrap
                // to ~2^64 and blow up the flight time.
                (1000 + rng.gen_range(-10 * jitter..=10 * jitter)).max(0) as u64
            };
            let flight = Time::from_ps(flight.as_ps() * factor_permille / 1000);
            let mut arrival = send_start + params.overhead + flight;
            if shared_bus {
                // One medium for everyone: each message's wire time occupies
                // the whole network.
                arrival = arrival.max(bus_free);
                bus_free = arrival + params.wire_time(m.bytes);
            }
            if contention {
                // The destination's input link drains one message at a time.
                // Applied after (not instead of) bus serialization when both
                // are enabled; a bus transfer also occupies the input link, so
                // link_free[dst] never exceeds bus_free and the combination
                // degenerates to the bus bound, but the drain is tracked so
                // the semantics are explicit rather than silently dropped.
                let free = &mut link_free[m.dst];
                arrival = arrival.max(*free);
                *free = arrival + params.wire_time(m.bytes);
            }
            arrival
        };
        out.reset(ready);
        standard::simulate_with(
            comm,
            &opts.cfg,
            ready,
            &mut arrival,
            out,
            view.as_ref().map(|v| v as &dyn StepFaults),
            &mut self.scratch,
        );
    }

    /// A self-message is a local memory copy, charged to its sender after
    /// the step's network traffic: it delays the sender's next step and
    /// lengthens its communication section, but not the step's `comm_end`.
    fn after_step(&mut self, comm: &CommPattern, ready: &mut [Time], comm_time: &mut [Time]) {
        for m in comm.messages().iter().filter(|m| m.is_self_message()) {
            let cost = self.ecfg.self_copy_per_byte * m.bytes as u64;
            self.self_copy_time += cost;
            comm_time[m.src] += cost;
            ready[m.src] += cost;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::patterns;
    use loggp::presets;
    use predsim_core::{simulate_program, SimOptions, Step};

    fn base_cfg(procs: usize) -> SimConfig {
        SimConfig::new(presets::meiko_cs2(procs))
    }

    /// An emulator with every extra effect switched off must agree exactly
    /// with the pure LogGP predictor.
    #[test]
    fn degenerates_to_predictor() {
        let mut prog = Program::new(4);
        let mut comm = CommPattern::new(4);
        comm.add(0, 1, 500);
        comm.add(2, 3, 700);
        comm.add(1, 3, 100);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(30.0); 4])
                .with_comm(comm),
        );
        let ecfg = EmulatorConfig {
            cfg: base_cfg(4),
            jitter_pct: 0,
            contention: false,
            shared_bus: false,
            self_copy_per_byte: Time::ZERO,
            iter_overhead: Time::ZERO,
            cache: None,
            l2: None,
        };
        let m = emulate(&prog, &[], &ecfg);
        let p = simulate_program(&prog, &SimOptions::new(base_cfg(4)));
        assert_eq!(m.prediction.total, p.total);
        assert_eq!(m.prediction.per_proc_finish, p.per_proc_finish);
        assert_eq!(m.prediction.comm_time, p.comm_time);
    }

    #[test]
    fn emulation_is_deterministic() {
        let mut prog = Program::new(6);
        prog.push(Step::new("c").with_comm(patterns::all_to_all(6, 256)));
        let ecfg = EmulatorConfig::meiko_like(base_cfg(6));
        let a = emulate(&prog, &[], &ecfg);
        let b = emulate(&prog, &[], &ecfg);
        assert_eq!(a.prediction.total, b.prediction.total);
        assert_eq!(a.prediction.per_proc_finish, b.prediction.per_proc_finish);
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let mut prog = Program::new(4);
        prog.push(Step::new("c").with_comm(patterns::all_to_all(4, 4096)));
        let e1 = EmulatorConfig::meiko_like(base_cfg(4));
        let mut e2 = EmulatorConfig::meiko_like(base_cfg(4).with_seed(99));
        e2.cfg.tie_break = commsim::TieBreak::LowestId;
        let a = emulate(&prog, &[], &e1);
        let b = emulate(&prog, &[], &e2);
        assert_ne!(a.prediction.total, b.prediction.total);
    }

    #[test]
    fn contention_slows_fan_in() {
        // Many senders to one destination: serialized wire times make the
        // contended arrival strictly later for large messages.
        let mut prog = Program::new(8);
        prog.push(Step::new("fanin").with_comm(patterns::gather(8, 0, 8192)));
        let free = EmulatorConfig {
            cfg: base_cfg(8),
            jitter_pct: 0,
            contention: false,
            shared_bus: false,
            self_copy_per_byte: Time::ZERO,
            iter_overhead: Time::ZERO,
            cache: None,
            l2: None,
        };
        let mut contended = free.clone();
        contended.contention = true;
        let a = emulate(&prog, &[], &free);
        let b = emulate(&prog, &[], &contended);
        assert!(b.prediction.total >= a.prediction.total);
    }

    #[test]
    fn self_messages_charged_to_comm_section() {
        let mut prog = Program::new(2);
        let mut comm = CommPattern::new(2);
        comm.add(0, 0, 1_000_000); // 1 MB local copy
        prog.push(Step::new("local").with_comm(comm));
        let mut ecfg = EmulatorConfig::meiko_like(base_cfg(2));
        ecfg.jitter_pct = 0;
        let m = emulate(&prog, &[], &ecfg);
        let want = ecfg.self_copy_per_byte * 1_000_000;
        assert_eq!(m.self_copy_time, want);
        assert_eq!(m.prediction.per_proc_comm[0], want);
        assert_eq!(m.prediction.total, want);
    }

    #[test]
    fn iteration_overhead_scales_with_visits() {
        let mut prog = Program::new(2);
        prog.push(Step::new("w").with_comp(vec![Time::from_us(10.0); 2]));
        let mut load = StepLoad::new(2);
        load.add_visits(0, 7);
        let mut ecfg = EmulatorConfig::meiko_like(base_cfg(2));
        ecfg.cache = None;
        let m = emulate(&prog, &[load], &ecfg);
        assert_eq!(m.iter_overhead_time, ecfg.iter_overhead * 7);
        assert_eq!(
            m.prediction.per_proc_comp[0],
            Time::from_us(10.0) + ecfg.iter_overhead * 7
        );
        assert_eq!(m.prediction.per_proc_comp[1], Time::from_us(10.0));
    }

    #[test]
    fn cache_misses_penalize_computation() {
        // One processor re-touching a working set larger than the cache
        // pays a penalty every step; a fitting working set pays only
        // compulsory misses in the first step.
        let cc = CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 2,
            miss_penalty: Time::from_ns(100),
        };
        let block_bytes = 1024;
        let mk_prog = |blocks: u64| {
            let mut prog = Program::new(1);
            let mut loads = Vec::new();
            for s in 0..4 {
                prog.push(Step::new(format!("s{s}")).with_comp(vec![Time::from_us(1.0)]));
                let mut l = StepLoad::new(1);
                for b in 0..blocks {
                    l.touch(0, b * block_bytes as u64, block_bytes as u32);
                }
                loads.push(l);
            }
            (prog, loads)
        };
        let ecfg = EmulatorConfig {
            cfg: base_cfg(1),
            jitter_pct: 0,
            contention: false,
            shared_bus: false,
            self_copy_per_byte: Time::ZERO,
            iter_overhead: Time::ZERO,
            cache: Some(cc),
            l2: None,
        };
        let (small_prog, small_loads) = mk_prog(2); // 2 KB fits in 4 KB
        let small = emulate(&small_prog, &small_loads, &ecfg);
        let (big_prog, big_loads) = mk_prog(16); // 16 KB thrashes 4 KB
        let big = emulate(&big_prog, &big_loads, &ecfg);
        // Fitting: compulsory misses only (2 blocks * 16 lines).
        assert_eq!(small.cache_misses, 2 * (block_bytes as u64 / 64));
        // Thrashing: misses every step.
        assert_eq!(big.cache_misses, 4 * 16 * (block_bytes as u64 / 64));
        assert!(big.cache_penalty_time > small.cache_penalty_time);
    }

    #[test]
    fn jittered_emulation_stays_loggp_plausible() {
        // Even with jitter and contention, the completion can never beat
        // the jitter-free single-message lower bound minus the jitter
        // allowance.
        let mut prog = Program::new(2);
        let mut comm = CommPattern::new(2);
        comm.add(0, 1, 10_000);
        prog.push(Step::new("one").with_comm(comm));
        let ecfg = EmulatorConfig::meiko_like(base_cfg(2));
        let m = emulate(&prog, &[], &ecfg);
        let nominal = base_cfg(2).params.message_cost(10_000);
        let slack = nominal.as_ps() / 10; // 8% jitter < 10%
        assert!(m.prediction.total.as_ps() >= nominal.as_ps() - slack);
        assert!(m.prediction.total.as_ps() <= nominal.as_ps() + slack);
    }

    #[test]
    fn l2_reduces_repeat_sweep_penalty() {
        // Working set: 8 KB — thrashes a 4 KB L1 but fits a 64 KB L2.
        let mk = |l2: bool| {
            let mut prog = Program::new(1);
            let mut loads = Vec::new();
            for s in 0..3 {
                prog.push(Step::new(format!("s{s}")).with_comp(vec![Time::from_us(1.0)]));
                let mut l = StepLoad::new(1);
                l.touch(0, 0, 8192);
                loads.push(l);
            }
            let cc = CacheConfig {
                size_bytes: 4096,
                line_bytes: 64,
                ways: 2,
                miss_penalty: Time::from_ns(100),
            };
            let mut ecfg = EmulatorConfig {
                cfg: base_cfg(1),
                jitter_pct: 0,
                contention: false,
                shared_bus: false,
                self_copy_per_byte: Time::ZERO,
                iter_overhead: Time::ZERO,
                cache: Some(cc),
                l2: None,
            };
            if l2 {
                ecfg = ecfg.with_l2(64 * 1024, Time::from_us(1.0));
            }
            emulate(&prog, &loads, &ecfg)
        };
        let single = mk(false);
        let with_l2 = mk(true);
        // Single level: every sweep misses (128 lines x 3 sweeps x 100ns).
        assert_eq!(single.cache_penalty_time, Time::from_ns(100) * (3 * 128));
        // Hierarchy: first sweep pays the memory penalty, later sweeps are
        // serviced by L2 at the (cheaper here? no: L1 penalty 100ns) rate:
        // 128 lines from memory at 1us + 256 from L2 at 100ns.
        assert_eq!(
            with_l2.cache_penalty_time,
            Time::from_us(1.0) * 128 + Time::from_ns(100) * 256
        );
        assert_eq!(
            with_l2.cache_misses, 128,
            "only memory fills count as misses"
        );
    }

    #[test]
    fn shared_bus_serializes_everything() {
        // Disjoint pairs exchanging large messages: per-destination
        // contention sees no conflict, a shared bus serializes all wires.
        let mut prog = Program::new(8);
        let mut comm = CommPattern::new(8);
        for p in 0..4 {
            comm.add(p, p + 4, 64 * 1024);
        }
        prog.push(Step::new("pairs").with_comm(comm));
        let mut free = EmulatorConfig::meiko_like(base_cfg(8)).without_cache();
        free.jitter_pct = 0;
        let mut bus = free.clone();
        bus.shared_bus = true;
        let a = emulate(&prog, &[], &free);
        let b = emulate(&prog, &[], &bus);
        assert!(
            b.prediction.total > a.prediction.total,
            "bus {} should exceed switched {}",
            b.prediction.total,
            a.prediction.total
        );
        // Roughly 4 wire times on the bus vs 1 in the switched case.
        let wire = base_cfg(8).params.wire_time(64 * 1024);
        assert!(b.prediction.total >= a.prediction.total + wire * 2);
    }

    #[test]
    fn extreme_jitter_never_wraps_flight_times() {
        // jitter_pct = 100 can draw a factor of exactly 0 permille (free
        // flight); anything above 100 can draw a *negative* factor, which
        // used to wrap through the u64 cast and produce ~2^64 ps arrivals.
        // all_to_all(8) has 56 network messages, so at 150% jitter a
        // below-zero draw is overwhelmingly likely across seeds.
        for (jitter_pct, seeds) in [(100u32, 0..20u64), (150, 0..20)] {
            for seed in seeds {
                let mut prog = Program::new(8);
                prog.push(Step::new("a2a").with_comm(patterns::all_to_all(8, 4096)));
                let mut ecfg =
                    EmulatorConfig::meiko_like(base_cfg(8).with_seed(seed)).without_cache();
                ecfg.jitter_pct = jitter_pct;
                ecfg.contention = false;
                let m = emulate(&prog, &[], &ecfg);
                // Flight scale factor is at most (1000 + 10*jitter)/1000 =
                // 2.5x here; the whole step is bounded by a serialized
                // schedule of 56 maximally jittered messages.
                let worst_one = base_cfg(8).params.message_cost(4096) * 3;
                let bound = worst_one * 56;
                assert!(
                    m.prediction.total < bound,
                    "jitter {jitter_pct}% seed {seed}: total {} exceeds {bound} — wrapped flight",
                    m.prediction.total
                );
            }
        }
    }

    #[test]
    fn shared_bus_with_contention_equals_bus_alone() {
        // The input-link drain is subsumed by bus serialization (a bus
        // transfer occupies the destination link too), so enabling both
        // must behave exactly like the bus alone — and never be faster
        // than contention alone. Pre-fix, `contention` was silently
        // ignored whenever `shared_bus` was set.
        let mut prog = Program::new(8);
        let mut comm = CommPattern::new(8);
        for p in 0..4 {
            comm.add(p, p + 4, 64 * 1024);
        }
        comm.add(0, 7, 32 * 1024); // also exercise a shared destination
        comm.add(1, 7, 32 * 1024);
        prog.push(Step::new("mix").with_comm(comm));
        let mut base = EmulatorConfig::meiko_like(base_cfg(8)).without_cache();
        base.jitter_pct = 0;
        base.contention = false;

        let mut bus_only = base.clone();
        bus_only.shared_bus = true;
        let mut both = bus_only.clone();
        both.contention = true;
        let mut contention_only = base.clone();
        contention_only.contention = true;

        let bus = emulate(&prog, &[], &bus_only);
        let combined = emulate(&prog, &[], &both);
        let linked = emulate(&prog, &[], &contention_only);
        assert_eq!(
            combined.prediction.per_proc_finish, bus.prediction.per_proc_finish,
            "bus+contention must match the bus-alone schedule"
        );
        assert!(
            combined.prediction.total >= linked.prediction.total,
            "bus+contention {} cannot beat per-link contention {}",
            combined.prediction.total,
            linked.prediction.total
        );
    }

    #[test]
    fn zero_fault_plan_reproduces_emulate_exactly() {
        let mut prog = Program::new(4);
        prog.push(Step::new("a2a").with_comm(patterns::all_to_all(4, 1024)));
        let ecfg = EmulatorConfig::meiko_like(base_cfg(4));
        let plan =
            predsim_faults::FaultPlan::new(predsim_faults::FaultSpec::parse("none").unwrap(), 7);
        let clean = emulate(&prog, &[], &ecfg);
        let faulted = ChargedProgram::new(&prog, &[], &ecfg).run(ecfg.cfg.seed, Some(&plan));
        assert_eq!(faulted.prediction, clean.prediction);
    }

    #[test]
    fn drops_and_slowdowns_degrade_the_emulated_machine() {
        let mut prog = Program::new(4);
        for s in 0..4 {
            let mut c = CommPattern::new(4);
            for p in 0..4 {
                c.add(p, (p + 1) % 4, 2048);
            }
            prog.push(
                Step::new(format!("ring-{s}"))
                    .with_comp(vec![Time::from_us(20.0); 4])
                    .with_comm(c),
            );
        }
        let ecfg = EmulatorConfig::meiko_like(base_cfg(4));
        let clean = emulate(&prog, &[], &ecfg);
        let plan = predsim_faults::FaultPlan::new(
            predsim_faults::FaultSpec::parse("drop:0.5:100:6,slow:0.5:3").unwrap(),
            11,
        );
        let charged = ChargedProgram::new(&prog, &[], &ecfg);
        let faulted = charged.run(ecfg.cfg.seed, Some(&plan));
        assert!(
            faulted.prediction.total > clean.prediction.total,
            "faults must cost time: {} vs {}",
            faulted.prediction.total,
            clean.prediction.total
        );
        // Determinism holds under faults too.
        let again = charged.run(ecfg.cfg.seed, Some(&plan));
        assert_eq!(again.prediction, faulted.prediction);
    }

    #[test]
    #[should_panic(expected = "parallel to the program steps")]
    fn loads_arity_checked() {
        let prog = {
            let mut p = Program::new(1);
            p.push(Step::new("s").with_comp(vec![Time::ZERO]));
            p
        };
        let ecfg = EmulatorConfig::meiko_like(base_cfg(1));
        let _ = emulate(&prog, &[StepLoad::new(1), StepLoad::new(1)], &ecfg);
    }
}
