//! Differential equivalence suite: the optimized hot loops must be
//! **bit-identical** to the straightforward reference encodings in
//! `commsim::reference`, across every dimension that can change a
//! timeline — pattern shape, LogGP parameters, gap rule, tie-break policy
//! and seed, fault plans, and custom arrival hooks (including misbehaving
//! ones, which both sides clamp identically) — and, under faults and
//! hooks, emit the same trace events. A second group pins the sinks and
//! the incremental re-timing invariant: a `StepEnds` sink holds the
//! maxima of the timeline the same run records, and a worst-case
//! `Recording::retime` under any parameters (same seed) accepts, and its
//! per-processor maxima equal those of a full re-simulation. A third
//! group repeats the worst-case properties on cyclic patterns at P in
//! 256..=1024.

use commsim::faults::StepFaults;
use commsim::{
    patterns, reference, replay, standard, worstcase, CommPattern, Message, SimConfig, SimResult,
    SimScratch, StepEnds, StepTracer, TieBreak,
};
use loggp::{LogGpParams, OpKind, Time};
use predsim_obs::{MemorySink, TraceEvent};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = LogGpParams> {
    (
        0u64..50_000, // L ns
        1u64..20_000, // o ns
        0u64..50_000, // gap surplus over o, ns
        0u64..100,    // G ns/byte
    )
        .prop_map(|(l, o, extra, g)| LogGpParams {
            latency: Time::from_ns(l),
            overhead: Time::from_ns(o),
            gap: Time::from_ns(o + extra),
            gap_per_byte: Time::from_ns(g),
            procs: 0, // fixed up by caller
        })
}

fn arb_pattern() -> impl Strategy<Value = CommPattern> {
    (2usize..12, 0usize..40, proptest::bool::ANY, any::<u64>()).prop_map(|(n, msgs, dag, seed)| {
        if dag {
            patterns::random_dag(n, msgs, 4096, seed)
        } else {
            patterns::random(n, msgs, 4096, seed)
        }
    })
}

fn arb_ready() -> impl Strategy<Value = Vec<Time>> {
    proptest::collection::vec(0u64..100_000u64, 12..13)
        .prop_map(|v| v.into_iter().map(Time::from_ns).collect())
}

/// The shape of a cyclic pattern, applicable at any processor count by
/// [`cyclic_pattern`]: (base, shift distance or hypercube dimension,
/// message bytes, extra messages in percent of P, seed).
type CyclicShape = (u8, usize, usize, usize, u64);

fn arb_cyclic_shape() -> impl Strategy<Value = CyclicShape> {
    (0u8..4, 1usize..8, 1usize..=4096, 0usize..=100, any::<u64>())
}

/// A pattern over `n` processors with at least `n` messages: a ring, a
/// shift or a hypercube exchange (each processor on a cycle) with random
/// messages on top, or a random pattern alone. Nearly every worst-case
/// round breaks a deadlock, so the victim draws, the drain order and the
/// ready worklist all run at full scale.
fn cyclic_pattern(n: usize, (base, k, bytes, extra_pct, seed): CyclicShape) -> CommPattern {
    let extra = n * extra_pct / 100;
    let mut pattern = match base {
        0 => patterns::ring(n, bytes),
        1 => patterns::shift(n, k % (n - 1) + 1, bytes),
        2 => {
            // The largest power-of-two block of processors exchanges; the
            // random messages below reach the rest.
            let cube = 1usize << n.ilog2();
            let mut p = CommPattern::new(n);
            for m in patterns::hypercube_exchange(cube, k % cube.ilog2() as usize, bytes).messages()
            {
                p.add(m.src, m.dst, m.bytes);
            }
            p
        }
        _ => return patterns::random(n, n + extra, 4096, seed),
    };
    let topping = n.saturating_sub(pattern.len()) + extra;
    for m in patterns::random(n, topping, 4096, seed).messages() {
        pattern.add(m.src, m.dst, m.bytes);
    }
    pattern
}

fn arb_cyclic_pattern() -> impl Strategy<Value = CommPattern> {
    (256usize..=1024, arb_cyclic_shape()).prop_map(|(n, shape)| cyclic_pattern(n, shape))
}

/// `n` ready times from `seed`: all zero (many arrival ties) for an even
/// seed, spread over 0..131 µs for an odd one.
fn seeded_ready(n: usize, seed: u64) -> Vec<Time> {
    (0..n as u64)
        .map(|p| match seed % 2 {
            0 => Time::ZERO,
            _ => Time::from_ns(p.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) >> 47),
        })
        .collect()
}

fn make_cfg(
    params: LogGpParams,
    procs: usize,
    random_ties: bool,
    classic: bool,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::new(params.with_procs(procs)).with_seed(seed);
    if random_ties {
        cfg.tie_break = TieBreak::Random;
    }
    if classic {
        cfg = cfg.with_classic_gap_rule();
    }
    cfg
}

/// Seed-driven fault plan: a pure function of the message id, as the
/// [`StepFaults`] contract requires.
struct HashDrops {
    seed: u64,
}

impl StepFaults for HashDrops {
    fn attempts(&self, msg: &Message) -> u32 {
        let h = (msg.id as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed);
        1 + ((h >> 33) % 3) as u32
    }
    fn rto(&self, attempt: u32) -> Time {
        Time::from_us(50.0) * (attempt as u64 + 1)
    }
}

fn assert_same(label: &str, new: &SimResult, old: &SimResult) {
    assert_eq!(
        new.timeline.events(),
        old.timeline.events(),
        "{label}: commit order diverged"
    );
    assert_eq!(new.finish, old.finish, "{label}: finish diverged");
    assert_eq!(
        new.forced_sends, old.forced_sends,
        "{label}: forced_sends diverged"
    );
}

/// The per-processor maxima of `full`, a run started at `ready`, read off
/// its timeline: per processor the last end of its events and of its
/// receives, each at least `ready[p]`, and the forced sends.
fn timeline_ends(full: &SimResult, ready: &[Time]) -> StepEnds {
    let mut want = StepEnds::default();
    want.reset(ready);
    for ev in full.timeline.events() {
        want.comm_done[ev.proc] = want.comm_done[ev.proc].max(ev.end);
        if ev.kind == OpKind::Recv {
            want.last_recv_done[ev.proc] = want.last_recv_done[ev.proc].max(ev.end);
        }
    }
    want.forced_sends = full.forced_sends;
    want
}

/// `ends` must equal the per-processor maxima of `full`, a full
/// simulation started at `ready`.
fn assert_ends(label: &str, ends: &StepEnds, full: &SimResult, ready: &[Time]) {
    assert_eq!(
        ends,
        &timeline_ends(full, ready),
        "{label}: maxima diverged"
    );
}

/// Run `sim` into a `(SimResult, StepTracer)` pair over a fresh
/// `MemorySink`: the recorded result and the trace events, in order.
fn traced(
    procs: usize,
    sim: impl FnOnce(&mut (&mut SimResult, &mut StepTracer<'_>)),
) -> (SimResult, Vec<TraceEvent>) {
    let sink = MemorySink::new();
    let mut result = SimResult::empty(procs);
    sim(&mut (&mut result, &mut StepTracer::new(&sink, 0)));
    (result, sink.events())
}

/// The optimized worst-case loop ≡ the reference loop.
fn check_worstcase_matches_reference(pattern: &CommPattern, cfg: &SimConfig, ready: &[Time]) {
    let new = worstcase::simulate_from(pattern, cfg, ready);
    let old = reference::worstcase_simulate_from(pattern, cfg, ready);
    assert_same("worstcase", &new, &old);
}

/// A worst-case recording reproduces the plain run, and re-timing it under
/// `alt_cfg` (same seed) always accepts and equals a full re-simulation.
fn check_worstcase_retime(
    pattern: &CommPattern,
    base_cfg: &SimConfig,
    alt_cfg: &SimConfig,
    ready: &[Time],
    scratch: &mut SimScratch,
) {
    let mut ends = StepEnds::default();
    let mut recorded = SimResult::empty(pattern.procs());
    let rec = replay::record_worstcase(pattern, base_cfg, ready, scratch, &mut recorded);
    let direct = worstcase::simulate_from(pattern, base_cfg, ready);
    assert_same("wc recording run", &recorded, &direct);
    assert!(
        rec.retime(pattern, alt_cfg, ready, scratch, &mut ends),
        "worst-case retime is unconditional for matching seeds"
    );
    let full = worstcase::simulate_from(pattern, alt_cfg, ready);
    assert_ends("wc retime@alt", &ends, &full, ready);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimized standard loop ≡ reference, across patterns × params ×
    /// gap rules × tie seeds × ready times, with the default arrival model
    /// and no faults.
    #[test]
    fn standard_matches_reference(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let new = standard::simulate_from(&pattern, &cfg, ready);
        let old = reference::standard_simulate_from(&pattern, &cfg, ready);
        assert_same("standard", &new, &old);
    }

    /// Optimized worst-case loop ≡ reference under the same dimensions
    /// (cyclic patterns exercise the forced-send RNG path).
    #[test]
    fn worstcase_matches_reference(
        params in arb_params(),
        pattern in arb_pattern(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, false, classic, seed);
        check_worstcase_matches_reference(&pattern, &cfg, &ready[..procs]);
    }

    /// Equivalence holds under fault injection and a custom (contract-
    /// obeying) arrival hook simultaneously.
    #[test]
    fn faulted_hooked_runs_match_reference(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
        fault_seed in any::<u64>(),
        jitter_ns in 0u64..10_000,
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let faults = HashDrops { seed: fault_seed };
        let params = cfg.params;
        let hook = move |m: &Message, start: Time| {
            params.arrival_time(start, m.bytes) + Time::from_ns(jitter_ns * (m.id as u64 % 5))
        };

        let mut h1 = hook;
        let (new_std, new_trace) = traced(procs, |sink| standard::simulate_with(
            &pattern, &cfg, ready, &mut h1, sink, Some(&faults), &mut SimScratch::new()));
        let mut h2 = hook;
        let (old_std, old_trace) = traced(procs, |sink| reference::standard_simulate_faulted(
            &pattern, &cfg, ready, &mut h2, sink, Some(&faults)));
        assert_same("standard+faults+hook", &new_std, &old_std);
        assert_eq!(new_trace, old_trace, "standard+faults+hook: trace events diverged");

        let mut h3 = hook;
        let (new_wc, new_trace) = traced(procs, |sink| worstcase::simulate_with(
            &pattern, &cfg, ready, &mut h3, sink, Some(&faults), &mut SimScratch::new()));
        let mut h4 = hook;
        let (old_wc, old_trace) = traced(procs, |sink| reference::worstcase_simulate_faulted(
            &pattern, &cfg, ready, &mut h4, sink, Some(&faults)));
        assert_same("worstcase+faults+hook", &new_wc, &old_wc);
        assert_eq!(new_trace, old_trace, "worstcase+faults+hook: trace events diverged");
    }

    /// A *misbehaving* arrival hook (violating `arrival ≥ start + o`) is
    /// clamped identically by both encodings — release-mode soundness, not
    /// just debug asserts.
    #[test]
    fn misbehaving_hooks_clamp_identically(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
        shrink_den in 2u64..10,
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let params = cfg.params;
        // Divides the true arrival: often lands before start + o.
        let hook = move |m: &Message, start: Time| {
            Time::from_ps(params.arrival_time(start, m.bytes).as_ps() / shrink_den)
        };
        let mut h1 = hook;
        let (new, new_trace) = traced(procs, |sink| standard::simulate_with(
            &pattern, &cfg, ready, &mut h1, sink, None, &mut SimScratch::new()));
        let mut h2 = hook;
        let (old, old_trace) = traced(procs, |sink| reference::standard_simulate_faulted(
            &pattern, &cfg, ready, &mut h2, sink, None));
        assert_same("standard+clamped-hook", &new, &old);
        assert_eq!(new_trace, old_trace, "standard+clamped-hook: trace events diverged");
        let mut h3 = hook;
        let (new_wc, new_trace) = traced(procs, |sink| worstcase::simulate_with(
            &pattern, &cfg, ready, &mut h3, sink, None, &mut SimScratch::new()));
        let mut h4 = hook;
        let (old_wc, old_trace) = traced(procs, |sink| reference::worstcase_simulate_faulted(
            &pattern, &cfg, ready, &mut h4, sink, None));
        assert_same("worstcase+clamped-hook", &new_wc, &old_wc);
        assert_eq!(new_trace, old_trace, "worstcase+clamped-hook: trace events diverged");
    }

    /// A reused scratch never changes results: interleaving differently
    /// shaped simulations through one scratch is bit-identical to fresh
    /// runs.
    #[test]
    fn scratch_reuse_matches_fresh(
        params in arb_params(),
        a in arb_pattern(),
        b in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let mut scratch = SimScratch::new();
        for pattern in [&a, &b, &a] {
            let procs = pattern.procs();
            let cfg = make_cfg(params, procs, random_ties, classic, seed);
            let ready = &ready[..procs];
            let mut arrival = |m: &Message, start: Time| cfg.params.arrival_time(start, m.bytes);
            let mut reused = SimResult::empty(procs);
            standard::simulate_with(
                pattern, &cfg, ready, &mut arrival, &mut reused, None, &mut scratch);
            let fresh = standard::simulate_from(pattern, &cfg, ready);
            assert_same("std scratch reuse", &reused, &fresh);
            let mut reused = SimResult::empty(procs);
            worstcase::simulate_with(
                pattern, &cfg, ready, &mut arrival, &mut reused, None, &mut scratch);
            let fresh = worstcase::simulate_from(pattern, &cfg, ready);
            assert_same("wc scratch reuse", &reused, &fresh);
        }
    }

    /// The worst-case re-timing is unconditional: any parameter change
    /// (same seed) re-times exactly.
    #[test]
    fn worstcase_retime_equals_full_resim(
        pattern in arb_pattern(),
        base in arb_params(),
        alt in arb_params(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let base_cfg = make_cfg(base, procs, false, classic, seed);
        let alt_cfg = make_cfg(alt, procs, false, classic, seed);
        let ready = &ready[..procs];
        check_worstcase_retime(&pattern, &base_cfg, &alt_cfg, ready, &mut SimScratch::new());
    }

    /// A `StepEnds` sink holds exactly the per-processor maxima of the
    /// timeline the same run records: both algorithms, both tie-breaks,
    /// random ready fronts, with and without faults, under an arrival
    /// hook.
    #[test]
    fn step_ends_sink_equals_timeline_maxima(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
        faulted in proptest::bool::ANY,
        fault_seed in any::<u64>(),
        jitter_ns in 0u64..10_000,
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let drops = HashDrops { seed: fault_seed };
        let faults = faulted.then_some(&drops as &dyn StepFaults);
        let params = cfg.params;
        let mut hook = move |m: &Message, start: Time| {
            params.arrival_time(start, m.bytes) + Time::from_ns(jitter_ns * (m.id as u64 % 5))
        };
        for (label, worst) in [("standard", false), ("worstcase", true)] {
            let mut result = SimResult::empty(procs);
            let mut ends = StepEnds::default();
            ends.reset(ready);
            let sink = &mut (&mut result, &mut ends);
            let scratch = &mut SimScratch::new();
            if worst {
                worstcase::simulate_with(&pattern, &cfg, ready, &mut hook, sink, faults, scratch);
            } else {
                standard::simulate_with(&pattern, &cfg, ready, &mut hook, sink, faults, scratch);
            }
            assert_ends(label, &ends, &result, ready);
        }
    }
}

// The same worst-case properties on cyclic patterns at P in 256..=1024,
// where every round's work must follow the messages moved rather than P.
// Fewer cases: the reference loop is O(P·M) per step.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worstcase_matches_reference_at_large_p(
        params in arb_params(),
        pattern in arb_cyclic_pattern(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready_seed in any::<u64>(),
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, false, classic, seed);
        check_worstcase_matches_reference(&pattern, &cfg, &seeded_ready(procs, ready_seed));
    }

    #[test]
    fn worstcase_retime_equals_full_resim_at_large_p(
        pattern in arb_cyclic_pattern(),
        base in arb_params(),
        alt in arb_params(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready_seed in any::<u64>(),
    ) {
        let procs = pattern.procs();
        let base_cfg = make_cfg(base, procs, false, classic, seed);
        let alt_cfg = make_cfg(alt, procs, false, classic, seed);
        let ready = seeded_ready(procs, ready_seed);
        check_worstcase_retime(&pattern, &base_cfg, &alt_cfg, &ready, &mut SimScratch::new());
    }

    /// One scratch carried through P = 1024 → 8 → 256 (its buffers grow,
    /// shrink and grow again) simulates and re-times as fresh ones do.
    #[test]
    fn worstcase_scratch_reuse_across_processor_counts(
        shape in arb_cyclic_shape(),
        base in arb_params(),
        alt in arb_params(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready_seed in any::<u64>(),
    ) {
        let mut scratch = SimScratch::new();
        for procs in [1024, 8, 256] {
            let pattern = cyclic_pattern(procs, shape);
            let cfg = make_cfg(base, procs, false, classic, seed);
            let alt_cfg = make_cfg(alt, procs, false, classic, seed);
            let ready = seeded_ready(procs, ready_seed);
            let mut arrival = |m: &Message, start: Time| cfg.params.arrival_time(start, m.bytes);
            let mut reused = SimResult::empty(procs);
            worstcase::simulate_with(
                &pattern, &cfg, &ready, &mut arrival, &mut reused, None, &mut scratch);
            let fresh = worstcase::simulate_from(&pattern, &cfg, &ready);
            assert_same("wc scratch reuse", &reused, &fresh);
            check_worstcase_retime(&pattern, &cfg, &alt_cfg, &ready, &mut scratch);
        }
    }
}
