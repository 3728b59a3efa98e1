//! Soundness suite for the cost-interval interpreter: the headline
//! guarantee is that the static bracket surrounds both simulators,
//!
//! ```text
//! static_lo <= simulate_standard  <= static_hi
//! static_lo <= simulate_worst_case <= static_hi
//! ```
//!
//! under every machine preset, both gap rules, random tie-breaking and
//! any seed — for the shipped generators and for random programs. The
//! shipped generators additionally satisfy the paper's full ordering
//! `static_lo <= standard <= worst_case <= static_hi`; see
//! [`worst_case_can_undercut_standard_across_steps`] for why the middle
//! inequality is not asserted for arbitrary multi-step programs. Plus
//! fixtures for the `PS06xx` pass family and the emit-time span-ordering
//! regression.

use commsim::{patterns, SimConfig};
use loggp::{presets, LogGpParams, Time};
use predsim_core::simulate::{Overlap, Synchronization};
use predsim_core::{simulate_program, Program, SimOptions, Step};
use predsim_lint::interval::{analyze, BoundsConfig};
use predsim_lint::{check_program, Code, LintOptions, ProgramView, Severity};
use proptest::prelude::*;

/// Assert the static bracket around BOTH simulators for one program under
/// one configuration:
///
/// ```text
/// static_lo <= simulate_standard <= static_hi
/// static_lo <= simulate_worst_case <= static_hi
/// ```
///
/// Deliberately NOT asserted here: `standard <= worst_case`. That middle
/// inequality is only a theorem for a single communication pattern started
/// from a *uniform* per-processor entry front (which is what the paper and
/// the per-pattern props in `commsim` cover). Across a multi-step program
/// the computation phases stagger each step's entry front, and the
/// worst-case algorithm's receive-first schedule can then finish a
/// processor *earlier* than the standard schedule — see
/// [`worst_case_can_undercut_standard_across_steps`] for a pinned
/// counterexample. The static bracket must therefore hold around each
/// simulator independently, which is exactly what it guarantees.
fn assert_chain(
    label: &str,
    program: &Program,
    cfg: SimConfig,
    sync: Synchronization,
    overlap: Overlap,
) {
    let (bounds, std, wc) = run_all(program, cfg, sync, overlap);
    assert!(
        bounds.lo <= std.total,
        "{label}: static_lo {} > standard {}",
        bounds.lo,
        std.total
    );
    assert!(
        std.total <= bounds.hi,
        "{label}: standard {} > static_hi {}",
        std.total,
        bounds.hi
    );
    assert!(
        bounds.lo <= wc.total,
        "{label}: static_lo {} > worst-case {}",
        bounds.lo,
        wc.total
    );
    assert!(
        wc.total <= bounds.hi,
        "{label}: worst-case {} > static_hi {}",
        wc.total,
        bounds.hi
    );
}

/// [`assert_chain`] plus the paper's full ordering
/// `lo <= std <= wc <= hi`. Used for the shipped generator programs, whose
/// regular step structure keeps the worst-case algorithm dominant (the
/// `bench` and `apsp` crates already pin this for GE and APSP).
fn assert_full_chain(label: &str, program: &Program, cfg: SimConfig) {
    let (_, std, wc) = run_all(program, cfg, Synchronization::PerProcessor, Overlap::None);
    assert!(
        std.total <= wc.total,
        "{label}: standard {} > worst-case {}",
        std.total,
        wc.total
    );
    assert_chain(
        label,
        program,
        cfg,
        Synchronization::PerProcessor,
        Overlap::None,
    );
}

fn run_all(
    program: &Program,
    cfg: SimConfig,
    sync: Synchronization,
    overlap: Overlap,
) -> (
    predsim_lint::ProgramBounds,
    predsim_core::Prediction,
    predsim_core::Prediction,
) {
    let bounds_cfg = BoundsConfig::new(cfg.params)
        .with_sync(sync)
        .with_overlap(overlap);
    let bounds = analyze(&ProgramView::of(program), &bounds_cfg)
        .unwrap_or_else(|| panic!("analyze refused a well-formed program"));
    let mut opts = SimOptions::new(cfg).with_barrier_if(sync);
    if matches!(overlap, Overlap::RecvOnly) {
        opts = opts.with_overlap();
    }
    let std = simulate_program(program, &opts);
    let wc = simulate_program(program, &opts.worst_case());
    (bounds, std, wc)
}

/// Small shim so the chain helper can request a barrier conditionally.
trait WithBarrierIf {
    fn with_barrier_if(self, sync: Synchronization) -> Self;
}

impl WithBarrierIf for SimOptions {
    fn with_barrier_if(self, sync: Synchronization) -> Self {
        match sync {
            Synchronization::Barrier => self.with_barrier(),
            Synchronization::PerProcessor => self,
        }
    }
}

// ---------------------------------------------------------------------------
// Shipped generators x every machine preset.
// ---------------------------------------------------------------------------

#[test]
fn generator_programs_are_bracketed_under_every_preset() {
    let cost = blockops::AnalyticCost::paper_default();
    let mut programs: Vec<(String, Program)> = Vec::new();
    for layout in [
        &predsim_core::Diagonal::new(8) as &dyn predsim_core::Layout,
        &predsim_core::RowCyclic::new(8),
        &predsim_core::ColCyclic::new(8),
    ] {
        programs.push((
            format!("ge/{}", layout.name()),
            gauss::generate(240, 24, layout, &cost).program,
        ));
        programs.push((
            format!("apsp/{}", layout.name()),
            apsp::generate(120, 24, layout, &cost).program,
        ));
    }
    programs.push(("cannon".into(), cannon::generate(64, 4, &cost).program));
    programs.push(("stencil".into(), stencil::generate(64, 8, 4, 500).program));

    for (name, program) in &programs {
        for preset in presets::all(program.procs()) {
            let label = format!("{name} on {}", preset.name);
            let cfg = SimConfig::new(preset.params);
            assert_full_chain(&label, program, cfg);
        }
    }
}

#[test]
fn generator_programs_are_bracketed_under_model_variations() {
    let cost = blockops::AnalyticCost::paper_default();
    let layout = predsim_core::Diagonal::new(8);
    let ge = gauss::generate(240, 24, &layout, &cost).program;
    for preset in [presets::meiko_cs2(8), presets::intel_paragon(8)] {
        for classic in [false, true] {
            for sync in [Synchronization::PerProcessor, Synchronization::Barrier] {
                for overlap in [Overlap::None, Overlap::RecvOnly] {
                    let mut cfg = SimConfig::new(preset);
                    if classic {
                        cfg = cfg.with_classic_gap_rule();
                    }
                    let label = format!("ge classic={classic} sync={sync:?} overlap={overlap:?}");
                    assert_chain(&label, &ge, cfg, sync, overlap);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random traces: programs, machines, seeds, gap rules, tie-breaking.
// ---------------------------------------------------------------------------

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

fn arb_program() -> impl Strategy<Value = Program> {
    (2usize..8, 1usize..5, any::<u64>()).prop_map(|(procs, steps, seed)| {
        let mut program = Program::new(procs);
        for s in 0..steps {
            let mix = seed.rotate_left(s as u32);
            let comp: Vec<Time> = (0..procs)
                .map(|p| Time::from_ns((mix >> (p % 16)) & 0xffff))
                .collect();
            let pattern = patterns::random(procs, (mix % 20) as usize, 2048, mix);
            let mut step = Step::new(format!("s{s}")).with_comp(comp);
            if !pattern.is_empty() {
                step = step.with_comm(pattern);
            }
            program.push(step);
        }
        program
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline chain holds for arbitrary programs (cycles and forced
    /// transmissions included) under arbitrary machines, seeds, both gap
    /// rules and random tie-breaking.
    #[test]
    fn random_programs_are_bracketed(
        program in arb_program(),
        params in arb_params(),
        seed in any::<u64>(),
        classic_gap in proptest::bool::ANY,
        random_ties in proptest::bool::ANY,
        barrier in proptest::bool::ANY,
        recv_only in proptest::bool::ANY,
    ) {
        let params = params.with_procs(program.procs());
        let mut cfg = SimConfig::new(params).with_seed(seed);
        if classic_gap {
            cfg = cfg.with_classic_gap_rule();
        }
        if random_ties {
            cfg = cfg.with_random_ties(seed);
        }
        let sync = if barrier { Synchronization::Barrier } else { Synchronization::PerProcessor };
        let overlap = if recv_only { Overlap::RecvOnly } else { Overlap::None };
        assert_chain("random program", &program, cfg, sync, overlap);
    }

    /// The interpreter agrees with itself: per-proc intervals are ordered,
    /// per-step intervals are monotone along the program, and the
    /// critical path has exactly one span per step.
    #[test]
    fn interval_structure_is_coherent(
        program in arb_program(),
        params in arb_params(),
    ) {
        let params = params.with_procs(program.procs());
        let b = analyze(&ProgramView::of(&program), &BoundsConfig::new(params)).unwrap();
        prop_assert!(b.lo <= b.hi);
        for &(lo, hi) in &b.per_proc {
            prop_assert!(lo <= hi);
        }
        let mut prev = (Time::ZERO, Time::ZERO);
        for s in &b.steps {
            prop_assert!(s.lo_end <= s.hi_end, "step {}: lo > hi", s.step);
            prop_assert!(s.lo_end >= prev.0 && s.hi_end >= prev.1, "step {}: not monotone", s.step);
            prev = (s.lo_end, s.hi_end);
        }
        prop_assert_eq!(b.critical_path.len(), program.len());
        prop_assert_eq!(b.hi, b.steps.last().map(|s| s.hi_end).unwrap_or(Time::ZERO));
    }
}

// ---------------------------------------------------------------------------
// PS06xx fixtures: each code fires on a crafted program.
// ---------------------------------------------------------------------------

fn find(report: &predsim_lint::Report, code: Code) -> &predsim_lint::Diagnostic {
    report
        .diagnostics()
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code} in:\n{}", report.render()))
}

#[test]
fn ps0601_static_imbalance() {
    // One processor computes 100x the others across every step.
    let mut program = Program::new(4);
    for s in 0..4 {
        let mut comp = vec![Time::from_us(1.0); 4];
        comp[2] = Time::from_us(100.0);
        program.push(Step::new(format!("skew{s}")).with_comp(comp));
    }
    let report = check_program(
        &program,
        &LintOptions::default().with_params(presets::meiko_cs2(4)),
    );
    let d = find(&report, Code::StaticImbalance);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.span.proc, Some(2));
    assert!(d.message.contains("imbalanced"), "{}", d.message);
}

#[test]
fn ps0602_contention_hotspot_on_gather() {
    let params = LogGpParams {
        latency: Time::from_us(1.0),
        overhead: Time::from_us(1.0),
        gap: Time::from_us(50.0),
        gap_per_byte: Time::ZERO,
        procs: 8,
    };
    let mut program = Program::new(8);
    program.push(Step::new("gather").with_comm(patterns::gather(8, 0, 64)));
    let report = check_program(&program, &LintOptions::default().with_params(params));
    let d = find(&report, Code::ContentionHotspot);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.span.proc, Some(0));
    assert!(d.message.contains("gap-serialized"), "{}", d.message);
}

#[test]
fn ps0603_bandwidth_dominated_big_messages() {
    let params = LogGpParams {
        latency: Time::from_ns(100),
        overhead: Time::from_ns(100),
        gap: Time::from_ns(100),
        gap_per_byte: Time::from_ns(50),
        procs: 2,
    };
    let mut pattern = commsim::CommPattern::new(2);
    pattern.add(0, 1, 1 << 20);
    let mut program = Program::new(2);
    program.push(Step::new("bulk").with_comm(pattern));
    let report = check_program(&program, &LintOptions::default().with_params(params));
    let d = find(&report, Code::BandwidthDominated);
    assert_eq!(d.severity, Severity::Info);
    assert!(
        d.notes.iter().any(|n| n.contains("block size")),
        "{:?}",
        d.notes
    );
}

#[test]
fn ps0604_divergence_risk_on_cyclic_fan_in() {
    // A dense all-to-all ring-of-rings: everything is reachable from a
    // cycle, so the ceiling blob dwarfs the floor.
    let mut pattern = commsim::CommPattern::new(6);
    for src in 0..6usize {
        for dst in 0..6usize {
            if src != dst {
                pattern.add(src, dst, 4096);
            }
        }
    }
    let mut program = Program::new(6);
    program.push(Step::new("all2all").with_comm(pattern));
    let report = check_program(
        &program,
        &LintOptions::default().with_params(presets::meiko_cs2(6)),
    );
    let d = find(&report, Code::DivergenceRisk);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.span.is_program(), "whole-program finding");
}

#[test]
fn faulted_analyses_still_bracket_nothing_extra() {
    // The PS06xx pass runs on the fault-free program model; a fault window
    // must not change the static findings (bounds are computed without
    // faults — callers report intervals as unavailable for faulted jobs).
    let mut program = Program::new(4);
    program.push(Step::new("x").with_comm(patterns::gather(4, 0, 64)));
    let opts = LintOptions::default().with_params(presets::meiko_cs2(4));
    let with_faults = opts
        .clone()
        .with_fault_windows(vec![predsim_lint::FaultWindow { proc: 1, step: 0 }]);
    let plain: Vec<_> = check_program(&program, &opts)
        .diagnostics()
        .iter()
        .filter(|d| d.code.as_str().starts_with("PS06"))
        .cloned()
        .collect();
    let faulted: Vec<_> = check_program(&program, &with_faults)
        .diagnostics()
        .iter()
        .filter(|d| d.code.as_str().starts_with("PS06"))
        .cloned()
        .collect();
    assert_eq!(plain, faulted);
}

// ---------------------------------------------------------------------------
// Satellite: span ordering is fixed at emit time, not per render.
// ---------------------------------------------------------------------------

#[test]
fn fan_in_sender_lists_are_sorted_regardless_of_message_order() {
    // Same gather, two message insertion orders: the rendered sender list
    // and the full JSON must be byte-identical.
    let mut forward = commsim::CommPattern::new(6);
    for src in 1..6 {
        forward.add(src, 0, 64);
    }
    let mut backward = commsim::CommPattern::new(6);
    for src in (1..6).rev() {
        backward.add(src, 0, 64);
    }
    let opts = LintOptions::default().with_params(presets::meiko_cs2(6));
    let render = |pattern: &commsim::CommPattern| {
        let mut program = Program::new(6);
        program.push(Step::new("gather").with_comm(pattern.clone()));
        let report = check_program(&program, &opts);
        (report.render(), report.to_json())
    };
    let (text_f, json_f) = render(&forward);
    let (text_b, json_b) = render(&backward);
    assert!(text_f.contains("senders: P1, P2, P3, P4, P5"), "{text_f}");
    assert_eq!(text_f, text_b, "sender order must not leak message order");
    assert_eq!(json_f, json_b);
}

#[test]
fn report_json_order_is_stable_across_renders_and_sorts() {
    let mut program = Program::new(5);
    program.push(
        Step::new("mix")
            .with_comp(vec![
                Time::from_us(1.0),
                Time::from_us(40.0),
                Time::from_us(1.0),
                Time::from_us(1.0),
                Time::from_us(1.0),
            ])
            .with_comm(patterns::gather(5, 1, 64)),
    );
    let opts = LintOptions::default().with_params(presets::meiko_cs2(5));
    let mut report = check_program(&program, &opts);
    let first = report.to_json();
    // Rendering twice changes nothing.
    assert_eq!(report.to_json(), first);
    // Sorting again (the sort already ran once at emit time) is a no-op:
    // the order is a total, stable one.
    report.sort();
    assert_eq!(report.to_json(), first);
}

// ---------------------------------------------------------------------------
// Why assert_chain does not assert `standard <= worst_case`.
// ---------------------------------------------------------------------------

/// Pinned counterexample: across steps, the worst-case algorithm can
/// finish *below* the standard one. Both algorithms enter the final step
/// with identical fronts, but worst-case's receive-first schedule lets the
/// bottleneck processor finish its receives (and therefore the step)
/// earlier than standard's interleaved send/receive schedule. Per-pattern
/// dominance from a uniform front — which `commsim`'s props pin — does not
/// compose over staggered fronts. The static bracket must (and does) hold
/// around each algorithm independently.
#[test]
fn worst_case_can_undercut_standard_across_steps() {
    let params = LogGpParams {
        latency: Time::from_ns(38),
        overhead: Time::from_ns(113),
        gap: Time::from_ns(120),
        gap_per_byte: Time::from_ns(1),
        procs: 4,
    };
    let seed = 1u64;
    let mut program = Program::new(4);
    for s in 0..3u64 {
        let mix = seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .rotate_left(s as u32 * 11);
        let comp: Vec<Time> = (0..4)
            .map(|p| Time::from_ns((mix >> (p % 16)) & 0xffff))
            .collect();
        let pattern = patterns::random(4, 6, 2048, mix);
        program.push(
            Step::new(format!("s{s}"))
                .with_comp(comp)
                .with_comm(pattern),
        );
    }
    let cfg = SimConfig::new(params).with_seed(seed);
    let (bounds, std, wc) = run_all(&program, cfg, Synchronization::PerProcessor, Overlap::None);
    assert!(
        wc.total < std.total,
        "counterexample evaporated (simulator behaviour changed?): wc {} vs std {}",
        wc.total,
        std.total
    );
    // The bracket still holds around both.
    assert!(bounds.lo <= wc.total && std.total <= bounds.hi);
}
