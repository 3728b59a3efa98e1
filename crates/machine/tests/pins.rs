//! The emulator's run-independent counters on one GE program, pinned.
//!
//! Cache hits, misses and penalty, iteration overhead and self-copy time
//! depend only on the program, its loads and the cache configuration,
//! never on the seed. These values are the emulator's output on
//! `ge:240,24,diagonal,4`; any change to how a charge is computed or
//! accumulated moves at least one of them.

use blockops::AnalyticCost;
use commsim::SimConfig;
use loggp::{presets, Time};
use machine::{emulate, EmulatorConfig, Measurement};
use predsim_core::Diagonal;

fn counters(m: &Measurement) -> [u64; 5] {
    [
        m.cache_hits,
        m.cache_misses,
        m.cache_penalty_time.as_ps(),
        m.iter_overhead_time.as_ps(),
        m.self_copy_time.as_ps(),
    ]
}

fn ge_measurement(l2: bool) -> Measurement {
    let procs = 4;
    let trace = gauss::generate(
        240,
        24,
        &Diagonal::new(procs),
        &AnalyticCost::paper_default(),
    );
    let mut ecfg = EmulatorConfig::meiko_like(SimConfig::new(presets::meiko_cs2(procs)));
    if l2 {
        ecfg = ecfg.with_l2(512 * 1024, Time::from_ns(1500));
    }
    emulate(&trace.program, &trace.loads, &ecfg)
}

#[test]
fn ge_counters_are_pinned() {
    assert_eq!(
        counters(&ge_measurement(false)),
        [47_072, 28_168, 14_084_000_000, 770_000_000, 4_160_640_000]
    );
}

#[test]
fn ge_counters_with_l2_are_pinned() {
    assert_eq!(
        counters(&ge_measurement(true)),
        [53_568, 21_672, 35_756_000_000, 770_000_000, 4_160_640_000]
    );
}
