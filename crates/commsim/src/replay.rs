//! Incremental re-simulation of the worst-case algorithm: record a step's
//! commit order once, then re-time it under different LogGP parameters
//! without re-running event selection.
//!
//! Its one consumer is `predsim machine-sweep --worst-case` (through
//! `predsim_core::ProgramRecording`), which predicts one program on several
//! machines: the first is simulated in full while recording, and each
//! further one re-times the recorded orders. A [`Recording`] captures the
//! §4.2 round structure from one full simulation — which processor sends
//! which message in which round, which sends were forced, where each round
//! ends — and [`Recording::retime`] replays it under new parameters in one
//! linear pass over the sends, computing only the per-processor completion
//! maxima the whole-program fold consumes ([`StepEnds`]): no timeline, no
//! event selection.
//!
//! The re-timing needs no verification. The round structure depends only
//! on the pattern and the seed, never on the parameters, because part 2 of
//! every round fully drains the inboxes; so re-timing the recorded sends
//! and round boundaries under any parameters reproduces the full
//! simulation bit for bit. A seed or processor-count mismatch is refused
//! (`false`) and the caller simulates the step in full.
//!
//! `tests/equiv.rs` proptests pin `retime ≡ full re-simulation`.
//! Recordings assume the default LogGP arrival model and no fault
//! injection.

use crate::observe::OpSink;
use crate::pattern::{CommPattern, Message};
use crate::scratch::{InFlight, SimScratch};
use crate::timeline::{CommEvent, StepEnds};
use crate::{worstcase, SimConfig};
use loggp::{OpKind, Time};

/// The commit order of one worst-case step (see module docs).
///
/// Ops encode `proc << 1 | forced` for each send, in commit order, and a
/// `u32::MAX` sentinel ends each round's sends, where its drain runs.
/// Because every round fully drains, they are a pure function of the
/// pattern and the forced-send RNG stream: they replay exactly under any
/// LogGP parameters as long as the seed matches.
#[derive(Clone, Debug)]
pub struct Recording {
    procs: usize,
    seed: u64,
    ops: Vec<u32>,
    /// Snapshot of the scratch arena for the recorded pattern: network
    /// messages grouped by source, with the initial per-processor cursor
    /// offsets in `q_start` and the exclusive ends in `q_end`. Retime runs
    /// directly off this copy instead of re-sorting the pattern per call.
    arena: Vec<Message>,
    q_start: Vec<u32>,
    q_end: Vec<u32>,
}

impl Recording {
    /// Re-time this recording under `cfg` (same pattern and ready times it
    /// was recorded from, typically different `cfg.params`), computing only
    /// the per-processor completion maxima the whole-program fold consumes,
    /// into `out` (buffers reused across calls). Returns `false` with `out`
    /// left in an unspecified state when `cfg.seed` or the processor count
    /// differs from the recording's; fall back to a full simulation then.
    /// On `true` the maxima equal what the corresponding full simulation
    /// writes into a [`StepEnds`] sink.
    pub fn retime(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
        out: &mut StepEnds,
    ) -> bool {
        if self.seed != cfg.seed || self.procs != pattern.procs() {
            return false;
        }
        let params = &cfg.params;
        let rule = cfg.gap_rule;
        let procs = self.procs;
        scratch.begin_retime(ready, &self.q_start);
        scratch.reset_inboxes(procs);
        out.reset(ready);

        for &op in &self.ops {
            if op == u32::MAX {
                // Round boundary: drain the dirty inboxes, timeline-free.
                // A drain touches only its own processor's clock and
                // maxima, so unlike the simulation's drain it needs no
                // processor order.
                for i in 0..scratch.dirty.len() {
                    let p = scratch.dirty[i] as usize;
                    let mut inbox = std::mem::take(&mut scratch.inboxes[p]);
                    inbox.sort_unstable();
                    for &inflight in &inbox {
                        let clock = &mut scratch.clocks[p];
                        let start =
                            clock.earliest_start_kind(params, rule, OpKind::Recv, inflight.arrival);
                        let end = clock.commit_kind(params, rule, OpKind::Recv, start);
                        out.comm_done[p] = out.comm_done[p].max(end);
                        out.last_recv_done[p] = out.last_recv_done[p].max(end);
                    }
                    inbox.clear();
                    scratch.inboxes[p] = inbox;
                }
                scratch.dirty.clear();
                continue;
            }
            let p = (op >> 1) as usize;
            let forced = op & 1 == 1;
            if p >= procs || scratch.rt_cursor[p] >= self.q_end[p] {
                return false;
            }
            let slot = scratch.rt_cursor[p];
            scratch.rt_cursor[p] += 1;
            let msg = self.arena[slot as usize];
            let start = scratch.clocks[p].ready_at_kind(params, rule, OpKind::Send);
            let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Send, start);
            out.comm_done[p] = out.comm_done[p].max(end);
            let arrival = params.arrival_time(start, msg.bytes);
            scratch.deliver(
                msg.dst,
                InFlight {
                    arrival,
                    id: msg.id as u32,
                    slot,
                },
            );
            out.forced_sends += usize::from(forced);
        }
        (0..procs).all(|p| scratch.rt_cursor[p] >= self.q_end[p])
    }
}

/// Run the worst-case algorithm into `sink` and record its commit order.
/// `sink` sees exactly what [`worstcase::simulate_with`] reports with the
/// default arrival model and no faults: a [`StepEnds`] for a prediction,
/// a [`SimResult`](crate::SimResult) to compare whole timelines.
pub fn record_worstcase<S: OpSink>(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    scratch: &mut SimScratch,
    sink: &mut S,
) -> Recording {
    let params = cfg.params;
    let mut order = OrderRecorder(Vec::new());
    worstcase::simulate_with(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        &mut (&mut order, sink),
        None,
        scratch,
    );
    let procs = pattern.procs();
    // The run advanced the cursors in `scratch.q_start` to the range ends;
    // the initial offsets follow from the (stable) exclusive ends.
    let q_end = scratch.q_end[..procs].to_vec();
    let q_start = std::iter::once(0)
        .chain(q_end.iter().copied())
        .take(procs)
        .collect();
    Recording {
        procs,
        seed: cfg.seed,
        ops: order.0,
        arena: scratch.arena.clone(),
        q_start,
        q_end,
    }
}

/// The sink that writes a [`Recording`]'s ops: one per send, and a round
/// boundary where a receive first follows a send. That is exactly where a
/// §4.2 round's drain begins, because every round sends at least one
/// network message and receives it in its own drain.
struct OrderRecorder(Vec<u32>);

impl OpSink for OrderRecorder {
    fn send(&mut self, ev: &CommEvent, forced: bool) {
        self.0.push((ev.proc as u32) << 1 | u32::from(forced));
    }

    fn recv(&mut self, _ev: &CommEvent, _arrival: Time, _drain: bool) {
        if self.0.last().is_some_and(|&op| op != u32::MAX) {
            self.0.push(u32::MAX);
        }
    }

    fn retransmit(&mut self, _ev: &CommEvent, _attempt: u64, _rto: Time) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{patterns, SimResult};
    use loggp::{presets, LogGpParams};

    fn meiko_cfg(procs: usize) -> SimConfig {
        SimConfig::new(presets::meiko_cs2(procs))
    }

    fn scaled(params: LogGpParams, num: u64, den: u64) -> LogGpParams {
        LogGpParams {
            latency: Time::from_ps(params.latency.as_ps() * num / den),
            overhead: Time::from_ps(params.overhead.as_ps() * num / den),
            gap: Time::from_ps(params.gap.as_ps() * num / den),
            gap_per_byte: Time::from_ps(params.gap_per_byte.as_ps() * num / den),
            ..params
        }
    }

    /// The maxima of a full worst-case simulation of `pattern` under `cfg`,
    /// for comparison with [`Recording::retime`] output.
    fn full_ends(pattern: &CommPattern, cfg: &SimConfig, ready: &[Time]) -> StepEnds {
        let mut ends = StepEnds::default();
        ends.reset(ready);
        let params = cfg.params;
        worstcase::simulate_with(
            pattern,
            cfg,
            ready,
            &mut |m, start| params.arrival_time(start, m.bytes),
            &mut ends,
            None,
            &mut SimScratch::new(),
        );
        ends
    }

    #[test]
    fn worstcase_retime_is_exact_for_any_params() {
        let pattern = patterns::ring(7, 256); // cyclic: exercises forced sends
        let base = meiko_cfg(7).with_seed(5);
        let ready = vec![Time::ZERO; 7];
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        let rec = record_worstcase(
            &pattern,
            &base,
            &ready,
            &mut scratch,
            &mut SimResult::empty(7),
        );
        // Even drastic parameter changes re-time exactly (round structure
        // is parameter-independent).
        for (num, den) in [(1, 10), (10, 1), (17, 3)] {
            let cfg = SimConfig {
                params: scaled(base.params, num, den),
                ..base
            };
            assert!(
                rec.retime(&pattern, &cfg, &ready, &mut scratch, &mut ends),
                "worst-case retime is unconditional"
            );
            let want = full_ends(&pattern, &cfg, &ready);
            assert!(want.forced_sends > 0, "the ring forces sends");
            assert_eq!(ends, want, "{num}/{den}");
        }
    }

    #[test]
    fn retime_accepts_exactly_and_matches_full_resim() {
        // Across patterns and mild-to-wild scaling, worst-case retime
        // (unconditional given the seed) always accepts, and its maxima
        // equal those of a full simulation.
        let ready: Vec<Time> = (0..8).map(|p| Time::from_us(p as f64 * 3.0)).collect();
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        for pattern in [
            patterns::all_to_all(8, 512),
            patterns::ring(8, 256),
            patterns::random(8, 24, 2048, 17),
        ] {
            let base = meiko_cfg(8).with_seed(3);
            let rec = record_worstcase(
                &pattern,
                &base,
                &ready,
                &mut scratch,
                &mut SimResult::empty(8),
            );
            for (num, den) in [(1, 1), (11, 10), (2, 1), (1, 3), (17, 3)] {
                let cfg = SimConfig {
                    params: scaled(base.params, num, den),
                    ..base
                };
                assert!(
                    rec.retime(&pattern, &cfg, &ready, &mut scratch, &mut ends),
                    "must retime at {num}/{den}"
                );
                assert_eq!(ends, full_ends(&pattern, &cfg, &ready), "{num}/{den}");
            }
        }
    }

    #[test]
    fn retime_refuses_a_wrong_seed() {
        let pattern = patterns::ring(5, 64);
        let cfg = meiko_cfg(5).with_seed(7);
        let ready = vec![Time::ZERO; 5];
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        let wc = record_worstcase(
            &pattern,
            &cfg,
            &ready,
            &mut scratch,
            &mut SimResult::empty(5),
        );
        let other = meiko_cfg(5).with_seed(8);
        assert!(!wc.retime(&pattern, &other, &ready, &mut scratch, &mut ends));
    }
}
