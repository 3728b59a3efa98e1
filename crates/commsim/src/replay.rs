//! Incremental re-simulation: record a step's commit order once, then
//! re-time it under different LogGP parameters without re-running event
//! selection.
//!
//! Its one consumer is `predsim machine-sweep` (through
//! `predsim_core::ProgramRecording`), which predicts one program on several
//! machines: the first is simulated in full while recording, and each
//! further one re-times the recorded orders. The *times* change between
//! machines, but the *decisions* — which processor acts next, send vs.
//! receive, where a deadlock is broken — often do not. A [`Recording`]
//! captures those decisions from one full simulation; [`Recording::retime`]
//! replays them under new parameters in one linear pass over the ops,
//! computing only the per-processor completion maxima the whole-program
//! fold consumes ([`StepEnds`]) — no timeline, no receive heaps.
//!
//! Re-timing is exact or it is refused — there is no approximation path:
//!
//! - **Worst-case algorithm**: the round structure (who sends in which
//!   round, the blocked sets, the RNG draws that break deadlocks) depends
//!   only on the pattern, never on the parameters, because part 2 of every
//!   round fully drains the inboxes. Re-timing the recorded sends and
//!   round boundaries under any parameters reproduces the full simulation
//!   bit-for-bit, as long as the seed matches the recording.
//! - **Standard algorithm**: the commit order *can* shift with parameters
//!   (a receive can overtake a send). Re-timing is therefore **verified**:
//!   at every recorded op it re-checks, under the new parameters, that the
//!   selection the recording dictates is the one the full algorithm would
//!   make — the acting processor's send-ready time is globally minimal
//!   (enforced via monotonicity of the selection key and of processor ids
//!   within equal keys) and the send/receive choice matches the
//!   `start_send < start_recv` rule. The recording carries a snapshot of
//!   the message arena and the *identities* of the main-loop receives, so
//!   instead of extracting minima retime verifies them: each pop's
//!   `(arrival, id)` key must be non-decreasing per processor, every
//!   drain-bound key must be at least the destination's last main-loop pop
//!   key, and the choice rule is checked against the exact pending minimum
//!   (the next recorded pop if its message is in flight — a not-yet-sent
//!   one arrives strictly after the current selection key — or the
//!   smallest in-flight drain-bound arrival). Any violation refuses the
//!   step (`false`) and the caller falls back to a full simulation; so
//!   does a parameter change that reorders which in-flight message a
//!   receive takes. Random tie-breaking is never re-timed (tie-set sizes,
//!   and hence RNG consumption, are parameter-dependent).
//!
//! `tests/equiv.rs` proptests pin `retime ≡ full re-simulation` whenever
//! retime accepts. Recordings assume the default LogGP arrival model and
//! no fault injection.

use crate::pattern::{CommPattern, Message};
use crate::scratch::{InFlight, SimScratch};
use crate::timeline::SimResult;
use crate::{standard, worstcase, SimConfig, TieBreak};
use loggp::{OpKind, Time};

/// Per-processor completion data of one re-timed communication step —
/// everything the whole-program fold consumes, without materializing a
/// [`Timeline`](crate::Timeline). Produced by [`Recording::retime`];
/// reusable across steps (the buffers are cleared, not reallocated).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepEnds {
    /// Per processor: end of its last committed operation, at least the
    /// step-entry ready time (the fold's next-computation start under
    /// no-overlap semantics).
    pub comm_done: Vec<Time>,
    /// Per processor: end of its last committed *receive*, at least the
    /// step-entry ready time (the fold's next-computation start under
    /// receive-only overlap).
    pub last_recv_done: Vec<Time>,
    /// Forced transmissions (worst-case algorithm on cyclic patterns).
    pub forced_sends: usize,
}

impl StepEnds {
    /// Reset to the step-entry ready times (every per-processor maximum
    /// starts from `ready[p]`).
    pub fn reset(&mut self, ready: &[Time]) {
        self.comm_done.clear();
        self.comm_done.extend_from_slice(ready);
        self.last_recv_done.clear();
        self.last_recv_done.extend_from_slice(ready);
        self.forced_sends = 0;
    }

    /// Fold a fully-simulated step's timeline into the maxima — the
    /// fallback path when a recording refuses to re-time. Equivalent to
    /// what [`Recording::retime`] computes on the fast path.
    pub fn absorb(&mut self, result: &SimResult) {
        for ev in result.timeline.events() {
            let d = &mut self.comm_done[ev.proc];
            *d = (*d).max(ev.end);
            if ev.kind == OpKind::Recv {
                let r = &mut self.last_recv_done[ev.proc];
                *r = (*r).max(ev.end);
            }
        }
        self.forced_sends += result.forced_sends;
    }
}

/// Which algorithm produced a [`Recording`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplayAlgo {
    /// The standard (Figure 2) algorithm; re-timing is verified per op.
    Standard,
    /// The worst-case (§4.2) algorithm; re-timing is unconditionally exact.
    WorstCase,
}

/// The commit order of one simulated step (see module docs).
///
/// Ops encode `proc << 1 | bit` — the bit is the operation kind for the
/// standard algorithm (0 = send, 1 = receive) and the forced flag for the
/// worst-case algorithm, whose round boundaries are `u32::MAX` sentinels.
#[derive(Clone, Debug)]
pub struct Recording {
    algo: ReplayAlgo,
    procs: usize,
    msgs: usize,
    seed: u64,
    replayable: bool,
    ops: Vec<u32>,
    /// Snapshot of the scratch arena for the recorded pattern: network
    /// messages grouped by source, with the initial per-processor cursor
    /// offsets in `q_start` and the exclusive ends in `q_end`. Retime runs
    /// directly off this copy instead of re-sorting the pattern per call.
    arena: Vec<Message>,
    q_start: Vec<u32>,
    q_end: Vec<u32>,
    /// Standard algorithm: arena slots of the main-loop receives, grouped
    /// per receiving processor in pop order
    /// (`pop_offsets[p]..pop_offsets[p + 1]` indexes `pop_slots`).
    pop_slots: Vec<u32>,
    pop_offsets: Vec<u32>,
    /// Standard algorithm: slots received in the drain phase, grouped by
    /// destination, plus a per-slot membership flag.
    drain_slots: Vec<u32>,
    drain_offsets: Vec<u32>,
    is_drain: Vec<bool>,
}

/// Buffers filled by the recording hot loops: the commit-order ops and,
/// for the standard algorithm, the arena slot of each main-loop receive
/// (aligned with the receive ops in order).
#[derive(Default)]
pub(crate) struct RecBufs {
    pub(crate) ops: Vec<u32>,
    pub(crate) recv_slots: Vec<u32>,
}

impl Recording {
    /// Re-time this recording under `cfg` (same pattern and ready times it
    /// was recorded from, typically different `cfg.params`), computing only
    /// the per-processor completion maxima the whole-program fold consumes,
    /// into `out` (buffers reused across calls). Returns `false` with `out`
    /// left in an unspecified state when the recorded order is not provably
    /// valid under `cfg` (see module docs); fall back to a full simulation
    /// then. On `true` the maxima equal what [`StepEnds::absorb`] would
    /// extract from the corresponding full simulation. No arena rebuild, no
    /// receive heaps, no per-event `CommEvent` construction, no timeline.
    pub fn retime(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
        out: &mut StepEnds,
    ) -> bool {
        match self.algo {
            ReplayAlgo::Standard => self.retime_standard(pattern, cfg, ready, scratch, out),
            ReplayAlgo::WorstCase => self.retime_worstcase(pattern, cfg, ready, scratch, out),
        }
    }

    fn retime_standard(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
        out: &mut StepEnds,
    ) -> bool {
        if !self.replayable || cfg.tie_break != TieBreak::LowestId || self.procs != pattern.procs()
        {
            return false;
        }
        let params = &cfg.params;
        let rule = cfg.gap_rule;
        let procs = self.procs;
        scratch.begin_retime(ready, &self.q_start, self.msgs, procs);
        out.reset(ready);

        // Selection-key monotonicity state. The main loop always commits at
        // the globally minimal (send_ready, proc) pair, so the sequence of
        // those keys is non-decreasing lexicographically. Conversely, if a
        // recorded sequence satisfies that and every per-op check below, it
        // IS the sequence the full algorithm produces: a wrongly-skipped
        // processor keeps its (smaller) key untouched until its own next
        // recorded op, where the descent is caught. The receive heaps are
        // replaced by the recorded pop identities: a pop is valid iff its
        // key does not descend within its processor's pop sequence (drain
        // keys included via the boundary check below) — in a valid run
        // later-sent messages arrive after the current selection key, so a
        // descent is exactly a pop that was not the pending minimum.
        let mut prev_t = Time::ZERO;
        let mut prev_p = 0usize;

        for &op in &self.ops {
            let p = (op >> 1) as usize;
            let is_recv = op & 1 == 1;
            if p >= procs || scratch.rt_cursor[p] >= self.q_end[p] {
                return false;
            }
            let t = scratch.clocks[p].ready_at_kind(params, rule, OpKind::Send);
            if t < prev_t || (t == prev_t && p < prev_p) {
                return false;
            }
            prev_t = t;
            prev_p = p;

            if is_recv {
                let idx = (self.pop_offsets[p] + scratch.rt_next_pop[p]) as usize;
                // In range by construction: ops and pop_slots come from
                // the same recorded run.
                let slot = self.pop_slots[idx] as usize;
                scratch.rt_next_pop[p] += 1;
                if !scratch.rt_sent[slot] {
                    return false;
                }
                let arrival = scratch.rt_arrival[slot];
                let key = (arrival, self.arena[slot].id as u32);
                if key < scratch.rt_last_key[p] {
                    return false;
                }
                scratch.rt_last_key[p] = key;
                let start_recv =
                    scratch.clocks[p].earliest_start_kind(params, rule, OpKind::Recv, arrival);
                if start_recv > t {
                    return false;
                }
                let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Recv, start_recv);
                out.comm_done[p] = out.comm_done[p].max(end);
                out.last_recv_done[p] = out.last_recv_done[p].max(end);
            } else {
                // The send is chosen only if no pending receive could
                // start at or before `t`. The pending minimum is the next
                // recorded main-loop pop if its message is in flight (one
                // not yet sent is committed at a later selection key and
                // so arrives strictly after `t`), and separately the
                // smallest in-flight drain-bound arrival.
                let idx = self.pop_offsets[p] + scratch.rt_next_pop[p];
                if idx < self.pop_offsets[p + 1] {
                    let s = self.pop_slots[idx as usize] as usize;
                    if scratch.rt_sent[s] {
                        let start_recv = scratch.clocks[p].earliest_start_kind(
                            params,
                            rule,
                            OpKind::Recv,
                            scratch.rt_arrival[s],
                        );
                        if t >= start_recv {
                            return false;
                        }
                    }
                }
                let (dm, _) = scratch.rt_drain_min[p];
                if dm != Time::MAX {
                    let start_recv =
                        scratch.clocks[p].earliest_start_kind(params, rule, OpKind::Recv, dm);
                    if t >= start_recv {
                        return false;
                    }
                }
                let slot = scratch.rt_cursor[p] as usize;
                scratch.rt_cursor[p] += 1;
                let msg = self.arena[slot];
                // `t` is the send's ready time; committing at it is exactly
                // what `faults::transmit` does for the fault-free recording
                // model.
                let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Send, t);
                out.comm_done[p] = out.comm_done[p].max(end);
                let arrival = params.arrival_time(t, msg.bytes);
                scratch.rt_sent[slot] = true;
                scratch.rt_arrival[slot] = arrival;
                if self.is_drain[slot] {
                    let key = (arrival, msg.id as u32);
                    if key < scratch.rt_drain_min[msg.dst] {
                        scratch.rt_drain_min[msg.dst] = key;
                    }
                }
            }
        }

        if (0..procs).any(|p| scratch.rt_cursor[p] < self.q_end[p]) {
            return false;
        }
        // Drain phase: the drain *set* is fixed by the recording, the
        // order is (arrival, id) under the new parameters. Main-loop
        // validity additionally requires every drain key to be at least
        // the destination's last main-loop pop key — a message below it
        // was pending when that pop committed, so the pop was not the
        // minimum.
        for p in 0..procs {
            let range = self.drain_offsets[p] as usize..self.drain_offsets[p + 1] as usize;
            if range.is_empty() {
                continue;
            }
            scratch.rt_drain.clear();
            for &slot in &self.drain_slots[range] {
                scratch.rt_drain.push(InFlight {
                    arrival: scratch.rt_arrival[slot as usize],
                    id: self.arena[slot as usize].id as u32,
                    slot,
                });
            }
            scratch.rt_drain.sort_unstable();
            let first = scratch.rt_drain[0];
            if (first.arrival, first.id) < scratch.rt_last_key[p] {
                return false;
            }
            let clock = &mut scratch.clocks[p];
            for &f in &scratch.rt_drain {
                let start = clock.earliest_start_kind(params, rule, OpKind::Recv, f.arrival);
                let end = clock.commit_kind(params, rule, OpKind::Recv, start);
                out.comm_done[p] = out.comm_done[p].max(end);
                out.last_recv_done[p] = out.last_recv_done[p].max(end);
            }
        }
        true
    }

    fn retime_worstcase(
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
        scratch.begin_retime(ready, &self.q_start, self.msgs, procs);
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
            if forced {
                out.forced_sends += 1;
            }
        }
        (0..procs).all(|p| scratch.rt_cursor[p] >= self.q_end[p])
    }
}

/// Snapshot the scratch arena after a recorded run. The per-run cursors in
/// `scratch.q_start` have advanced to the range ends, so the initial
/// offsets are reconstructed from the (stable) exclusive ends.
fn arena_snapshot(scratch: &SimScratch, procs: usize) -> (Vec<Message>, Vec<u32>, Vec<u32>) {
    let q_end = scratch.q_end[..procs].to_vec();
    let mut q_start = Vec::with_capacity(procs);
    let mut prev_end = 0u32;
    for &end in &q_end {
        q_start.push(prev_end);
        prev_end = end;
    }
    (scratch.arena.clone(), q_start, q_end)
}

/// Run the standard algorithm and record its commit order. The result is
/// bit-identical to [`standard::simulate_from`] with the same inputs.
pub fn record_standard(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    scratch: &mut SimScratch,
) -> (SimResult, Recording) {
    let params = cfg.params;
    let mut bufs = RecBufs::default();
    let result = standard::sim_core(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        None,
        None,
        scratch,
        Some(&mut bufs),
    );
    let procs = pattern.procs();
    let msgs = scratch.arena.len();
    let (arena, q_start, q_end) = arena_snapshot(scratch, procs);

    // Group the main-loop pops per receiving processor (counting sort over
    // the recorded ops) and mark everything else as drain-bound.
    let RecBufs { ops, recv_slots } = bufs;
    let mut pop_offsets = vec![0u32; procs + 1];
    for &op in &ops {
        if op & 1 == 1 {
            pop_offsets[(op >> 1) as usize + 1] += 1;
        }
    }
    for p in 0..procs {
        pop_offsets[p + 1] += pop_offsets[p];
    }
    let mut fill = pop_offsets[..procs].to_vec();
    let mut pop_slots = vec![0u32; recv_slots.len()];
    let mut is_drain = vec![true; msgs];
    let mut ri = 0usize;
    for &op in &ops {
        if op & 1 == 1 {
            let p = (op >> 1) as usize;
            let slot = recv_slots[ri];
            ri += 1;
            pop_slots[fill[p] as usize] = slot;
            fill[p] += 1;
            is_drain[slot as usize] = false;
        }
    }
    let mut drain_offsets = vec![0u32; procs + 1];
    for (slot, m) in arena.iter().enumerate() {
        if is_drain[slot] {
            drain_offsets[m.dst + 1] += 1;
        }
    }
    for p in 0..procs {
        drain_offsets[p + 1] += drain_offsets[p];
    }
    let mut fill = drain_offsets[..procs].to_vec();
    let mut drain_slots = vec![0u32; msgs - recv_slots.len()];
    for (slot, m) in arena.iter().enumerate() {
        if is_drain[slot] {
            drain_slots[fill[m.dst] as usize] = slot as u32;
            fill[m.dst] += 1;
        }
    }

    let rec = Recording {
        algo: ReplayAlgo::Standard,
        procs,
        msgs,
        seed: cfg.seed,
        replayable: cfg.tie_break == TieBreak::LowestId,
        ops,
        arena,
        q_start,
        q_end,
        pop_slots,
        pop_offsets,
        drain_slots,
        drain_offsets,
        is_drain,
    };
    (result, rec)
}

/// Run the worst-case algorithm and record its commit order. The result is
/// bit-identical to [`worstcase::simulate_from`] with the same inputs.
pub fn record_worstcase(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    scratch: &mut SimScratch,
) -> (SimResult, Recording) {
    let params = cfg.params;
    let mut ops = Vec::new();
    let result = worstcase::wc_core(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        None,
        None,
        scratch,
        Some(&mut ops),
    );
    let procs = pattern.procs();
    let (arena, q_start, q_end) = arena_snapshot(scratch, procs);
    let rec = Recording {
        algo: ReplayAlgo::WorstCase,
        procs,
        msgs: arena.len(),
        seed: cfg.seed,
        replayable: true,
        ops,
        arena,
        q_start,
        q_end,
        // The worst-case re-timing never consults the pop/drain tables.
        pop_slots: Vec::new(),
        pop_offsets: Vec::new(),
        drain_slots: Vec::new(),
        drain_offsets: Vec::new(),
        is_drain: Vec::new(),
    };
    (result, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
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

    /// The per-processor maxima [`StepEnds::absorb`] extracts from a full
    /// simulation, for comparison with [`Recording::retime`] output.
    fn ends_of(result: &SimResult, ready: &[Time]) -> StepEnds {
        let mut ends = StepEnds::default();
        ends.reset(ready);
        ends.absorb(result);
        ends
    }

    /// The maxima of a full simulation of `pattern` under `cfg` by the
    /// algorithm `rec` was recorded with.
    fn full_ends(
        rec: &Recording,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
    ) -> StepEnds {
        let full = match rec.algo {
            ReplayAlgo::Standard => standard::simulate_from(pattern, cfg, ready),
            ReplayAlgo::WorstCase => worstcase::simulate_from(pattern, cfg, ready),
        };
        ends_of(&full, ready)
    }

    #[test]
    fn recorded_run_matches_direct_simulation() {
        let pattern = patterns::all_to_all(6, 512);
        let cfg = meiko_cfg(6);
        let mut scratch = SimScratch::new();
        let (rec_result, _) = record_standard(&pattern, &cfg, &[Time::ZERO; 6], &mut scratch);
        let direct = standard::simulate(&pattern, &cfg);
        assert_eq!(rec_result.timeline.events(), direct.timeline.events());
    }

    #[test]
    fn standard_retime_matches_full_resim_under_new_params() {
        let pattern = patterns::all_to_all(6, 512);
        let base = meiko_cfg(6);
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        let ready = vec![Time::ZERO; 6];
        let (_, rec) = record_standard(&pattern, &base, &ready, &mut scratch);
        // Mild parameter changes keep the commit order valid.
        for (num, den) in [(1, 1), (11, 10), (9, 10), (13, 10)] {
            let cfg = SimConfig {
                params: scaled(base.params, num, den),
                ..base
            };
            assert!(
                rec.retime(&pattern, &cfg, &ready, &mut scratch, &mut ends),
                "mild scaling {num}/{den} keeps order valid"
            );
            assert_eq!(ends, full_ends(&rec, &pattern, &cfg, &ready), "{num}/{den}");
        }
    }

    #[test]
    fn worstcase_retime_is_exact_for_any_params() {
        let pattern = patterns::ring(7, 256); // cyclic: exercises forced sends
        let base = meiko_cfg(7).with_seed(5);
        let ready = vec![Time::ZERO; 7];
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        let (_, rec) = record_worstcase(&pattern, &base, &ready, &mut scratch);
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
            let want = full_ends(&rec, &pattern, &cfg, &ready);
            assert!(want.forced_sends > 0, "the ring forces sends");
            assert_eq!(ends, want, "{num}/{den}");
        }
    }

    #[test]
    fn retime_accepts_exactly_and_matches_full_resim() {
        // Across standard + worst-case recordings and mild-to-wild scaling:
        // whenever retime accepts, its maxima equal those of a full
        // simulation; unchanged parameters always retime, and worst-case
        // retime (unconditional given the seed) always accepts.
        let ready: Vec<Time> = (0..8).map(|p| Time::from_us(p as f64 * 3.0)).collect();
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        for pattern in [
            patterns::all_to_all(8, 512),
            patterns::ring(8, 256),
            patterns::random(8, 24, 2048, 17),
        ] {
            let base = meiko_cfg(8).with_seed(3);
            let (_, st) = record_standard(&pattern, &base, &ready, &mut scratch);
            let (_, wc) = record_worstcase(&pattern, &base, &ready, &mut scratch);
            for rec in [&st, &wc] {
                for (num, den) in [(1, 1), (11, 10), (2, 1), (1, 3), (17, 3)] {
                    let cfg = SimConfig {
                        params: scaled(base.params, num, den),
                        ..base
                    };
                    let accepted = rec.retime(&pattern, &cfg, &ready, &mut scratch, &mut ends);
                    if (num, den) == (1, 1) || rec.algo == ReplayAlgo::WorstCase {
                        assert!(accepted, "must retime at {num}/{den}");
                    }
                    if accepted {
                        assert_eq!(ends, full_ends(rec, &pattern, &cfg, &ready), "{num}/{den}");
                    }
                }
            }
        }
    }

    #[test]
    fn retime_refuses_a_wrong_seed_and_random_ties() {
        let pattern = patterns::ring(5, 64);
        let cfg = meiko_cfg(5).with_seed(7);
        let ready = vec![Time::ZERO; 5];
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        // Wrong seed on a worst-case recording.
        let (_, wc) = record_worstcase(&pattern, &cfg, &ready, &mut scratch);
        let other = meiko_cfg(5).with_seed(8);
        assert!(!wc.retime(&pattern, &other, &ready, &mut scratch, &mut ends));
        // Recording under random ties still simulates correctly...
        let pattern = patterns::all_to_all(4, 128);
        let rnd = meiko_cfg(4).with_random_ties(3);
        let ready = vec![Time::ZERO; 4];
        let (result, st) = record_standard(&pattern, &rnd, &ready, &mut scratch);
        let direct = standard::simulate(&pattern, &rnd);
        assert_eq!(result.timeline.events(), direct.timeline.events());
        // ...but never re-times (RNG consumption is param-dependent).
        assert!(!st.retime(&pattern, &rnd, &ready, &mut scratch, &mut ends));
    }

    #[test]
    fn standard_retime_bails_when_order_becomes_invalid() {
        // A chain whose receive/send interleaving flips when latency
        // collapses: with huge L the downstream processor sends its own
        // message before the upstream one arrives; with L=0 the arrival
        // overtakes it. Retime must detect the flip and refuse rather than
        // produce wrong maxima.
        let mut pattern = CommPattern::new(3);
        pattern.add(0, 1, 1); // arrives at 1 late under big L
        pattern.add(1, 2, 1); // P1's own send
        let base = SimConfig::new(LogGpParams {
            latency: Time::from_us(1000.0),
            ..presets::meiko_cs2(3)
        });
        let ready = vec![Time::ZERO; 3];
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        let (_, rec) = record_standard(&pattern, &base, &ready, &mut scratch);
        let collapsed = SimConfig::new(LogGpParams {
            latency: Time::ZERO,
            overhead: Time::ZERO,
            gap: Time::from_ns(1),
            ..base.params
        });
        // Refused is fine; if it claims validity it must be bit-exact.
        if rec.retime(&pattern, &collapsed, &ready, &mut scratch, &mut ends) {
            assert_eq!(ends, full_ends(&rec, &pattern, &collapsed, &ready));
        }
    }
}
