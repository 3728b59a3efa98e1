//! The overestimation ("worst-case") simulation algorithm (paper §4.2).
//!
//! To bound the communication time from above, each processor first waits
//! for **all** the messages it has to receive and only afterwards starts
//! transmitting its own. The algorithm proceeds in rounds: in the first part
//! of a round, every processor whose receive counter has reached zero sends
//! all of its messages; in the second part, every destination performs the
//! corresponding receive operations (in arrival order, under the gap rule).
//!
//! A processor inside a cycle of the pattern would wait forever, so on a
//! round in which no processor may send and messages remain, the algorithm
//! "performs randomly some message transmissions in order to break the
//! deadlock": one pending message from a randomly chosen blocked processor
//! is forced out. The number of forced transmissions is reported in
//! [`SimResult::forced_sends`].
//!
//! The paper notes this schedule "cannot take place in real execution"
//! (processors usually do not know how many messages to expect); it exists
//! purely to overestimate.
//!
//! # Implementation
//!
//! Like [`crate::standard`], the loop runs on flat [`SimScratch`] state
//! (arena-cursor send queues, reused inbox buffers, a receive-counter
//! array) and is pinned bit-identical to the straightforward encoding in
//! [`crate::reference`] by `tests/equiv.rs`.
//!
//! A round costs the messages it moves, not the processor count. The
//! reference loop scans all P processors three times a round: for the
//! senders, for the deadlock victim's candidates and for the inboxes to
//! drain. On a cyclic pattern (halo exchanges, hypercube pairs) each round
//! forces one send, so rounds ≈ messages and a step cost O(P·M). Here:
//!
//! - **Senders** come from a ready worklist. It starts as the processors
//!   that receive nothing and have sends, in ascending order. The drain
//!   appends each processor whose receive counter it brings to zero while
//!   it still has sends. Sends change no counter, so the worklist is the
//!   reference loop's eligible set at the top of every round.
//! - **The drain** visits only the inboxes that received in the round (the
//!   dirty list), sorted ascending: the reference order, which fixes the
//!   order in which the sink sees the receives. Draining in that order
//!   also keeps the worklist ascending, so it needs no sort of its own.
//! - **The deadlock victim** is the `k`-th processor with unsent messages,
//!   found in O(log P) by an order-statistic index (a Fenwick tree). `k` is
//!   drawn from the same RNG stream as the reference loop's index into its
//!   ascending list, and a single candidate consumes no RNG state in both.
//!
//! Because part 2 of every round fully drains the inboxes, the round
//! structure — which processors send in which round, and where deadlocks
//! are broken — depends only on the pattern, never on the LogGP
//! parameters; [`crate::replay`] exploits that to re-time a recorded run
//! under new parameters without re-running the selection logic.

use crate::faults::{transmit, StepFaults};
use crate::observe::OpSink;
use crate::pattern::{CommPattern, Message};
use crate::scratch::{InFlight, SimScratch};
use crate::timeline::{CommEvent, SimResult};
use crate::SimConfig;
use loggp::{GapRule, LogGpParams, OpKind, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulate one communication step with the overestimation algorithm.
pub fn simulate(pattern: &CommPattern, cfg: &SimConfig) -> SimResult {
    simulate_from(pattern, cfg, &vec![Time::ZERO; pattern.procs()])
}

/// [`simulate`] with per-processor earliest communication times (processors
/// enter the step when their computation phase ends).
pub fn simulate_from(pattern: &CommPattern, cfg: &SimConfig, ready: &[Time]) -> SimResult {
    let params = cfg.params;
    let mut result = SimResult::empty(pattern.procs());
    simulate_with(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        &mut result,
        None,
        &mut SimScratch::new(),
    );
    result
}

/// [`simulate_from`] with every hook exposed, under the same contract as
/// [`crate::standard::simulate_with`]: a custom arrival model (clamped to
/// `send_start + o`), a sink that receives every committed operation and
/// is the only output (forced, deadlock-breaking transmissions are
/// flagged on their sends; no receive is a drain), message drops and
/// charged retransmissions decided exactly as for the standard algorithm
/// (so the overestimation bound holds under injection), and a reusable
/// scratch.
pub fn simulate_with<S: OpSink>(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    sink: &mut S,
    faults: Option<&dyn StepFaults>,
    scratch: &mut SimScratch,
) {
    let params = &cfg.params;
    let rule = cfg.gap_rule;
    // Only deadlock rounds consult the RNG; acyclic patterns build none.
    let mut rng: Option<SmallRng> = None;

    scratch.begin_worstcase(pattern, ready);
    let mut remaining_sends = scratch.arena.len();

    // Part 2 fully drains every inbox, so at the top of a round no receives
    // are ever pending (the reference loop's "receives pending but nobody
    // eligible" branch is unreachable) and the loop runs while sends remain.
    while remaining_sends > 0 {
        debug_assert!(scratch.dirty.is_empty(), "an inbox survived the drain");

        // Part 1: every processor that has received everything it expects
        // sends all of its messages. Sends change no receive counter, so
        // the worklist the last drain left is exactly that set.
        if !scratch.ready.is_empty() {
            for i in 0..scratch.ready.len() {
                let p = scratch.ready[i] as usize;
                while scratch.has_sends(p) {
                    wc_send(scratch, cfg, p, false, arrival_of, faults, sink);
                    remaining_sends -= 1;
                }
            }
            scratch.ready.clear();
        } else {
            // Deadlock: messages remain but every would-be sender is still
            // waiting on a cycle. Force one transmission from a randomly
            // chosen blocked processor: the draw indexes the blocked
            // processors in ascending order, as the reference loop's list.
            let blocked = scratch.senders.len();
            debug_assert!(blocked > 0);
            // A singleton draw returns 0 without consuming RNG state, so
            // skipping it keeps the stream identical to the reference loop.
            let k = if blocked == 1 {
                0
            } else {
                let rng = rng.get_or_insert_with(|| SmallRng::seed_from_u64(cfg.seed));
                rng.gen_range(0..blocked)
            };
            let victim = scratch.senders.select(k);
            wc_send(scratch, cfg, victim, true, arrival_of, faults, sink);
            remaining_sends -= 1;
        }

        // Part 2: every destination performs the receive operations for the
        // messages delivered so far, in arrival order.
        wc_drain(scratch, params, rule, sink);
    }
}

/// Pop processor `p`'s next message, commit its send (fault-charged), and
/// deliver it to the destination inbox with a clamped arrival. A
/// processor whose last message this was leaves the sender index.
fn wc_send<S: OpSink>(
    scratch: &mut SimScratch,
    cfg: &SimConfig,
    p: usize,
    forced: bool,
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    faults: Option<&dyn StepFaults>,
    sink: &mut S,
) {
    let params = &cfg.params;
    let (slot, msg) = scratch.pop_send(p);
    if !scratch.has_sends(p) {
        scratch.senders.remove(p);
    }
    let final_start = transmit(&mut scratch.clocks[p], cfg, p, &msg, forced, faults, sink);
    // Documented clamp (see `standard::simulate_with`): an arrival model
    // returning < send_start + o is lifted to the earliest sound arrival,
    // in release builds too.
    let arrival = arrival_of(&msg, final_start).max(final_start + params.overhead);
    scratch.deliver(
        msg.dst,
        InFlight {
            arrival,
            id: msg.id as u32,
            slot,
        },
    );
}

/// Part 2 of a round: every destination receives the messages delivered so
/// far, in `(arrival, msg.id)` order. Only the dirty inboxes are visited,
/// in ascending processor order — the reference loop's order, which fixes
/// the order of the receives the sink sees, and keeps the ready worklist
/// the drain appends to ascending.
// No inlining attribute: now that the drain visits only dirty inboxes,
// `#[inline(never)]` and the compiler's own choice measure the same
// (CPU-time minima 20.0 and 19.9 ms over 41 runs of `batch
// stencil:8192,1024,10 allreduce:1024:65536:1000:hypercube --worst-case
// --jobs 1` with the engine's former step memo switched off, 2-vCPU
// host).
fn wc_drain<S: OpSink>(
    scratch: &mut SimScratch,
    params: &LogGpParams,
    rule: GapRule,
    sink: &mut S,
) {
    scratch.dirty.sort_unstable();
    for i in 0..scratch.dirty.len() {
        let p = scratch.dirty[i] as usize;
        let mut inbox = std::mem::take(&mut scratch.inboxes[p]);
        // (arrival, id) is unique, so the unstable sort is deterministic.
        inbox.sort_unstable();
        for &inflight in &inbox {
            let msg = scratch.arena[inflight.slot as usize];
            let clock = &mut scratch.clocks[p];
            let start = clock.earliest_start_kind(params, rule, OpKind::Recv, inflight.arrival);
            let end = clock.commit_kind(params, rule, OpKind::Recv, start);
            let event = CommEvent {
                proc: p,
                kind: OpKind::Recv,
                peer: msg.src,
                bytes: msg.bytes,
                msg_id: msg.id,
                start,
                end,
            };
            sink.recv(&event, inflight.arrival, false);
            scratch.to_recv[p] -= 1;
        }
        inbox.clear();
        scratch.inboxes[p] = inbox; // hand the buffer back for reuse
        if scratch.to_recv[p] == 0 && scratch.has_sends(p) {
            scratch.ready.push(p as u32);
        }
    }
    scratch.dirty.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::ValidateOptions;
    use crate::{patterns, standard};
    use loggp::presets;

    fn meiko_cfg(procs: usize) -> SimConfig {
        SimConfig::new(presets::meiko_cs2(procs))
    }

    fn check(pattern: &CommPattern, cfg: &SimConfig, r: &SimResult) {
        // The worst-case algorithm interleaves program order across rounds,
        // so only the model constraints are checked, not send order.
        validate_with(pattern, cfg, r);
    }

    fn validate_with(pattern: &CommPattern, cfg: &SimConfig, r: &SimResult) {
        // Only the hard model constraints apply to the worst-case schedule:
        // rounds reorder sends across program order, and a message sent in a
        // later round can arrive before one received in an earlier round.
        crate::validate::validate_opts(
            pattern,
            cfg,
            &r.timeline,
            &ValidateOptions {
                check_send_program_order: false,
                check_recv_arrival_order: false,
            },
        )
        .unwrap();
    }

    #[test]
    fn single_message_same_as_standard() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1100);
        let cfg = meiko_cfg(2);
        let wc = simulate(&pattern, &cfg);
        let st = standard::simulate(&pattern, &cfg);
        assert_eq!(wc.finish, st.finish);
        assert_eq!(wc.forced_sends, 0);
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn chain_waits_for_upstream() {
        // 0 -> 1 -> 2: processor 1 must receive before sending, so the step
        // takes two full message times (minus no overlap at P1).
        let mut pattern = CommPattern::new(3);
        pattern.add(0, 1, 1);
        pattern.add(1, 2, 1);
        let cfg = meiko_cfg(3);
        let wc = simulate(&pattern, &cfg);
        let msg = cfg.params.message_cost(1);
        // Receive at P1 ends at msg; P1's send starts >= recv.start + g,
        // and its message needs o + L + o more.
        let recv1_start = cfg.params.arrival_time(Time::ZERO, 1);
        let send1_start = recv1_start + cfg.params.gap;
        assert_eq!(wc.finish, send1_start + msg);
        assert_eq!(wc.forced_sends, 0);
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn worst_case_never_faster_than_standard_on_dags() {
        let cfg = meiko_cfg(10);
        let pattern = patterns::figure3();
        let wc = simulate(&pattern, &cfg);
        let st = standard::simulate(&pattern, &cfg);
        assert!(
            wc.finish >= st.finish,
            "wc {} < std {}",
            wc.finish,
            st.finish
        );
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn ring_deadlock_is_broken() {
        let n = 6;
        let pattern = patterns::ring(n, 256);
        assert!(pattern.has_cycle());
        let cfg = meiko_cfg(n);
        let wc = simulate(&pattern, &cfg);
        assert!(wc.forced_sends >= 1, "cycle must force at least one send");
        assert_eq!(wc.timeline.len(), 2 * pattern.len());
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn forced_sends_deterministic_per_seed() {
        let pattern = patterns::ring(5, 64);
        let cfg = meiko_cfg(5).with_seed(7);
        let a = simulate(&pattern, &cfg);
        let b = simulate(&pattern, &cfg);
        assert_eq!(a.timeline.events(), b.timeline.events());
        assert_eq!(a.forced_sends, b.forced_sends);
    }

    #[test]
    fn all_messages_accounted_for() {
        let pattern = patterns::all_to_all(4, 128);
        let cfg = meiko_cfg(4);
        let wc = simulate(&pattern, &cfg);
        // all-to-all is cyclic: every processor waits on every other.
        assert!(wc.forced_sends > 0);
        assert_eq!(wc.timeline.len(), 2 * pattern.network_messages().count());
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn ready_times_respected() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1);
        let cfg = meiko_cfg(2);
        let delay = Time::from_us(50.0);
        let wc = simulate_from(&pattern, &cfg, &[delay, Time::ZERO]);
        assert_eq!(wc.timeline.events_for(0)[0].start, delay);
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn empty_pattern() {
        let pattern = CommPattern::new(3);
        let cfg = meiko_cfg(3);
        let wc = simulate(&pattern, &cfg);
        assert_eq!(wc.finish, Time::ZERO);
        assert_eq!(wc.forced_sends, 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let cfg = meiko_cfg(8).with_seed(11);
        let mut scratch = SimScratch::new();
        for pattern in [
            patterns::ring(8, 256),
            patterns::all_to_all(8, 64),
            patterns::ring(8, 1024),
        ] {
            let mut reused = SimResult::empty(8);
            simulate_with(
                &pattern,
                &cfg,
                &[Time::ZERO; 8],
                &mut |m, start| cfg.params.arrival_time(start, m.bytes),
                &mut reused,
                None,
                &mut scratch,
            );
            let fresh = simulate(&pattern, &cfg);
            assert_eq!(reused.timeline.events(), fresh.timeline.events());
            assert_eq!(reused.forced_sends, fresh.forced_sends);
        }
    }

    #[test]
    fn misbehaving_arrival_hook_is_clamped_not_unsound() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 4096);
        let cfg = meiko_cfg(2);
        let mut r = SimResult::empty(2);
        simulate_with(
            &pattern,
            &cfg,
            &[Time::ZERO; 2],
            &mut |_m, _start| Time::ZERO,
            &mut r,
            None,
            &mut SimScratch::new(),
        );
        let send = r.timeline.events_for(0)[0];
        let recv = r.timeline.events_for(1)[0];
        assert_eq!(recv.start, send.start + cfg.params.overhead);
    }
}
