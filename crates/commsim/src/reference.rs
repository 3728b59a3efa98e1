//! Reference implementations of both simulation algorithms.
//!
//! These are the original, straightforward encodings of the paper's
//! Figure 2 and §4.2 algorithms — per-processor `VecDeque` send queues
//! rebuilt per call, an O(P) scan for the minimum-time processor on every
//! committed operation, and a fresh tie vector per iteration. The
//! optimized loops in [`crate::standard`] and [`crate::worstcase`] must
//! produce **bit-identical** timelines to these and report the same
//! operations to their sinks; the equivalence proptests in
//! `tests/equiv.rs` pin that, and `bench_sim` measures the speedup of the
//! optimized loops against these baselines.
//!
//! Nothing in the production path calls this module; it exists purely as a
//! differential oracle and a benchmark baseline.

use crate::faults::{transmit, StepFaults};
use crate::observe::OpSink;
use crate::pattern::{CommPattern, Message};
use crate::timeline::{CommEvent, SimResult};
use crate::{SimConfig, TieBreak};
use loggp::{OpKind, ProcClock, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A message in flight, keyed by arrival time for the receive queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct InFlight {
    arrival: Time,
    msg: Message,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.msg.id).cmp(&(other.arrival, other.msg.id))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct StdProcState {
    clock: ProcClock,
    send_queue: VecDeque<Message>,
    recv_queue: BinaryHeap<Reverse<InFlight>>,
}

/// The reference standard algorithm with per-processor ready times.
pub fn standard_simulate_from(pattern: &CommPattern, cfg: &SimConfig, ready: &[Time]) -> SimResult {
    let params = cfg.params;
    let mut result = SimResult::empty(pattern.procs());
    standard_simulate_faulted(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        &mut result,
        None,
    );
    result
}

/// The reference standard algorithm (paper Figure 2), full entry point:
/// every committed operation goes to `sink`, in commit order.
// Indices double as processor ids throughout.
#[allow(clippy::needless_range_loop)]
pub fn standard_simulate_faulted<S: OpSink>(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    sink: &mut S,
    faults: Option<&dyn StepFaults>,
) {
    assert_eq!(ready.len(), pattern.procs(), "one ready time per processor");
    let params = &cfg.params;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let mut procs: Vec<StdProcState> = pattern
        .send_queues()
        .into_iter()
        .zip(ready)
        .map(|(send_queue, &r)| {
            let mut clock = ProcClock::new();
            clock.advance_to(r);
            StdProcState {
                clock,
                send_queue,
                recv_queue: BinaryHeap::new(),
            }
        })
        .collect();

    // Main loop: while there are processors that want to send.
    loop {
        // min_proc = processor with minimum ctime among those with sends left.
        let rule = cfg.gap_rule;
        let min_time = procs
            .iter()
            .filter(|p| !p.send_queue.is_empty())
            .map(|p| p.clock.ready_at_kind(params, rule, OpKind::Send))
            .min();
        let Some(min_time) = min_time else { break };
        let tied: Vec<usize> = (0..procs.len())
            .filter(|&i| {
                !procs[i].send_queue.is_empty()
                    && procs[i].clock.ready_at_kind(params, rule, OpKind::Send) == min_time
            })
            .collect();
        let min_proc = match cfg.tie_break {
            TieBreak::LowestId => tied[0],
            TieBreak::Random => tied[rng.gen_range(0..tied.len())],
        };

        // Candidate start times for the two alternatives.
        let state = &procs[min_proc];
        let start_send = state.clock.ready_at_kind(params, rule, OpKind::Send);
        let start_recv = match state.recv_queue.peek() {
            Some(Reverse(inflight)) => {
                state
                    .clock
                    .earliest_start_kind(params, rule, OpKind::Recv, inflight.arrival)
            }
            None => Time::MAX, // paper: start_recv = infinity
        };

        if start_send < start_recv {
            // Perform SEND: strict '<' gives receives priority on ties.
            let msg = procs[min_proc]
                .send_queue
                .pop_front()
                .expect("send queue non-empty");
            let clock = &mut procs[min_proc].clock;
            let final_start = transmit(clock, cfg, min_proc, &msg, false, faults, sink);
            let arrival = arrival_of(&msg, final_start).max(final_start + params.overhead);
            procs[msg.dst]
                .recv_queue
                .push(Reverse(InFlight { arrival, msg }));
        } else {
            // Perform RECEIVE.
            let Reverse(inflight) = procs[min_proc]
                .recv_queue
                .pop()
                .expect("receive queue non-empty");
            let end = procs[min_proc]
                .clock
                .commit_kind(params, rule, OpKind::Recv, start_recv);
            let event = CommEvent {
                proc: min_proc,
                kind: OpKind::Recv,
                peer: inflight.msg.src,
                bytes: inflight.msg.bytes,
                msg_id: inflight.msg.id,
                start: start_recv,
                end,
            };
            sink.recv(&event, inflight.arrival, false);
        }
    }

    // Final phase: all sends done; every processor drains its receives in
    // arrival order.
    for i in 0..procs.len() {
        while let Some(Reverse(inflight)) = procs[i].recv_queue.pop() {
            let start = procs[i].clock.earliest_start_kind(
                params,
                cfg.gap_rule,
                OpKind::Recv,
                inflight.arrival,
            );
            let end = procs[i]
                .clock
                .commit_kind(params, cfg.gap_rule, OpKind::Recv, start);
            let event = CommEvent {
                proc: i,
                kind: OpKind::Recv,
                peer: inflight.msg.src,
                bytes: inflight.msg.bytes,
                msg_id: inflight.msg.id,
                start,
                end,
            };
            sink.recv(&event, inflight.arrival, true);
        }
    }
}

struct WcProcState {
    clock: ProcClock,
    send_queue: VecDeque<Message>,
    /// Messages sent to this processor but not yet received, with arrivals.
    inbox: Vec<(Time, Message)>,
    /// Network messages this processor still has to *receive* before it is
    /// allowed to send ("messages to receive" counter).
    to_recv: usize,
}

/// The reference worst-case algorithm with per-processor ready times.
pub fn worstcase_simulate_from(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
) -> SimResult {
    let params = cfg.params;
    let mut result = SimResult::empty(pattern.procs());
    worstcase_simulate_faulted(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        &mut result,
        None,
    );
    result
}

/// The reference overestimation algorithm (paper §4.2), full entry point:
/// every committed operation goes to `sink`, in commit order.
// Indices double as processor ids throughout.
#[allow(clippy::needless_range_loop)]
pub fn worstcase_simulate_faulted<S: OpSink>(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    sink: &mut S,
    faults: Option<&dyn StepFaults>,
) {
    assert_eq!(ready.len(), pattern.procs(), "one ready time per processor");
    let params = &cfg.params;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let recv_counts = pattern.recv_counts();
    let mut procs: Vec<WcProcState> = pattern
        .send_queues()
        .into_iter()
        .zip(ready)
        .zip(&recv_counts)
        .map(|((send_queue, &r), &to_recv)| {
            let mut clock = ProcClock::new();
            clock.advance_to(r);
            WcProcState {
                clock,
                send_queue,
                inbox: Vec::new(),
                to_recv,
            }
        })
        .collect();

    let send_msg = |procs: &mut Vec<WcProcState>,
                    sink: &mut S,
                    p: usize,
                    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
                    forced: bool| {
        let msg = procs[p]
            .send_queue
            .pop_front()
            .expect("send queue non-empty");
        let final_start = transmit(&mut procs[p].clock, cfg, p, &msg, forced, faults, sink);
        let arrival = arrival_of(&msg, final_start).max(final_start + params.overhead);
        procs[msg.dst].inbox.push((arrival, msg));
    };

    loop {
        let sends_remain = procs.iter().any(|p| !p.send_queue.is_empty());
        let recvs_remain = procs.iter().any(|p| !p.inbox.is_empty());
        if !sends_remain && !recvs_remain {
            break;
        }

        // Part 1: every processor that has received everything it expects
        // sends all of its messages.
        let eligible: Vec<usize> = (0..procs.len())
            .filter(|&p| procs[p].to_recv == 0 && !procs[p].send_queue.is_empty())
            .collect();

        if !eligible.is_empty() {
            for p in eligible {
                while !procs[p].send_queue.is_empty() {
                    send_msg(&mut procs, sink, p, arrival_of, false);
                }
            }
        } else if recvs_remain {
            // Nothing to send yet but deliveries are pending; fall through
            // to part 2 so the waiting processors can make progress.
        } else {
            // Deadlock: messages remain but every would-be sender is still
            // waiting on a cycle. Force one transmission from a randomly
            // chosen blocked processor.
            let blocked: Vec<usize> = (0..procs.len())
                .filter(|&p| !procs[p].send_queue.is_empty())
                .collect();
            debug_assert!(!blocked.is_empty());
            let victim = blocked[rng.gen_range(0..blocked.len())];
            send_msg(&mut procs, sink, victim, arrival_of, true);
        }

        // Part 2: every destination performs the receive operations for the
        // messages delivered so far, in arrival order.
        for p in 0..procs.len() {
            if procs[p].inbox.is_empty() {
                continue;
            }
            procs[p]
                .inbox
                .sort_by_key(|(arrival, msg)| (*arrival, msg.id));
            for (arrival, msg) in std::mem::take(&mut procs[p].inbox) {
                let start =
                    procs[p]
                        .clock
                        .earliest_start_kind(params, cfg.gap_rule, OpKind::Recv, arrival);
                let end = procs[p]
                    .clock
                    .commit_kind(params, cfg.gap_rule, OpKind::Recv, start);
                let event = CommEvent {
                    proc: p,
                    kind: OpKind::Recv,
                    peer: msg.src,
                    bytes: msg.bytes,
                    msg_id: msg.id,
                    start,
                    end,
                };
                sink.recv(&event, arrival, false);
                procs[p].to_recv -= 1;
            }
        }
    }
}
