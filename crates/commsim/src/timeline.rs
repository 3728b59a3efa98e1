//! Timelines: the output of the simulation algorithms.

use crate::observe::OpSink;
use loggp::{OpKind, Time};
use std::collections::BTreeMap;

/// One committed send or receive operation at a processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommEvent {
    /// Processor performing the operation.
    pub proc: usize,
    /// Send or receive.
    pub kind: OpKind,
    /// The other endpoint of the message.
    pub peer: usize,
    /// Message length in bytes.
    pub bytes: usize,
    /// Identifier of the message within the input pattern.
    pub msg_id: usize,
    /// When the operation starts occupying the CPU.
    pub start: Time,
    /// When the CPU is released (`start + o`).
    pub end: Time,
}

/// The full schedule of send/receive operations produced by a simulation.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    procs: usize,
    events: Vec<CommEvent>,
}

impl Timeline {
    /// An empty timeline over `procs` processors.
    pub fn new(procs: usize) -> Self {
        Timeline {
            procs,
            events: Vec::new(),
        }
    }

    /// Append an event (events are recorded in commit order; use
    /// [`Timeline::sorted_by_proc`] for per-processor chronological views).
    ///
    /// # Panics
    ///
    /// If the event references a processor outside this timeline — a real
    /// check, not a `debug_assert!`, so a misbehaving simulator or arrival
    /// hook cannot silently produce an out-of-range schedule in release
    /// builds (downstream per-processor indexing would be unsound).
    pub fn push(&mut self, ev: CommEvent) {
        assert!(
            ev.proc < self.procs && ev.peer < self.procs,
            "event references processor out of range (proc {} / peer {} of {})",
            ev.proc,
            ev.peer,
            self.procs
        );
        self.events.push(ev);
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// All events, in the order they were committed by the simulator.
    pub fn events(&self) -> &[CommEvent] {
        &self.events
    }

    /// Events of one processor, chronologically.
    ///
    /// This scans the whole timeline (O(E)); callers that need *every*
    /// processor's view must use [`Timeline::sorted_by_proc`] once instead
    /// of looping this per processor (O(E·P)).
    pub fn events_for(&self, proc: usize) -> Vec<CommEvent> {
        let mut evs: Vec<CommEvent> = self
            .events
            .iter()
            .filter(|e| e.proc == proc)
            .copied()
            .collect();
        evs.sort_by_key(|e| (e.start, e.end, e.msg_id));
        evs
    }

    /// All events grouped per processor, chronologically. One pass over
    /// the timeline (a counting pass sizes each bucket exactly, so no
    /// bucket ever reallocates), then one sort per processor.
    pub fn sorted_by_proc(&self) -> Vec<Vec<CommEvent>> {
        let mut counts = vec![0usize; self.procs];
        for e in &self.events {
            counts[e.proc] += 1;
        }
        let mut per: Vec<Vec<CommEvent>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for e in &self.events {
            per[e.proc].push(*e);
        }
        for evs in &mut per {
            evs.sort_by_key(|e| (e.start, e.end, e.msg_id));
        }
        per
    }

    /// The time the last operation of the whole step completes — the
    /// communication step's running time.
    pub fn completion(&self) -> Time {
        self.events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The time each processor finishes its last operation.
    pub fn per_proc_completion(&self) -> Vec<Time> {
        let mut done = vec![Time::ZERO; self.procs];
        for e in &self.events {
            done[e.proc] = done[e.proc].max(e.end);
        }
        done
    }

    /// Processors that finish *last* (the critical processors; the paper
    /// names them when discussing Figures 4 and 5).
    pub fn critical_procs(&self) -> Vec<usize> {
        let finish = self.completion();
        let per = self.per_proc_completion();
        (0..self.procs)
            .filter(|&p| per[p] == finish && !finish.is_zero())
            .collect()
    }

    /// Total CPU time processor `proc` spends inside send/receive overhead.
    pub fn busy_time(&self, proc: usize) -> Time {
        self.events
            .iter()
            .filter(|e| e.proc == proc)
            .map(|e| e.end - e.start)
            .sum()
    }

    /// For every message id, its `(send event, receive event)` pair, if the
    /// timeline contains both. Keyed by a `BTreeMap` so iteration order is
    /// the message-id order — validation diagnostics and stats that walk
    /// the pairs are deterministic across runs (a `HashMap` here made
    /// error ordering depend on hash-seed iteration order).
    pub fn message_pairs(&self) -> BTreeMap<usize, (Option<CommEvent>, Option<CommEvent>)> {
        let mut map: BTreeMap<usize, (Option<CommEvent>, Option<CommEvent>)> = BTreeMap::new();
        for e in &self.events {
            let entry = map.entry(e.msg_id).or_default();
            match e.kind {
                OpKind::Send => entry.0 = Some(*e),
                OpKind::Recv => entry.1 = Some(*e),
            }
        }
        map
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A simulation result: the timeline plus its completion time. As an
/// [`OpSink`] it records every committed operation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The committed operation schedule.
    pub timeline: Timeline,
    /// `timeline.completion()`, cached.
    pub finish: Time,
    /// Number of deadlocks the worst-case algorithm had to break by forcing
    /// a transmission (always 0 for the standard algorithm and for acyclic
    /// patterns).
    pub forced_sends: usize,
}

impl SimResult {
    /// Wrap a finished timeline.
    pub fn new(timeline: Timeline) -> Self {
        let finish = timeline.completion();
        SimResult {
            timeline,
            finish,
            forced_sends: 0,
        }
    }

    /// An empty result over `procs` processors, to record a simulation.
    pub fn empty(procs: usize) -> Self {
        SimResult::new(Timeline::new(procs))
    }

    fn push(&mut self, ev: &CommEvent) {
        self.finish = self.finish.max(ev.end);
        self.timeline.push(*ev);
    }
}

/// Every send, retransmission and receive becomes a timeline event;
/// forced sends are counted.
impl OpSink for SimResult {
    fn send(&mut self, ev: &CommEvent, forced: bool) {
        self.push(ev);
        self.forced_sends += usize::from(forced);
    }

    fn recv(&mut self, ev: &CommEvent, _arrival: Time, _drain: bool) {
        self.push(ev);
    }

    fn retransmit(&mut self, ev: &CommEvent, _attempt: u64, _rto: Time) {
        self.push(ev);
    }
}

/// Per-processor completion data of one communication step: everything
/// the whole-program fold consumes from it. Every step backend writes one
/// (as the step algorithms' [`OpSink`] after [`StepEnds::reset`], or
/// directly when re-timing a [`Recording`](crate::Recording)), and the
/// fold shifts the previous step's to answer a step that repeats it
/// exactly. Reusable across steps: the buffers are cleared, not
/// reallocated.
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
}

/// Every operation raises its processor's `comm_done`, a receive also its
/// `last_recv_done`; forced sends are counted.
impl OpSink for StepEnds {
    fn send(&mut self, ev: &CommEvent, forced: bool) {
        self.comm_done[ev.proc] = self.comm_done[ev.proc].max(ev.end);
        self.forced_sends += usize::from(forced);
    }

    fn recv(&mut self, ev: &CommEvent, _arrival: Time, _drain: bool) {
        self.comm_done[ev.proc] = self.comm_done[ev.proc].max(ev.end);
        self.last_recv_done[ev.proc] = self.last_recv_done[ev.proc].max(ev.end);
    }

    fn retransmit(&mut self, ev: &CommEvent, _attempt: u64, _rto: Time) {
        self.comm_done[ev.proc] = self.comm_done[ev.proc].max(ev.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(proc: usize, kind: OpKind, start_us: f64, end_us: f64, msg_id: usize) -> CommEvent {
        CommEvent {
            proc,
            kind,
            peer: 0,
            bytes: 1,
            msg_id,
            start: Time::from_us(start_us),
            end: Time::from_us(end_us),
        }
    }

    #[test]
    fn completion_and_critical() {
        let mut t = Timeline::new(3);
        t.push(ev(0, OpKind::Send, 0.0, 6.0, 0));
        t.push(ev(1, OpKind::Recv, 40.0, 46.0, 0));
        t.push(ev(2, OpKind::Recv, 44.0, 46.0, 1));
        assert_eq!(t.completion(), Time::from_us(46.0));
        assert_eq!(t.critical_procs(), vec![1, 2]);
        assert_eq!(
            t.per_proc_completion(),
            vec![Time::from_us(6.0), Time::from_us(46.0), Time::from_us(46.0)]
        );
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new(2);
        assert_eq!(t.completion(), Time::ZERO);
        assert!(t.critical_procs().is_empty());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn busy_time_sums_overheads() {
        let mut t = Timeline::new(1);
        t.push(ev(0, OpKind::Send, 0.0, 6.0, 0));
        t.push(ev(0, OpKind::Recv, 16.0, 22.0, 1));
        assert_eq!(t.busy_time(0), Time::from_us(12.0));
    }

    #[test]
    fn events_for_sorts_chronologically() {
        let mut t = Timeline::new(1);
        t.push(ev(0, OpKind::Recv, 16.0, 22.0, 1));
        t.push(ev(0, OpKind::Send, 0.0, 6.0, 0));
        let evs = t.events_for(0);
        assert_eq!(evs[0].msg_id, 0);
        assert_eq!(evs[1].msg_id, 1);
    }

    #[test]
    fn message_pairs_joins_send_and_recv() {
        let mut t = Timeline::new(2);
        t.push(ev(0, OpKind::Send, 0.0, 6.0, 7));
        t.push(ev(1, OpKind::Recv, 40.0, 46.0, 7));
        let pairs = t.message_pairs();
        let (s, r) = pairs[&7];
        assert_eq!(s.unwrap().proc, 0);
        assert_eq!(r.unwrap().proc, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_proc_in_release_too() {
        let mut t = Timeline::new(2);
        t.push(ev(5, OpKind::Send, 0.0, 1.0, 0));
    }

    #[test]
    fn message_pairs_iterates_in_msg_id_order() {
        let mut t = Timeline::new(2);
        for id in [9usize, 3, 7, 1, 5] {
            t.push(ev(0, OpKind::Send, id as f64, id as f64 + 1.0, id));
            t.push(ev(1, OpKind::Recv, id as f64 + 2.0, id as f64 + 3.0, id));
        }
        let ids: Vec<usize> = t.message_pairs().keys().copied().collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn sorted_by_proc_matches_per_proc_events_for() {
        let mut t = Timeline::new(4);
        for i in 0..40 {
            t.push(ev(i % 4, OpKind::Send, (40 - i) as f64, (41 - i) as f64, i));
        }
        let grouped = t.sorted_by_proc();
        assert_eq!(grouped.len(), 4);
        for (p, group) in grouped.iter().enumerate() {
            assert_eq!(group, &t.events_for(p));
        }
    }

    #[test]
    fn sorted_by_proc_is_single_pass_on_large_all_to_all() {
        // Perf-shaped regression: on an all-to-all-sized timeline (every
        // processor pair exchanges a message) the grouped view must be
        // built in one pass with exactly-sized buckets — the counting pass
        // reserves each bucket to its final length, so no bucket ever
        // reallocates. Looping `events_for` over all processors here would
        // be O(E·P); `sorted_by_proc` stays O(E + Σ sort).
        let procs = 128;
        let mut t = Timeline::new(procs);
        let mut id = 0usize;
        for src in 0..procs {
            for dst in 0..procs {
                if src == dst {
                    continue;
                }
                t.push(ev(src, OpKind::Send, id as f64, id as f64 + 1.0, id));
                t.push(ev(dst, OpKind::Recv, id as f64 + 2.0, id as f64 + 3.0, id));
                id += 1;
            }
        }
        assert_eq!(t.len(), 2 * procs * (procs - 1));
        let grouped = t.sorted_by_proc();
        assert_eq!(grouped.len(), procs);
        for (p, group) in grouped.iter().enumerate() {
            // Every processor sends to and receives from all others.
            assert_eq!(group.len(), 2 * (procs - 1));
            // Exact sizing: the counting pass reserved the final length,
            // so the single fill pass never grew the bucket.
            assert_eq!(group.capacity(), group.len(), "bucket {p} reallocated");
        }
        // Spot-check a few processors against the per-proc view.
        for p in [0, 1, procs / 2, procs - 1] {
            assert_eq!(grouped[p], t.events_for(p));
        }
    }

    #[test]
    fn sim_result_caches_finish() {
        let mut t = Timeline::new(1);
        t.push(ev(0, OpKind::Send, 0.0, 6.0, 0));
        let r = SimResult::new(t);
        assert_eq!(r.finish, Time::from_us(6.0));
        assert_eq!(r.forced_sends, 0);
    }
}
