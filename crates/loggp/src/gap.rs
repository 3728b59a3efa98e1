//! The gap rules (paper §3, Figure 1) and per-processor clocks.
//!
//! LogGP specifies the gap `g` only between consecutive sends and between
//! consecutive receives. Rugina & Schauser additionally assume a gap
//! between a send and the next receive and between a receive and the next
//! send, so that **any** two consecutive operations at one processor have
//! their start times separated by at least `g` — the
//! [`GapRule::Extended`] rule this workspace defaults to. The classic
//! [`GapRule::SameKindOnly`] reading is retained as a model ablation:
//! there, mixed pairs are constrained only by the single-port rule (the
//! `o`-long operations may not overlap).
//!
//! [`ProcClock`] tracks exactly this per-processor state for the
//! simulation algorithms in the `commsim` crate.

use crate::params::LogGpParams;
use crate::time::Time;

/// The kind of a communication operation at a processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Transmission of a message (costs `o`, engages the network port).
    Send,
    /// Reception of a message (costs `o`, engages the network port).
    Recv,
}

impl OpKind {
    /// Short label used by the Gantt renderer.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Send => "S",
            OpKind::Recv => "R",
        }
    }
}

/// Which pairs of consecutive operations the gap `g` separates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GapRule {
    /// The paper's extension (Figure 1): `g` between *all four* pairings.
    /// Default throughout the workspace.
    #[default]
    Extended,
    /// Classic LogGP: `g` only between consecutive sends and between
    /// consecutive receives; mixed pairs are limited only by the
    /// single-port (no-overlap) rule.
    SameKindOnly,
}

/// Per-processor communication clock.
///
/// Tracks when the previous operations started and ended so the next
/// operation can be scheduled at the earliest instant that satisfies the
/// active [`GapRule`] and the single-port rule (`next.start ≥ prev.end`).
///
/// This is the `ctime` variable of the paper's Figure 2, enriched with
/// per-kind operation starts so both gap rules can be enforced exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcClock {
    last_send_start: Option<Time>,
    last_recv_start: Option<Time>,
    last_op_end: Time,
}

impl ProcClock {
    /// A clock for a processor that has not yet communicated; its first
    /// operation may start at [`Time::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Start of the most recent operation of either kind, if any.
    fn last_any_start(&self) -> Option<Time> {
        match (self.last_send_start, self.last_recv_start) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Earliest instant the next operation of `kind` may *start* under
    /// `rule` and the single-port rule. This is the processor's "current
    /// simulation time" (`ctime` in the paper) for that operation kind.
    #[inline]
    pub fn ready_at_kind(&self, params: &LogGpParams, rule: GapRule, kind: OpKind) -> Time {
        let gap_anchor = match rule {
            GapRule::Extended => self.last_any_start(),
            GapRule::SameKindOnly => match kind {
                OpKind::Send => self.last_send_start,
                OpKind::Recv => self.last_recv_start,
            },
        };
        match gap_anchor {
            None => self.last_op_end,
            Some(s) => (s + params.gap).max(self.last_op_end),
        }
    }

    /// [`ProcClock::ready_at_kind`] under the default extended rule, where
    /// the operation kind is irrelevant.
    #[inline]
    pub fn ready_at(&self, params: &LogGpParams) -> Time {
        self.ready_at_kind(params, GapRule::Extended, OpKind::Send)
    }

    /// Earliest feasible start for an operation of `kind` that
    /// additionally cannot begin before `available` (e.g. a receive before
    /// its message arrives).
    #[inline]
    pub fn earliest_start_kind(
        &self,
        params: &LogGpParams,
        rule: GapRule,
        kind: OpKind,
        available: Time,
    ) -> Time {
        self.ready_at_kind(params, rule, kind).max(available)
    }

    /// [`ProcClock::earliest_start_kind`] under the extended rule.
    #[inline]
    pub fn earliest_start(&self, params: &LogGpParams, available: Time) -> Time {
        self.earliest_start_kind(params, GapRule::Extended, OpKind::Recv, available)
    }

    /// Record that an operation of `kind` started at `start` (it occupies
    /// the CPU until `start + o`). Returns the operation's end time.
    ///
    /// # Panics
    /// In debug builds, panics if `start` violates `rule`, which would
    /// indicate a simulator bug.
    #[inline]
    pub fn commit_kind(
        &mut self,
        params: &LogGpParams,
        rule: GapRule,
        kind: OpKind,
        start: Time,
    ) -> Time {
        debug_assert!(
            start >= self.ready_at_kind(params, rule, kind),
            "operation start {start} violates gap rule (ready at {})",
            self.ready_at_kind(params, rule, kind)
        );
        let end = start + params.overhead;
        match kind {
            OpKind::Send => self.last_send_start = Some(start),
            OpKind::Recv => self.last_recv_start = Some(start),
        }
        self.last_op_end = end;
        end
    }

    /// [`ProcClock::commit_kind`] under the extended rule (kind recorded
    /// as a send; under the extended rule the distinction is irrelevant).
    #[inline]
    pub fn commit(&mut self, params: &LogGpParams, start: Time) -> Time {
        self.commit_kind(params, GapRule::Extended, OpKind::Send, start)
    }

    /// Force the clock forward so that no operation may start before `t`
    /// (used when a computation phase occupies the processor until `t`).
    #[inline]
    pub fn advance_to(&mut self, t: Time) {
        if t > self.last_op_end {
            self.last_op_end = t;
        }
    }

    /// Time the last committed operation ended ([`Time::ZERO`] if none).
    #[inline]
    pub fn last_end(&self) -> Time {
        self.last_op_end
    }

    /// Start of the last committed operation, if any.
    #[inline]
    pub fn last_start(&self) -> Option<Time> {
        self.last_any_start()
    }
}

/// Start times of the two operations in a Figure 1 pairing under `rule`,
/// with the first operation starting at time zero and the second issued
/// as early as the model allows. Returns `(first_start, second_start)`.
pub fn pairing_starts_ruled(
    params: &LogGpParams,
    rule: GapRule,
    first: OpKind,
    second: OpKind,
) -> (Time, Time) {
    let mut clock = ProcClock::new();
    let s1 = clock.earliest_start_kind(params, rule, first, Time::ZERO);
    clock.commit_kind(params, rule, first, s1);
    let s2 = clock.earliest_start_kind(params, rule, second, Time::ZERO);
    (s1, s2)
}

/// All four Figure 1 pairings with their operation start separations under
/// the given rule.
pub fn figure1_pairings_ruled(params: &LogGpParams, rule: GapRule) -> Vec<(OpKind, OpKind, Time)> {
    use OpKind::*;
    [(Send, Send), (Recv, Recv), (Recv, Send), (Send, Recv)]
        .into_iter()
        .map(|(a, b)| {
            let (s1, s2) = pairing_starts_ruled(params, rule, a, b);
            (a, b, s2 - s1)
        })
        .collect()
}

/// All four Figure 1 pairings under the paper's extended rule.
pub fn figure1_pairings(params: &LogGpParams) -> Vec<(OpKind, OpKind, Time)> {
    figure1_pairings_ruled(params, GapRule::Extended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn first_op_starts_at_zero() {
        let p = presets::meiko_cs2(8);
        let clock = ProcClock::new();
        assert_eq!(clock.ready_at(&p), Time::ZERO);
    }

    #[test]
    fn consecutive_ops_separated_by_gap() {
        let p = presets::meiko_cs2(8); // g = 16 > o = 6
        let mut clock = ProcClock::new();
        let s1 = clock.earliest_start(&p, Time::ZERO);
        clock.commit(&p, s1);
        let s2 = clock.earliest_start(&p, Time::ZERO);
        assert_eq!(s2 - s1, p.gap);
    }

    #[test]
    fn overhead_dominates_when_gap_small() {
        // g == o here, so separation = o = g.
        let p = LogGpParams::from_us(5.0, 8.0, 8.0, 0.0, 2);
        let mut clock = ProcClock::new();
        clock.commit(&p, Time::ZERO);
        assert_eq!(clock.ready_at(&p), Time::from_us(8.0));
    }

    #[test]
    fn availability_delays_start() {
        let p = presets::meiko_cs2(8);
        let mut clock = ProcClock::new();
        clock.commit(&p, Time::ZERO);
        // Message arrives well after the gap would allow.
        let arrival = Time::from_us(100.0);
        assert_eq!(clock.earliest_start(&p, arrival), arrival);
        // Or before it: gap wins.
        assert_eq!(clock.earliest_start(&p, Time::from_us(1.0)), p.gap);
    }

    #[test]
    fn commit_returns_end() {
        let p = presets::meiko_cs2(8);
        let mut clock = ProcClock::new();
        let end = clock.commit(&p, Time::from_us(3.0));
        assert_eq!(end, Time::from_us(3.0) + p.overhead);
        assert_eq!(clock.last_end(), end);
        assert_eq!(clock.last_start(), Some(Time::from_us(3.0)));
    }

    #[test]
    fn advance_to_blocks_earlier_ops() {
        let p = presets::meiko_cs2(8);
        let mut clock = ProcClock::new();
        clock.advance_to(Time::from_us(50.0));
        assert_eq!(clock.ready_at(&p), Time::from_us(50.0));
        // Advancing backwards is a no-op.
        clock.advance_to(Time::from_us(10.0));
        assert_eq!(clock.ready_at(&p), Time::from_us(50.0));
    }

    #[test]
    fn extended_rule_gaps_all_four_pairings() {
        let p = presets::meiko_cs2(8);
        let pairings = figure1_pairings(&p);
        assert_eq!(pairings.len(), 4);
        for (a, b, sep) in pairings {
            assert_eq!(sep, p.gap, "{a:?}->{b:?}");
        }
    }

    #[test]
    fn same_kind_rule_gaps_only_matching_pairs() {
        let p = presets::meiko_cs2(8); // g=16, o=6
        for (a, b, sep) in figure1_pairings_ruled(&p, GapRule::SameKindOnly) {
            if a == b {
                assert_eq!(sep, p.gap, "{a:?}->{b:?}");
            } else {
                // Mixed pairs: only the single-port rule applies.
                assert_eq!(sep, p.overhead, "{a:?}->{b:?}");
            }
        }
    }

    #[test]
    fn same_kind_rule_tracks_kinds_independently() {
        let p = presets::meiko_cs2(8);
        let rule = GapRule::SameKindOnly;
        let mut clock = ProcClock::new();
        // Send at 0; a receive may go at o=6; the *next send* still waits
        // for the send-send gap from t=0.
        clock.commit_kind(&p, rule, OpKind::Send, Time::ZERO);
        let r = clock.ready_at_kind(&p, rule, OpKind::Recv);
        assert_eq!(r, p.overhead);
        clock.commit_kind(&p, rule, OpKind::Recv, r);
        assert_eq!(clock.ready_at_kind(&p, rule, OpKind::Send), p.gap);
        // And the next receive waits for the recv-recv gap from t=6.
        assert_eq!(clock.ready_at_kind(&p, rule, OpKind::Recv), r + p.gap);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violates gap rule")]
    fn committing_too_early_panics_in_debug() {
        let p = presets::meiko_cs2(8);
        let mut clock = ProcClock::new();
        clock.commit(&p, Time::ZERO);
        clock.commit(&p, Time::from_us(1.0)); // < g after the first
    }
}
