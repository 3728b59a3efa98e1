//! Post-hoc analysis of simulated timelines: where did the time go?
//!
//! The paper's figures report only completion times; these statistics
//! expose the structure underneath — per-processor busy/idle split,
//! per-message latency decomposition (time on the wire vs. time waiting in
//! the destination's queue), and port utilization — which is what one
//! actually inspects when a prediction looks off.

use crate::pattern::CommPattern;
use crate::timeline::Timeline;
use crate::SimConfig;
use loggp::{OpKind, Time};

/// Per-processor activity summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcStats {
    /// Processor id.
    pub proc: usize,
    /// Number of sends performed.
    pub sends: usize,
    /// Number of receives performed.
    pub recvs: usize,
    /// Total CPU time inside operation overheads.
    pub busy: Time,
    /// Completion time of this processor's last operation.
    pub finish: Time,
    /// `finish − busy`: time the processor was idle (waiting on arrivals
    /// or on the gap) before its last operation completed.
    pub idle: Time,
}

impl ProcStats {
    /// `busy / finish`, in `[0, 1]`; 1.0 for processors with no events.
    pub fn utilization(&self) -> f64 {
        if self.finish.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / self.finish.as_secs_f64()
        }
    }
}

/// One message's end-to-end timing decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageStats {
    /// Message id in the pattern.
    pub msg_id: usize,
    /// Time from send start to (modeled) arrival at the destination:
    /// `o + (k−1)G + L` under pure LogGP.
    pub flight: Time,
    /// Time the message waited at the destination between arrival and the
    /// start of its receive operation (queueing caused by the gap rule and
    /// by competing operations).
    pub queueing: Time,
    /// Full end-to-end time: send start to receive end.
    pub end_to_end: Time,
}

/// Everything [`analyze`] computes.
#[derive(Clone, Debug)]
pub struct TimelineStats {
    /// Per-processor summaries (indexed by processor id).
    pub procs: Vec<ProcStats>,
    /// Per-message decompositions, ordered by message id.
    pub messages: Vec<MessageStats>,
    /// The step's completion time.
    pub completion: Time,
}

impl TimelineStats {
    /// Mean port utilization over processors that communicated at all.
    pub fn mean_utilization(&self) -> f64 {
        let active: Vec<&ProcStats> = self
            .procs
            .iter()
            .filter(|p| p.sends + p.recvs > 0)
            .collect();
        if active.is_empty() {
            return 1.0;
        }
        active.iter().map(|p| p.utilization()).sum::<f64>() / active.len() as f64
    }

    /// Largest per-message queueing delay (0 if no messages).
    pub fn max_queueing(&self) -> Time {
        self.messages
            .iter()
            .map(|m| m.queueing)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Total queueing across messages — the contention the LogGP *formulas*
    /// of regular patterns can't see but the simulation derives.
    pub fn total_queueing(&self) -> Time {
        self.messages.iter().map(|m| m.queueing).sum()
    }
}

/// Record a step's [`TimelineStats`] into a metrics
/// [`Registry`](predsim_obs::Registry): per-processor busy/idle
/// picoseconds and operation counts as labelled counters, plus step-level
/// completion and queueing figures. Counters accumulate across steps, so calling this once per
/// step yields whole-program per-processor totals.
pub fn record_metrics(stats: &TimelineStats, registry: &predsim_obs::Registry) {
    for ps in &stats.procs {
        let proc = ps.proc.to_string();
        let labels: &[(&str, &str)] = &[("proc", &proc)];
        registry
            .counter_with(
                "predsim_proc_busy_ps_total",
                labels,
                "virtual ps the processor spent inside send/receive overheads",
            )
            .add(ps.busy.as_ps());
        registry
            .counter_with(
                "predsim_proc_idle_ps_total",
                labels,
                "virtual ps the processor spent waiting before its last operation",
            )
            .add(ps.idle.as_ps());
        registry
            .counter_with(
                "predsim_proc_sends_total",
                labels,
                "send operations performed",
            )
            .add(ps.sends as u64);
        registry
            .counter_with(
                "predsim_proc_recvs_total",
                labels,
                "receive operations performed",
            )
            .add(ps.recvs as u64);
    }
    registry
        .counter_with(
            "predsim_steps_simulated_total",
            &[],
            "communication steps recorded into this registry",
        )
        .inc();
    registry
        .counter_with(
            "predsim_queueing_ps_total",
            &[],
            "total virtual ps messages waited in destination queues",
        )
        .add(stats.total_queueing().as_ps());
    registry
        .gauge(
            "predsim_step_completion_ps_max",
            "largest step completion time seen",
        )
        .set_max(stats.completion.as_ps());
    registry
        .histogram(
            "predsim_step_completion_ps",
            "per-step completion times",
            &predsim_obs::default_ps_buckets(),
        )
        .observe_time(stats.completion);
}

/// Analyze a timeline produced for `pattern` under `cfg`.
pub fn analyze(pattern: &CommPattern, cfg: &SimConfig, timeline: &Timeline) -> TimelineStats {
    let params = &cfg.params;
    let mut procs = Vec::with_capacity(timeline.procs());
    for (proc, evs) in timeline.sorted_by_proc().into_iter().enumerate() {
        let sends = evs.iter().filter(|e| e.kind == OpKind::Send).count();
        let recvs = evs.len() - sends;
        let busy: Time = evs.iter().map(|e| e.end - e.start).sum();
        let finish = evs.last().map(|e| e.end).unwrap_or(Time::ZERO);
        procs.push(ProcStats {
            proc,
            sends,
            recvs,
            busy,
            finish,
            idle: finish - busy,
        });
    }

    let pairs = timeline.message_pairs();
    let mut messages = Vec::new();
    for m in pattern.network_messages() {
        if let Some((Some(s), Some(r))) = pairs.get(&m.id) {
            let arrival = params.arrival_time(s.start, m.bytes);
            messages.push(MessageStats {
                msg_id: m.id,
                flight: arrival - s.start,
                queueing: r.start.saturating_sub(arrival),
                end_to_end: r.end - s.start,
            });
        }
    }
    messages.sort_by_key(|m| m.msg_id);

    TimelineStats {
        procs,
        messages,
        completion: timeline.completion(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{patterns, standard};
    use loggp::presets;

    fn run(pattern: &CommPattern) -> (SimConfig, Timeline) {
        let cfg = SimConfig::new(presets::meiko_cs2(pattern.procs()));
        (cfg, standard::simulate(pattern, &cfg).timeline)
    }

    #[test]
    fn single_message_has_no_queueing() {
        let mut p = CommPattern::new(2);
        p.add(0, 1, 500);
        let (cfg, t) = run(&p);
        let stats = analyze(&p, &cfg, &t);
        assert_eq!(stats.messages.len(), 1);
        let m = &stats.messages[0];
        assert_eq!(m.queueing, Time::ZERO);
        assert_eq!(m.end_to_end, cfg.params.message_cost(500));
        // flight runs from send *start* to arrival, so it contains the
        // sender's o but not the receiver's.
        assert_eq!(m.flight, m.end_to_end - cfg.params.overhead);
        assert_eq!(stats.completion, m.end_to_end);
    }

    #[test]
    fn fan_in_queues_messages() {
        let p = patterns::gather(6, 0, 100);
        let (cfg, t) = run(&p);
        let stats = analyze(&p, &cfg, &t);
        // All arrive together; all but the first wait at least one gap.
        let queued = stats
            .messages
            .iter()
            .filter(|m| m.queueing > Time::ZERO)
            .count();
        assert_eq!(queued, 4);
        assert!(stats.max_queueing() >= cfg.params.gap * 4 - cfg.params.overhead);
        assert!(stats.total_queueing() > Time::ZERO);
    }

    #[test]
    fn proc_stats_account_busy_and_idle() {
        let p = patterns::figure3();
        let (cfg, t) = run(&p);
        let stats = analyze(&p, &cfg, &t);
        for ps in &stats.procs {
            assert_eq!(ps.busy, cfg.params.overhead * (ps.sends + ps.recvs) as u64);
            assert_eq!(ps.finish, ps.busy + ps.idle);
            let u = ps.utilization();
            assert!((0.0..=1.0).contains(&u), "P{}: {u}", ps.proc);
        }
        // The sink processor (P9) mostly waits.
        let p9 = &stats.procs[9];
        assert!(p9.idle > p9.busy);
        assert!(stats.mean_utilization() < 1.0);
    }

    #[test]
    fn empty_timeline_stats() {
        let p = CommPattern::new(3);
        let (cfg, t) = run(&p);
        let stats = analyze(&p, &cfg, &t);
        assert_eq!(stats.completion, Time::ZERO);
        assert_eq!(stats.mean_utilization(), 1.0);
        assert!(stats.messages.is_empty());
        for ps in &stats.procs {
            assert_eq!(ps.utilization(), 1.0);
        }
    }
}
