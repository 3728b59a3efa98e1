//! Whole-program incremental re-simulation.
//!
//! Predicting one program on several machines — `predsim machine-sweep`,
//! the only consumer, whose cost `bench_sim` measures — simulates the
//! *same program* many times, changing only the LogGP parameters between
//! runs. The communication patterns, per-step structure and — for the
//! common deterministic configurations — the commit order of every send
//! and receive are identical across those runs; only the *times* move. This
//! module exploits that: [`record_program`] runs one full simulation while
//! recording each communication step's commit order
//! ([`commsim::Recording`]), and [`ProgramRecording::predict`] re-times the
//! recorded orders under new parameters instead of re-running the hot loop.
//!
//! The invariant is absolute, not approximate: a replayed step is accepted
//! only when the recorded order is provably valid under the new parameters
//! (the standard algorithm's replay verifies every operation; the
//! worst-case replay is unconditional for a matching seed). Any step whose
//! recording cannot be validated is transparently re-simulated in full, so
//! **[`ProgramRecording::predict`] is always bit-identical to
//! [`simulate_program`](crate::simulate_program) at the same options** —
//! replay changes cost, never results. [`ReplayStats`] reports how much of
//! the program actually took the fast path.

use crate::program::Program;
use crate::simulate::{
    simulate_program_with, CommAlgo, DirectStepSimulator, Prediction, SimHooks, SimOptions,
    StepSimulator,
};
use commsim::replay::{record_standard, record_worstcase};
use commsim::{Recording, SimScratch, StepEnds};
use loggp::Time;

/// The commit orders of every communication step of one recorded program
/// simulation, in program order. Produced by [`record_program`].
#[derive(Debug)]
pub struct ProgramRecording {
    /// Algorithm the recording was made under; a replay under the other
    /// algorithm would re-time the wrong schedule, so it falls back.
    algo: CommAlgo,
    /// One recording per communication step, in encounter order.
    steps: Vec<Recording>,
}

impl ProgramRecording {
    /// Number of recorded communication steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True iff the program had no communication steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Re-predict the program under `opts` — typically the same program
    /// with different `opts.cfg.params` — replaying recorded commit orders
    /// where provably valid and re-simulating the rest. The prediction is
    /// bit-identical to `simulate_program(prog, opts)`.
    ///
    /// This is the whole-program fold with a replaying backend: replayed
    /// steps go through [`Recording::retime`], which computes the
    /// per-processor completion maxima the fold consumes without building
    /// a timeline or any per-event state, so an all-fast-path
    /// re-prediction does no per-message allocation at all. Refused steps
    /// transparently fall back to the full hot loop.
    pub fn predict(&self, prog: &Program, opts: &SimOptions) -> (Prediction, ReplayStats) {
        let mut backend = Replaying {
            recordings: if opts.algo == self.algo {
                &self.steps
            } else {
                &[]
            },
            next: 0,
            direct: DirectStepSimulator::new(),
            stats: ReplayStats::default(),
        };
        let run = simulate_program_with(prog, opts, &mut backend, SimHooks::default());
        (run.prediction, backend.stats)
    }
}

/// Backend of [`ProgramRecording::predict`], which runs it without hooks:
/// re-time each communication step from its recording, else simulate it
/// in full.
struct Replaying<'a> {
    /// One recording per communication step, consumed in encounter order.
    recordings: &'a [Recording],
    next: usize,
    direct: DirectStepSimulator,
    stats: ReplayStats,
}

impl StepSimulator for Replaying<'_> {
    fn simulate_step(
        &mut self,
        step_idx: usize,
        comm: &commsim::CommPattern,
        opts: &SimOptions,
        hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    ) {
        let rec = self.recordings.get(self.next);
        self.next += 1;
        let scratch = &mut self.direct.scratch;
        if rec.is_some_and(|rec| rec.retime(comm, &opts.cfg, ready, scratch, out)) {
            self.stats.replayed += 1;
        } else {
            self.stats.resimulated += 1;
            self.direct
                .simulate_step(step_idx, comm, opts, hooks, ready, out);
        }
    }
}

/// How much of an incremental re-prediction took the fast path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Communication steps re-timed from their recorded commit order.
    pub replayed: usize,
    /// Communication steps simulated in full (recording refused, missing,
    /// or made under a different algorithm).
    pub resimulated: usize,
}

impl ReplayStats {
    /// Total communication steps processed.
    pub fn comm_steps(&self) -> usize {
        self.replayed + self.resimulated
    }

    /// Fraction of communication steps replayed (1.0 for an all-fast-path
    /// run; 0.0 when everything was re-simulated or there was no
    /// communication).
    pub fn replay_fraction(&self) -> f64 {
        if self.comm_steps() == 0 {
            0.0
        } else {
            self.replayed as f64 / self.comm_steps() as f64
        }
    }
}

/// Simulate `prog` under `opts` while recording every communication step's
/// commit order for later incremental re-prediction. The returned
/// [`Prediction`] is bit-identical to `simulate_program(prog, opts)`.
pub fn record_program(prog: &Program, opts: &SimOptions) -> (Prediction, ProgramRecording) {
    let mut backend = RecordingBackend {
        algo: opts.algo,
        scratch: SimScratch::new(),
        steps: Vec::new(),
    };
    let run = simulate_program_with(prog, opts, &mut backend, SimHooks::default());
    (
        run.prediction,
        ProgramRecording {
            algo: backend.algo,
            steps: backend.steps,
        },
    )
}

/// Backend of [`record_program`]: the direct algorithms with the recording
/// hook enabled.
struct RecordingBackend {
    algo: CommAlgo,
    scratch: SimScratch,
    steps: Vec<Recording>,
}

impl StepSimulator for RecordingBackend {
    fn simulate_step(
        &mut self,
        _step_idx: usize,
        comm: &commsim::CommPattern,
        opts: &SimOptions,
        _hooks: &SimHooks<'_>,
        ready: &[Time],
        out: &mut StepEnds,
    ) {
        let (result, rec) = match opts.algo {
            CommAlgo::Standard => record_standard(comm, &opts.cfg, ready, &mut self.scratch),
            CommAlgo::WorstCase => record_worstcase(comm, &opts.cfg, ready, &mut self.scratch),
        };
        self.steps.push(rec);
        out.reset(ready);
        out.absorb(&result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Step;
    use crate::simulate::simulate_program;
    use commsim::{patterns, SimConfig};
    use loggp::{presets, LogGpParams};

    fn sample_program(procs: usize) -> Program {
        let mut prog = Program::new(procs);
        prog.push(Step::new("warm").with_comp(vec![Time::from_us(7.0); procs]));
        prog.push(Step::new("ring").with_comm(patterns::ring(procs, 512)));
        prog.push(Step::new("mid").with_comp(vec![Time::from_us(3.0); procs]));
        prog.push(Step::new("all").with_comm(patterns::all_to_all(procs, 128)));
        prog.push(Step::new("rand").with_comm(patterns::random(procs, 3 * procs, 2048, 42)));
        prog
    }

    fn scaled(p: LogGpParams, num: u64, den: u64) -> LogGpParams {
        let s = |t: Time| Time::from_ps(t.as_ps() * num / den);
        LogGpParams {
            latency: s(p.latency),
            overhead: s(p.overhead),
            gap: s(p.gap),
            gap_per_byte: s(p.gap_per_byte),
            procs: p.procs,
        }
    }

    #[test]
    fn recording_run_matches_plain_simulation() {
        let prog = sample_program(6);
        for opts in [
            SimOptions::new(SimConfig::new(presets::meiko_cs2(6))),
            SimOptions::new(SimConfig::new(presets::meiko_cs2(6))).worst_case(),
        ] {
            let plain = simulate_program(&prog, &opts);
            let (recorded, rec) = record_program(&prog, &opts);
            assert_eq!(plain, recorded);
            assert_eq!(rec.len(), 3);
        }
    }

    #[test]
    fn predict_at_same_params_replays_everything() {
        let prog = sample_program(6);
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(6)));
        let (_, rec) = record_program(&prog, &opts);
        let (pred, stats) = rec.predict(&prog, &opts);
        assert_eq!(pred, simulate_program(&prog, &opts));
        assert_eq!(stats.replayed, 3);
        assert_eq!(stats.resimulated, 0);
        assert_eq!(stats.replay_fraction(), 1.0);
    }

    #[test]
    fn predict_matches_full_simulation_across_param_changes() {
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        for o in [
            SimOptions::new(SimConfig::new(base)),
            SimOptions::new(SimConfig::new(base)).worst_case(),
        ] {
            let (_, rec) = record_program(&prog, &o);
            // Sweep: uniform scalings (order-preserving) and a few skewed
            // ones (may force fallback); predictions must match full
            // simulation regardless of which path each step took.
            for (num, den) in [(3, 2), (2, 1), (1, 3), (7, 5), (1, 1)] {
                let mut alt = o;
                alt.cfg.params = scaled(base, num, den);
                let (pred, stats) = rec.predict(&prog, &alt);
                assert_eq!(pred, simulate_program(&prog, &alt), "scale {num}/{den}");
                assert_eq!(stats.comm_steps(), 3);
            }
            let mut skew = o;
            skew.cfg.params.latency = base.latency * 40;
            let (pred, _) = rec.predict(&prog, &skew);
            assert_eq!(pred, simulate_program(&prog, &skew));
        }
    }

    #[test]
    fn uniform_scaling_takes_the_fast_path() {
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        let o = SimOptions::new(SimConfig::new(base));
        let (_, rec) = record_program(&prog, &o);
        let mut alt = o;
        alt.cfg.params = scaled(base, 2, 1);
        let (_, stats) = rec.predict(&prog, &alt);
        // Doubling every parameter scales all times uniformly, so the
        // recorded order stays valid and every step replays.
        assert_eq!(stats.replayed, 3);
        assert_eq!(stats.resimulated, 0);
    }

    #[test]
    fn algorithm_mismatch_falls_back_to_full_simulation() {
        let prog = sample_program(5);
        let st = SimOptions::new(SimConfig::new(presets::meiko_cs2(5)));
        let (_, rec) = record_program(&prog, &st);
        let wc = st.worst_case();
        let (pred, stats) = rec.predict(&prog, &wc);
        assert_eq!(pred, simulate_program(&prog, &wc));
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.resimulated, 3);
        assert_eq!(stats.replay_fraction(), 0.0);
    }

    #[test]
    fn random_tie_break_recordings_never_replay_but_stay_correct() {
        let prog = sample_program(5);
        let o = SimOptions::new(SimConfig::new(presets::meiko_cs2(5)).with_random_ties(9));
        let (recorded, rec) = record_program(&prog, &o);
        assert_eq!(recorded, simulate_program(&prog, &o));
        let (pred, stats) = rec.predict(&prog, &o);
        assert_eq!(pred, simulate_program(&prog, &o));
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.resimulated, 3);
    }

    #[test]
    fn worstcase_replay_survives_skewed_params() {
        // The worst-case recording replays unconditionally (same seed),
        // even under skews that flip the standard algorithm's order.
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        let o = SimOptions::new(SimConfig::new(base)).worst_case();
        let (_, rec) = record_program(&prog, &o);
        let mut skew = o;
        skew.cfg.params.latency = base.latency * 100;
        let (pred, stats) = rec.predict(&prog, &skew);
        assert_eq!(pred, simulate_program(&prog, &skew));
        assert_eq!(stats.replayed, 3);
    }

    #[test]
    fn fold_identity_across_options() {
        // predict must reproduce simulate_program bit-for-bit
        // under every synchronization / overlap / algorithm combination,
        // at recorded params and across a sweep (mixing fast-path and
        // fallback steps).
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        let o0 = SimOptions::new(SimConfig::new(base));
        for opts in [
            o0,
            o0.with_barrier(),
            o0.with_overlap(),
            o0.with_barrier().with_overlap(),
            o0.worst_case(),
            o0.worst_case().with_barrier(),
            o0.worst_case().with_overlap(),
        ] {
            let (recorded, rec) = record_program(&prog, &opts);
            assert_eq!(recorded, simulate_program(&prog, &opts));
            for (num, den) in [(1, 1), (2, 1), (7, 5), (1, 4)] {
                let mut alt = opts;
                alt.cfg.params = scaled(base, num, den);
                let (pred, stats) = rec.predict(&prog, &alt);
                assert_eq!(pred, simulate_program(&prog, &alt), "scale {num}/{den}");
                assert_eq!(stats.comm_steps(), 3);
            }
        }
    }

    #[test]
    fn empty_and_comp_only_programs_record_cleanly() {
        let mut prog = Program::new(3);
        prog.push(Step::new("c").with_comp(vec![Time::from_us(4.0); 3]));
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(3)));
        let (_, rec) = record_program(&prog, &opts);
        assert!(rec.is_empty());
        let (pred, stats) = rec.predict(&prog, &opts);
        assert_eq!(pred, simulate_program(&prog, &opts));
        assert_eq!(stats.comm_steps(), 0);
        assert_eq!(stats.replay_fraction(), 0.0);
    }
}
