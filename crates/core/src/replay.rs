//! Whole-program incremental re-simulation under the worst-case algorithm.
//!
//! Predicting one program on several machines — `predsim machine-sweep
//! --worst-case`, the only consumer, whose cost `bench_sim` measures —
//! simulates the *same program* many times, changing only the LogGP
//! parameters between runs. Under the worst-case algorithm the commit order
//! of every communication step is then identical across those runs: the
//! §4.2 round structure depends only on the pattern and the seed. This
//! module exploits that: [`record_program`] runs one full simulation while
//! recording each communication step's rounds ([`commsim::Recording`]), and
//! [`ProgramRecording::predict`] re-times them under new parameters instead
//! of re-running the hot loop.
//!
//! Standard-algorithm runs are not recorded: their commit order can shift
//! with the parameters, and verifying it op by op cost as much as
//! simulating again (DESIGN §13). A step whose recording does not apply —
//! made under another seed, or predicted under the standard algorithm — is
//! simulated in full, so **[`ProgramRecording::predict`] is always
//! bit-identical to [`simulate_program`](crate::simulate_program) at the
//! same options** — replay changes cost, never results.

use crate::program::Program;
use crate::simulate::{
    simulate_program_with, CommAlgo, DirectStepSimulator, Prediction, SimHooks, SimOptions,
    StepSimulator,
};
use commsim::replay::record_worstcase;
use commsim::{Recording, SimScratch, StepEnds};
use loggp::Time;

/// The recorded rounds of every communication step of one worst-case
/// program simulation, in program order. Produced by [`record_program`].
#[derive(Debug)]
pub struct ProgramRecording {
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
    /// with different `opts.cfg.params`. The prediction is bit-identical to
    /// `simulate_program(prog, opts)`.
    ///
    /// This is the whole-program fold with a replaying backend: each step
    /// goes through [`Recording::retime`], which computes the per-processor
    /// completion maxima the fold consumes without building a timeline, so
    /// re-prediction does no per-message allocation at all. Under the
    /// standard algorithm, or for a step whose recording refuses (another
    /// seed), the backend runs the full hot loop instead.
    pub fn predict(&self, prog: &Program, opts: &SimOptions) -> Prediction {
        let mut backend = Replaying {
            recordings: match opts.algo {
                CommAlgo::WorstCase => &self.steps,
                CommAlgo::Standard => &[],
            },
            next: 0,
            direct: DirectStepSimulator::new(),
        };
        simulate_program_with(prog, opts, &mut backend, SimHooks::default()).prediction
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
        if !rec.is_some_and(|rec| rec.retime(comm, &opts.cfg, ready, scratch, out)) {
            self.direct
                .simulate_step(step_idx, comm, opts, hooks, ready, out);
        }
    }
}

/// Simulate `prog` under worst-case `opts` while recording every
/// communication step's rounds for later re-prediction. The returned
/// [`Prediction`] is bit-identical to `simulate_program(prog, opts)`.
/// Under the standard algorithm nothing is simulated and the answer is
/// `None`: there is no recording to make.
pub fn record_program(prog: &Program, opts: &SimOptions) -> Option<(Prediction, ProgramRecording)> {
    if opts.algo == CommAlgo::Standard {
        return None;
    }
    let mut backend = RecordingBackend {
        scratch: SimScratch::new(),
        steps: Vec::new(),
    };
    let run = simulate_program_with(prog, opts, &mut backend, SimHooks::default());
    Some((
        run.prediction,
        ProgramRecording {
            steps: backend.steps,
        },
    ))
}

/// Backend of [`record_program`]: the worst-case algorithm writing each
/// step's maxima while its order is recorded.
struct RecordingBackend {
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
        out.reset(ready);
        let rec = record_worstcase(comm, &opts.cfg, ready, &mut self.scratch, out);
        self.steps.push(rec);
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

    fn worst_case(procs: usize) -> SimOptions {
        SimOptions::new(SimConfig::new(presets::meiko_cs2(procs))).worst_case()
    }

    #[test]
    fn recording_run_matches_plain_simulation() {
        let prog = sample_program(6);
        let opts = worst_case(6);
        let (recorded, rec) = record_program(&prog, &opts).expect("worst-case records");
        assert_eq!(recorded, simulate_program(&prog, &opts));
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn standard_runs_are_not_recorded() {
        let prog = sample_program(6);
        let st = SimOptions::new(SimConfig::new(presets::meiko_cs2(6)));
        for opts in [st, st.with_barrier(), st.with_overlap()] {
            assert!(record_program(&prog, &opts).is_none());
        }
    }

    #[test]
    fn recording_and_re_timing_see_every_repeated_step() {
        // The recorder and the re-timer keep the trait's default, so the
        // fold hands them every step, repeated or not: one recording per
        // communication step, consumed in order.
        let procs = 4;
        let mut prog = Program::new(procs);
        for i in 0..8 {
            prog.push(
                Step::new(format!("iter {i}"))
                    .with_comp(vec![Time::from_us(500.0); procs])
                    .with_comm(patterns::ring(procs, 1024)),
            );
        }
        let opts = worst_case(procs);
        let (recorded, rec) = record_program(&prog, &opts).expect("worst-case records");
        assert_eq!(rec.len(), 8);
        let plain = simulate_program_with(
            &prog,
            &opts,
            &mut DirectStepSimulator::new(),
            SimHooks::default(),
        );
        assert!(plain.steps_reused > 0, "the plain fold reuses: {plain:?}");
        assert_eq!(recorded, plain.prediction);
        let other = SimOptions::new(SimConfig::new(presets::intel_paragon(procs))).worst_case();
        assert_eq!(rec.predict(&prog, &other), simulate_program(&prog, &other));
    }

    #[test]
    fn predict_matches_full_simulation_across_param_changes() {
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        let o = worst_case(6);
        let (_, rec) = record_program(&prog, &o).unwrap();
        for (num, den) in [(3, 2), (2, 1), (1, 3), (7, 5), (1, 1)] {
            let mut alt = o;
            alt.cfg.params = scaled(base, num, den);
            let pred = rec.predict(&prog, &alt);
            assert_eq!(pred, simulate_program(&prog, &alt), "scale {num}/{den}");
        }
        let mut skew = o;
        skew.cfg.params.latency = base.latency * 40;
        assert_eq!(rec.predict(&prog, &skew), simulate_program(&prog, &skew));
    }

    #[test]
    fn algorithm_mismatch_falls_back_to_full_simulation() {
        let prog = sample_program(5);
        let wc = worst_case(5);
        let (_, rec) = record_program(&prog, &wc).unwrap();
        let st = SimOptions::new(wc.cfg);
        assert_eq!(rec.predict(&prog, &st), simulate_program(&prog, &st));
        assert_ne!(
            rec.predict(&prog, &st),
            rec.predict(&prog, &wc),
            "the algorithms must disagree here, or the fallback goes untested"
        );
    }

    #[test]
    fn seed_mismatch_falls_back_to_full_simulation() {
        let prog = sample_program(5);
        let seeded = |seed| {
            SimOptions::new(SimConfig::new(presets::meiko_cs2(5)).with_seed(seed)).worst_case()
        };
        let (_, rec) = record_program(&prog, &seeded(1)).unwrap();
        for seed in [2, 3, 99] {
            let o = seeded(seed);
            assert_eq!(
                rec.predict(&prog, &o),
                simulate_program(&prog, &o),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn worstcase_replay_survives_skewed_params() {
        // The worst-case recording replays unconditionally (same seed),
        // even under skews that would reorder a standard run.
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        let o = worst_case(6);
        let (_, rec) = record_program(&prog, &o).unwrap();
        let mut skew = o;
        skew.cfg.params.latency = base.latency * 100;
        assert_eq!(rec.predict(&prog, &skew), simulate_program(&prog, &skew));
    }

    #[test]
    fn fold_identity_across_options() {
        // predict must reproduce simulate_program bit-for-bit under every
        // synchronization / overlap combination, at recorded params and
        // across a sweep.
        let prog = sample_program(6);
        let base = presets::meiko_cs2(6);
        let o0 = worst_case(6);
        for opts in [
            o0,
            o0.with_barrier(),
            o0.with_overlap(),
            o0.with_barrier().with_overlap(),
        ] {
            let (recorded, rec) = record_program(&prog, &opts).unwrap();
            assert_eq!(recorded, simulate_program(&prog, &opts));
            for (num, den) in [(1, 1), (2, 1), (7, 5), (1, 4)] {
                let mut alt = opts;
                alt.cfg.params = scaled(base, num, den);
                let pred = rec.predict(&prog, &alt);
                assert_eq!(pred, simulate_program(&prog, &alt), "scale {num}/{den}");
            }
        }
    }

    #[test]
    fn empty_and_comp_only_programs_record_cleanly() {
        let mut prog = Program::new(3);
        prog.push(Step::new("c").with_comp(vec![Time::from_us(4.0); 3]));
        let opts = worst_case(3);
        let (_, rec) = record_program(&prog, &opts).unwrap();
        assert!(rec.is_empty());
        assert_eq!(rec.predict(&prog, &opts), simulate_program(&prog, &opts));
    }
}
