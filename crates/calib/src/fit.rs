//! Fitting LogGP parameters to measured step walls.
//!
//! The objective is least-squares *over the simulator itself*: a
//! candidate (L, o, g, G) is scored by running the standard-algorithm
//! predictor on the program and comparing its per-step wall times
//! against the measured floor — the per-step **minimum** across the
//! training runs. The floor is the right target because every effect
//! the emulator adds on top of pure LogGP (jitter, contention, cache
//! misses, loop overhead, local copies) only *adds* time: the fitted
//! standard prediction should sit just below what the machine ever
//! achieves, leaving the worst-case algorithm's margin to cover the
//! top of the bracket. Overshooting the floor is penalized harder than
//! undershooting ([`FitConfig::overshoot_weight`]) so the fit lands
//! below it, keeping `standard ≤ measured` on held-out runs.
//!
//! The search is deterministic coordinate descent: for each parameter
//! in turn, a coarse grid scan brackets the minimum and a
//! golden-section refinement pins it down, all in integer picoseconds.
//! A fifth "diagonal" coordinate searches along the `2o + L = const`
//! direction — the classic LogGP degeneracy (a one-hop message costs
//! `2o + L + (k−1)G`, so simple patterns cannot split `o` from `L`;
//! relays and gap-bound bursts can, but the valley is narrow and plain
//! per-axis descent stalls in it). Candidate points are evaluated
//! through the engine and memoized per parameter point, so revisited
//! sweep points are free.

use crate::bracket::{bracket, BracketReport};
use crate::measure::{step_walls, MeasuredRun, MeasuredSet};
use commsim::SimConfig;
use loggp::{LogGpParams, Time};
use predsim_core::{Program, SimOptions};
use predsim_engine::{Engine, JobSource, JobSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// How [`calibrate`] searches.
#[derive(Clone, Debug)]
pub struct FitConfig {
    /// Starting point of the descent (a built-in preset works well).
    pub initial: LogGpParams,
    /// Maximum coordinate-descent rounds. `0` forces a non-converged
    /// report (useful to exercise failure paths).
    pub max_rounds: usize,
    /// A round improving the objective by less than this (relative,
    /// permille) ends the descent as converged.
    pub min_gain_permille: u64,
    /// Runs held out of the fit (taken from the end of the set) and
    /// used for the bracketing report. `0` brackets the training runs.
    pub holdout: usize,
    /// Penalty multiplier for predicted walls *above* the measured
    /// floor (overshoot). `1` is symmetric least squares; larger values
    /// bias the fit below the floor.
    pub overshoot_weight: u32,
}

impl FitConfig {
    /// Defaults around a starting point: 12 rounds, 0.1% gain
    /// threshold, no holdout, overshoot weighted 3×.
    pub fn new(initial: LogGpParams) -> Self {
        FitConfig {
            initial,
            max_rounds: 12,
            min_gain_permille: 1,
            holdout: 0,
            overshoot_weight: 3,
        }
    }
}

/// What a calibration produced.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// The fitted parameters.
    pub params: LogGpParams,
    /// Unweighted RMSE of the fitted standard prediction's step walls
    /// against *all* training runs (not the floor) — the headline
    /// fit-quality number.
    pub rmse: Time,
    /// Final value of the (asymmetric) search objective against the
    /// per-step floor.
    pub objective: Time,
    /// Whether the descent converged (gain below threshold or exact
    /// fit) before the round budget ran out.
    pub converged: bool,
    /// Rounds actually run.
    pub rounds: usize,
    /// Objective evaluations requested (including memoized repeats).
    pub evaluations: u64,
    /// Distinct parameter points simulated.
    pub unique_evaluations: u64,
    /// Bracketing quality on the held-out runs (`standard ≤ measured ≤
    /// worst-case` per run).
    pub bracket: BracketReport,
    /// Runs used for fitting.
    pub train_runs: usize,
    /// Runs held out for the bracket report.
    pub holdout_runs: usize,
}

struct Objective<'a> {
    program: &'a Arc<Program>,
    engine: &'a Engine,
    /// Per-step measured floor, picoseconds.
    target: Vec<f64>,
    overshoot_weight: f64,
    cache: HashMap<(u64, u64, u64, u64), f64>,
    evaluations: u64,
}

impl Objective<'_> {
    fn walls(&self, params: LogGpParams) -> Vec<Time> {
        let spec = JobSpec::new(
            "calib",
            JobSource::Program(Arc::clone(self.program)),
            SimOptions::new(SimConfig::new(params)),
        );
        step_walls(&self.engine.run_one(&spec))
    }

    fn eval(&mut self, params: LogGpParams) -> f64 {
        self.evaluations += 1;
        let key = (
            params.latency.as_ps(),
            params.overhead.as_ps(),
            params.gap.as_ps(),
            params.gap_per_byte.as_ps(),
        );
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        let walls = self.walls(params);
        let mut acc = 0.0;
        for (w, &t) in walls.iter().zip(&self.target) {
            let mut r = w.as_ps() as f64 - t;
            if r > 0.0 {
                r *= self.overshoot_weight;
            }
            acc += r * r;
        }
        let v = (acc / self.target.len() as f64).sqrt();
        self.cache.insert(key, v);
        v
    }
}

/// Integer golden-section refinement of `f` on `[a, b]`, returning the
/// best point seen. Assumes the grid scan already bracketed a minimum.
fn golden(f: &mut impl FnMut(u64) -> f64, mut a: u64, mut b: u64) -> (u64, f64) {
    let mut best = (a, f(a));
    let fb = f(b);
    if fb < best.1 {
        best = (b, fb);
    }
    for _ in 0..16 {
        if b - a <= 1 {
            break;
        }
        let d = b - a;
        let x1 = a + d * 382 / 1000;
        let x2 = a + d * 618 / 1000;
        let f1 = f(x1);
        let f2 = f(x2);
        if f1 < best.1 {
            best = (x1, f1);
        }
        if f2 < best.1 {
            best = (x2, f2);
        }
        if f1 <= f2 {
            b = x2.max(a + 1);
        } else {
            a = x1.min(b - 1);
        }
    }
    best
}

/// Grid scan + golden refinement of one line `apply(x)` for `x ∈ [lo,
/// hi]`. `apply` returns `None` for points violating the model
/// constraints. Returns the best valid `(params, objective)`.
fn line_search(
    obj: &mut Objective<'_>,
    apply: &dyn Fn(u64) -> Option<LogGpParams>,
    lo: u64,
    hi: u64,
) -> Option<(LogGpParams, f64)> {
    if hi <= lo {
        return None;
    }
    fn score(obj: &mut Objective<'_>, apply: &dyn Fn(u64) -> Option<LogGpParams>, x: u64) -> f64 {
        match apply(x) {
            Some(p) => obj.eval(p),
            None => f64::INFINITY,
        }
    }
    const GRID: u64 = 12;
    let mut xs: Vec<u64> = (0..=GRID).map(|i| lo + (hi - lo) / GRID * i).collect();
    xs.push(hi);
    xs.dedup();
    let scores: Vec<f64> = xs.iter().map(|&x| score(obj, apply, x)).collect();
    let best_i = scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)?;
    let a = xs[best_i.saturating_sub(1)];
    let b = xs[(best_i + 1).min(xs.len() - 1)];
    let mut g = |x: u64| score(obj, apply, x);
    let (gx, gv) = golden(&mut g, a, b);
    let (x, v) = if gv <= scores[best_i] {
        (gx, gv)
    } else {
        (xs[best_i], scores[best_i])
    };
    apply(x).map(|p| (p, v))
}

/// Solve the 4×4 system `a·x = b` by Gaussian elimination with partial
/// pivoting. `None` when singular.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        let piv = (col..4).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[piv][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for row in col + 1..4 {
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, pk) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= f * pk;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 4];
    for col in (0..4).rev() {
        let mut s = b[col];
        for k in col + 1..4 {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

/// One damped Gauss–Newton move. Step walls are piecewise *linear* in
/// (L, o, g, G), so within one linear piece a single weighted
/// least-squares solve jumps straight to the piece's optimum — the move
/// axis-aligned and pattern searches only crawl toward when the
/// parameters are coupled. The Jacobian comes from finite differences
/// (exact on a linear piece); Levenberg damping keeps the move safe
/// near the kinks.
fn newton_move(obj: &mut Objective<'_>, current: LogGpParams) -> Option<(LogGpParams, f64)> {
    let n = obj.target.len();
    let p0 = [
        current.latency.as_ps(),
        current.overhead.as_ps(),
        current.gap.as_ps(),
        current.gap_per_byte.as_ps(),
    ];
    let make = |v: [u64; 4]| -> LogGpParams {
        current
            .with_latency(Time::from_ps(v[0]))
            .with_overhead(Time::from_ps(v[1]))
            .with_gap(Time::from_ps(v[2]))
            .with_gap_per_byte(Time::from_ps(v[3]))
    };
    let base: Vec<f64> = obj
        .walls(current)
        .iter()
        .map(|w| w.as_ps() as f64)
        .collect();
    let weights: Vec<f64> = base
        .iter()
        .zip(&obj.target)
        .map(|(w, &t)| if *w > t { obj.overshoot_weight } else { 1.0 })
        .collect();

    let mut jac = vec![[0.0f64; 4]; n];
    let mut pinned = [false; 4];
    for i in 0..4 {
        let h = 10_000u64.max(p0[i] / 64);
        let mut forward = p0;
        forward[i] += h;
        let (pert, signed_h) = if make(forward).validate().is_ok() {
            (forward, h as f64)
        } else {
            let mut backward = p0;
            match p0[i].checked_sub(h) {
                Some(v)
                    if make({
                        backward[i] = v;
                        backward
                    })
                    .validate()
                    .is_ok() =>
                {
                    backward[i] = v;
                    (backward, -(h as f64))
                }
                _ => {
                    pinned[i] = true;
                    continue;
                }
            }
        };
        let walls = obj.walls(make(pert));
        for (s, w) in walls.iter().enumerate() {
            jac[s][i] = (w.as_ps() as f64 - base[s]) / signed_h;
        }
    }

    let mut ata = [[0.0f64; 4]; 4];
    let mut atb = [0.0f64; 4];
    for s in 0..n {
        let w2 = weights[s] * weights[s];
        let r = base[s] - obj.target[s];
        for i in 0..4 {
            atb[i] -= w2 * jac[s][i] * r;
            for j in 0..4 {
                ata[i][j] += w2 * jac[s][i] * jac[s][j];
            }
        }
    }
    for (i, &pin) in pinned.iter().enumerate() {
        if pin || ata[i][i] == 0.0 {
            ata[i] = [0.0; 4];
            for row in &mut ata {
                row[i] = 0.0;
            }
            ata[i][i] = 1.0;
            atb[i] = 0.0;
        }
    }

    let mut best: Option<(LogGpParams, f64)> = None;
    for lambda in [1e-6, 1e-3, 1e-1, 10.0] {
        let mut damped = ata;
        for (i, row) in damped.iter_mut().enumerate() {
            row[i] *= 1.0 + lambda;
        }
        let Some(d) = solve4(damped, atb) else {
            continue;
        };
        let mut v = [0u64; 4];
        for i in 0..4 {
            v[i] = (p0[i] as f64 + d[i]).round().max(0.0) as u64;
        }
        if v[2] < v[1] {
            v[2] = v[1]; // keep g ≥ o
        }
        let p = make(v);
        if p.validate().is_err() {
            continue;
        }
        let score = obj.eval(p);
        if best.as_ref().is_none_or(|(_, b)| score < *b) {
            best = Some((p, score));
        }
    }
    best
}

/// Fit LogGP parameters for `program` to the measured runs in `set`.
///
/// The last `cfg.holdout` runs are excluded from the fit and scored by
/// the bracketing report; the rest are the training runs. Errors on
/// shape mismatches (program vs. measured steps/procs), empty sets, and
/// an engine whose step budget would cut the program's predictions short.
pub fn calibrate(
    program: &Arc<Program>,
    set: &MeasuredSet,
    engine: &Engine,
    cfg: &FitConfig,
) -> Result<FitReport, String> {
    let steps = set.step_count()?;
    if steps != program.len() {
        return Err(format!(
            "program has {} steps but the measured runs have {steps}",
            program.len()
        ));
    }
    if set.procs != program.procs() {
        return Err(format!(
            "program runs on {} processors but the measurements say {}",
            program.procs(),
            set.procs
        ));
    }
    if steps == 0 {
        return Err("cannot calibrate against an empty program".into());
    }
    if let Some(max) = engine.config().max_steps {
        if max < steps {
            return Err(format!(
                "the engine's step budget ({max}) is below the program's {steps} steps; \
                 calibration fits whole-program predictions"
            ));
        }
    }
    if cfg.holdout >= set.runs.len() {
        return Err(format!(
            "holdout {} would leave no training runs (have {})",
            cfg.holdout,
            set.runs.len()
        ));
    }
    let split = set.runs.len() - cfg.holdout;
    let (train, holdout) = set.runs.split_at(split);

    // The per-step floor over the training runs.
    let target: Vec<f64> = (0..steps)
        .map(|s| train.iter().map(|r| r.steps[s].as_ps()).min().unwrap_or(0) as f64)
        .collect();
    let hi_wall = target.iter().fold(0u64, |m, &t| m.max(t as u64)).max(1000);

    let mut obj = Objective {
        program,
        engine,
        target,
        overshoot_weight: f64::from(cfg.overshoot_weight.max(1)),
        cache: HashMap::new(),
        evaluations: 0,
    };

    // Start from a valid point at the program's processor count.
    let mut current = cfg.initial.with_procs(set.procs);
    if current.gap < current.overhead {
        current = current.with_gap(current.overhead);
    }
    current
        .validate()
        .map_err(|e| format!("initial parameters: {e}"))?;
    let mut best = obj.eval(current);

    let mut rounds = 0usize;
    let mut converged = false;
    for _ in 0..cfg.max_rounds {
        let round_start = best;
        let start_p = current;
        for coord in 0..5u8 {
            let c = current;
            let improved = match coord {
                // G: bytes-proportional wire cost.
                0 => {
                    let hi = (c.gap_per_byte.as_ps().saturating_mul(16)).max(200_000);
                    line_search(
                        &mut obj,
                        &|x| Some(c.with_gap_per_byte(Time::from_ps(x))),
                        0,
                        hi,
                    )
                }
                // L: per-hop latency.
                1 => {
                    let hi = hi_wall.max(c.latency.as_ps().saturating_mul(2));
                    line_search(&mut obj, &|x| Some(c.with_latency(Time::from_ps(x))), 0, hi)
                }
                // o: send/receive overhead, bounded above by g.
                2 => line_search(
                    &mut obj,
                    &|x| Some(c.with_overhead(Time::from_ps(x))),
                    0,
                    c.gap.as_ps(),
                ),
                // g: inter-operation gap, bounded below by o.
                3 => {
                    let hi = hi_wall.max(c.gap.as_ps().saturating_mul(2));
                    line_search(
                        &mut obj,
                        &|x| Some(c.with_gap(Time::from_ps(x))),
                        c.overhead.as_ps(),
                        hi,
                    )
                }
                // The (L, o) diagonal: o' = u, L' = L + 2o − 2u keeps
                // 2o + L constant while redistributing between the two.
                _ => {
                    let budget = c.latency.as_ps() + 2 * c.overhead.as_ps();
                    let hi = (budget / 2).min(c.gap.as_ps());
                    line_search(
                        &mut obj,
                        &|u| {
                            let l = budget.checked_sub(2 * u)?;
                            Some(
                                c.with_overhead(Time::from_ps(u))
                                    .with_latency(Time::from_ps(l)),
                            )
                        },
                        0,
                        hi,
                    )
                }
            };
            if let Some((p, v)) = improved {
                if v < best {
                    best = v;
                    current = p;
                }
            }
        }
        // Pattern move (Hooke–Jeeves): per-axis descent zig-zags through
        // the curved valley the coupled (L, o, g) parameters form, so
        // extrapolate along the round's *net* movement — the valley
        // floor's direction — up to 16× the distance just travelled.
        if current != start_p {
            let c = current;
            const SCALE: u64 = 4;
            let along = |a: Time, b: Time, x: u64| -> Option<u64> {
                let base = a.as_ps() as i128;
                let d = b.as_ps() as i128 - base;
                u64::try_from(base + d * x as i128 / SCALE as i128).ok()
            };
            let improved = line_search(
                &mut obj,
                &|x| {
                    let p = start_p
                        .with_latency(Time::from_ps(along(start_p.latency, c.latency, x)?))
                        .with_overhead(Time::from_ps(along(start_p.overhead, c.overhead, x)?))
                        .with_gap(Time::from_ps(along(start_p.gap, c.gap, x)?))
                        .with_gap_per_byte(Time::from_ps(along(
                            start_p.gap_per_byte,
                            c.gap_per_byte,
                            x,
                        )?));
                    p.validate().ok().map(|_| p)
                },
                0,
                16 * SCALE,
            );
            if let Some((p, v)) = improved {
                if v < best {
                    best = v;
                    current = p;
                }
            }
        }
        if let Some((p, v)) = newton_move(&mut obj, current) {
            if v < best {
                best = v;
                current = p;
            }
        }
        rounds += 1;
        if best == 0.0 {
            converged = true;
            break;
        }
        let gain = round_start - best;
        if gain <= round_start * cfg.min_gain_permille as f64 / 1000.0 {
            converged = true;
            break;
        }
    }

    // Headline RMSE: the fitted prediction against every training run.
    let fitted_walls = obj.walls(current);
    let rmse = rmse_against(&fitted_walls, train);

    let scored = if holdout.is_empty() { train } else { holdout };
    let bracket = bracket(program, current, scored, engine);

    Ok(FitReport {
        params: current,
        rmse,
        objective: Time::from_ps(best as u64),
        converged,
        rounds,
        evaluations: obj.evaluations,
        unique_evaluations: obj.cache.len() as u64,
        bracket,
        train_runs: train.len(),
        holdout_runs: holdout.len(),
    })
}

/// Unweighted RMSE of predicted step walls against a set of runs —
/// exposed for reporting comparisons (e.g. degraded vs. clean fits).
pub fn rmse_against(walls: &[Time], runs: &[MeasuredRun]) -> Time {
    let mut acc = 0.0;
    let mut n = 0u64;
    for run in runs {
        for (w, m) in walls.iter().zip(&run.steps) {
            let r = w.as_ps() as f64 - m.as_ps() as f64;
            acc += r * r;
            n += 1;
        }
    }
    Time::from_ps((acc / n.max(1) as f64).sqrt() as u64)
}
