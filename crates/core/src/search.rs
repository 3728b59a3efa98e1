//! Automatic selection of optimal implementation parameters from the
//! predicted running times — the paper's §7 future work ("future work may
//! be done to automatically determine these optimal values from the
//! predicted running times. This reduces to a search problem and therefore
//! some heuristics have to be used.").
//!
//! Two strategies over a sorted candidate list (e.g. block sizes):
//!
//! * [`sweep`] — exhaustive: evaluate every candidate; exact but costs one
//!   full program simulation per candidate;
//! * [`hill_climb`] — a local-descent heuristic that starts from a coarse
//!   probe and walks downhill, evaluating only a fraction of the
//!   candidates. The predicted time curve is *sawtoothed* (paper Figure 7),
//!   so the heuristic is only guaranteed to find a local optimum; the test
//!   suite quantifies how close it lands on the paper's workload.
//!
//! Both call `eval` on the calling thread, one candidate after another. To
//! predict many candidates at once, submit them as one batch to the
//! `predsim-engine` worker pool, as `predsim ge-sweep` does.

use loggp::Time;

/// The outcome of a parameter search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchResult<P> {
    /// The best candidate found.
    pub best: P,
    /// Its predicted time.
    pub best_time: Time,
    /// Every `(candidate, time)` pair that was evaluated, in evaluation
    /// order.
    pub evaluated: Vec<(P, Time)>,
}

impl<P: Copy> SearchResult<P> {
    /// Number of evaluations performed.
    pub fn evals(&self) -> usize {
        self.evaluated.len()
    }
}

/// Exhaustively evaluate all candidates; returns the global optimum of the
/// predicted times.
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn sweep<P: Copy>(candidates: &[P], mut eval: impl FnMut(P) -> Time) -> SearchResult<P> {
    assert!(!candidates.is_empty(), "no candidates to search");
    let evaluated: Vec<(P, Time)> = candidates.iter().map(|&c| (c, eval(c))).collect();
    let &(best, best_time) = evaluated.iter().min_by_key(|(_, t)| *t).expect("non-empty");
    SearchResult {
        best,
        best_time,
        evaluated,
    }
}

/// Local-descent heuristic over a *sorted* candidate list.
///
/// Probes `probes` roughly equally spaced candidates, then walks downhill
/// from the best probe by single-index steps until neither neighbour
/// improves. Evaluations are memoized, so each candidate is evaluated at
/// most once.
///
/// # Panics
/// Panics if `candidates` is empty or `probes` is zero.
pub fn hill_climb<P: Copy + PartialEq>(
    candidates: &[P],
    probes: usize,
    mut eval: impl FnMut(P) -> Time,
) -> SearchResult<P> {
    assert!(!candidates.is_empty(), "no candidates to search");
    assert!(probes > 0, "need at least one probe");
    let n = candidates.len();
    let mut cache: Vec<Option<Time>> = vec![None; n];
    let mut evaluated: Vec<(P, Time)> = Vec::new();

    let mut get = |idx: usize, cache: &mut Vec<Option<Time>>, evaluated: &mut Vec<(P, Time)>| {
        if let Some(t) = cache[idx] {
            t
        } else {
            let t = eval(candidates[idx]);
            cache[idx] = Some(t);
            evaluated.push((candidates[idx], t));
            t
        }
    };

    // Coarse probes.
    let probes = probes.min(n);
    let mut best_idx = 0;
    let mut best_time = Time::MAX;
    for k in 0..probes {
        let idx = if probes == 1 {
            n / 2
        } else {
            k * (n - 1) / (probes - 1)
        };
        let t = get(idx, &mut cache, &mut evaluated);
        if t < best_time {
            best_time = t;
            best_idx = idx;
        }
    }

    // Downhill walk.
    loop {
        let mut improved = false;
        for next in [
            best_idx.checked_sub(1),
            (best_idx + 1 < n).then_some(best_idx + 1),
        ]
        .into_iter()
        .flatten()
        {
            let t = get(next, &mut cache, &mut evaluated);
            if t < best_time {
                best_time = t;
                best_idx = next;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    SearchResult {
        best: candidates[best_idx],
        best_time,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> Time {
        Time::from_us(us)
    }

    #[test]
    fn sweep_finds_global_minimum() {
        let cands = [10usize, 20, 30, 40, 50];
        let times = [t(9.0), t(4.0), t(6.0), t(3.0), t(8.0)];
        let r = sweep(&cands, |c| {
            times[cands.iter().position(|&x| x == c).unwrap()]
        });
        assert_eq!(r.best, 40);
        assert_eq!(r.best_time, t(3.0));
        assert_eq!(r.evals(), 5);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn sweep_rejects_empty() {
        let _ = sweep::<usize>(&[], |_| Time::ZERO);
    }

    #[test]
    fn hill_climb_finds_minimum_of_unimodal_curve() {
        let cands: Vec<usize> = (0..100).collect();
        // V-shaped valley at 37.
        let f = |c: usize| t((c as f64 - 37.0).abs() + 1.0);
        let r = hill_climb(&cands, 4, f);
        assert_eq!(r.best, 37);
        assert!(r.evals() < 60, "evaluated {} of 100", r.evals());
    }

    #[test]
    fn hill_climb_lands_on_local_minimum_of_sawtooth() {
        let cands: Vec<usize> = (0..50).collect();
        // Sawtooth with local minima every 10; global at 45.
        let f = |c: usize| {
            let phase = (c % 10) as f64;
            t(100.0 - (c as f64) + phase * 5.0)
        };
        let r = hill_climb(&cands, 5, f);
        // Whatever it found, it is a genuine local minimum.
        let idx = cands.iter().position(|&c| c == r.best).unwrap();
        for nb in [idx.wrapping_sub(1), idx + 1] {
            if nb < cands.len() {
                assert!(f(cands[nb]) >= r.best_time);
            }
        }
    }

    #[test]
    fn hill_climb_memoizes() {
        let cands: Vec<usize> = (0..20).collect();
        let mut calls = 0usize;
        let r = hill_climb(&cands, 20, |c| {
            calls += 1;
            t(c as f64 + 1.0)
        });
        assert_eq!(r.best, 0);
        assert_eq!(calls, r.evals());
        assert!(calls <= 20, "each candidate evaluated at most once");
    }

    #[test]
    fn single_candidate() {
        let r = hill_climb(&[42usize], 3, |_| t(7.0));
        assert_eq!(r.best, 42);
        let s = sweep(&[42usize], |_| t(7.0));
        assert_eq!(s.best, 42);
    }
}
