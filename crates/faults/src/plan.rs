//! The seeded fault plan: spec + seed → pure fault decisions.

use crate::spec::{FaultSpec, PPM};
use loggp::Time;
use std::fmt::Write as _;

/// Hash domains keep the decision streams of different fault classes
/// statistically independent under one seed.
const DOMAIN_DROP: u64 = 0x44_52_4f_50; // "DROP"
const DOMAIN_SLOW: u64 = 0x53_4c_4f_57; // "SLOW"

/// The splitmix64 finalizer: a tiny, high-quality 64-bit mixer — exactly
/// what a deterministic, dependency-free fault oracle needs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`FaultSpec`] bound to a seed. Every query is a pure function of
/// `(seed, fault site)` — independent of virtual time and of which
/// algorithm asks — so the standard and worst-case simulators see the same
/// faults, `--jobs N` sees the same faults as `--jobs 1`, and re-running a
/// plan reproduces it bit-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
}

impl FaultPlan {
    /// Bind `spec` to `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultPlan { spec, seed }
    }

    /// The plan a front end's fault spec and seed select: `None` without a
    /// spec, seed 0 when none is given. A seed without a spec is an error
    /// rather than a silent fault-free run.
    pub fn parse(spec: Option<&str>, seed: Option<u64>) -> Result<Option<FaultPlan>, String> {
        match (spec, seed) {
            (None, None) => Ok(None),
            (None, Some(_)) => Err("a seed only makes sense together with a fault spec".into()),
            (Some(text), seed) => Ok(Some(FaultPlan::new(
                FaultSpec::parse(text)?,
                seed.unwrap_or(0),
            ))),
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing.
    pub fn is_zero(&self) -> bool {
        self.spec.is_zero()
    }

    fn hash(&self, domain: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut h = splitmix64(self.seed ^ domain);
        h = splitmix64(h.wrapping_add(a));
        h = splitmix64(h.wrapping_add(b));
        splitmix64(h.wrapping_add(c))
    }

    fn hit(hash: u64, ppm: u32) -> bool {
        if ppm == 0 {
            false
        } else if ppm >= PPM {
            true
        } else {
            hash < u64::from(ppm).saturating_mul(u64::MAX / u64::from(PPM))
        }
    }

    /// Total transmission attempts for message `msg_id` of step `step`
    /// (≥ 1, ≤ the spec's cap; the final attempt always delivers).
    pub fn attempts(&self, step: u64, msg_id: u64) -> u32 {
        if self.spec.drop_ppm == 0 {
            return 1;
        }
        let max = self.spec.max_attempts.max(1);
        for a in 0..max {
            if a + 1 == max {
                return max;
            }
            let h = self.hash(DOMAIN_DROP, step, msg_id, u64::from(a));
            if !Self::hit(h, self.spec.drop_ppm) {
                return a + 1;
            }
        }
        max
    }

    /// Retransmission timeout after the given (zero-based) dropped
    /// attempt: the base timeout with exponential backoff, saturating.
    pub fn rto(&self, attempt: u32) -> Time {
        self.spec.rto.saturating_mul(1u64 << attempt.min(16))
    }

    /// The slowdown factor (percent, > 100) hitting processor `proc` in
    /// step `step`, if any.
    pub fn slow_factor(&self, step: u64, proc: usize) -> Option<u32> {
        if self.spec.slow_ppm == 0 || self.spec.slow_factor_pct <= 100 {
            return None;
        }
        let h = self.hash(DOMAIN_SLOW, step, proc as u64, 0);
        Self::hit(h, self.spec.slow_ppm).then_some(self.spec.slow_factor_pct)
    }

    /// The total fail-stop outage charged to processor `proc` at the start
    /// of step `step`, if any.
    pub fn outage(&self, step: u64, proc: usize) -> Option<Time> {
        let mut total = Time::ZERO;
        for e in &self.spec.fails {
            if e.proc == proc && e.step as u64 == step {
                total = total.saturating_add(e.outage);
            }
        }
        (total > Time::ZERO).then_some(total)
    }

    /// Pretty-print the plan: the parsed clauses plus a resolved sample of
    /// decisions over a `steps × procs` window (what `predsim faults
    /// explain` shows).
    pub fn explain(&self, steps: usize, procs: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault plan (seed {}): {}", self.seed, self.spec);
        if self.spec.drop_ppm > 0 {
            let _ = writeln!(
                out,
                "  drop: each attempt lost with p={:.4}; rto {} with exponential backoff, \
                 at most {} attempts (the last always delivers)",
                self.spec.drop_ppm as f64 / f64::from(PPM),
                self.spec.rto,
                self.spec.max_attempts.max(1),
            );
        }
        if self.spec.slow_ppm > 0 {
            let _ = writeln!(
                out,
                "  slow: each (step, proc) slowed with p={:.4}, factor {:.2}x",
                self.spec.slow_ppm as f64 / f64::from(PPM),
                self.spec.slow_factor_pct as f64 / 100.0,
            );
        }
        for e in &self.spec.fails {
            let _ = writeln!(
                out,
                "  fail-stop: P{} at step {} for {}",
                e.proc, e.step, e.outage
            );
        }
        if self.is_zero() {
            let _ = writeln!(out, "  (no faults; predictions equal the fault-free run)");
            return out;
        }
        let _ = writeln!(
            out,
            "resolved sample over {steps} steps x {procs} procs \
             ('.' clean, S slowdown, F fail-stop, B both):"
        );
        for s in 0..steps {
            let mut row = String::new();
            for p in 0..procs {
                let slow = self.slow_factor(s as u64, p).is_some();
                let fail = self.outage(s as u64, p).is_some();
                row.push(match (slow, fail) {
                    (false, false) => '.',
                    (true, false) => 'S',
                    (false, true) => 'F',
                    (true, true) => 'B',
                });
            }
            let _ = writeln!(out, "  step {s:>3}: {row}");
        }
        if self.spec.drop_ppm > 0 {
            let attempts: Vec<String> =
                (0..8u64).map(|m| self.attempts(0, m).to_string()).collect();
            let _ = writeln!(
                out,
                "sample attempts (step 0, msgs 0-7): {}",
                attempts.join(" ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::parse(text).unwrap(), seed)
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = plan("drop:0.5,slow:0.5:2", 1);
        let b = plan("drop:0.5,slow:0.5:2", 1);
        let c = plan("drop:0.5,slow:0.5:2", 2);
        let mut differs = false;
        for step in 0..16u64 {
            for m in 0..16u64 {
                assert_eq!(a.attempts(step, m), b.attempts(step, m));
                if a.attempts(step, m) != c.attempts(step, m) {
                    differs = true;
                }
            }
        }
        assert!(differs, "two seeds should disagree somewhere");
    }

    #[test]
    fn attempt_counts_respect_the_cap_and_zero_rate() {
        let never = plan("none", 9);
        assert_eq!(never.attempts(0, 0), 1);
        let always = plan("drop:1:200:4", 9);
        for m in 0..32u64 {
            assert_eq!(always.attempts(0, m), 4, "cap must bound attempts");
        }
        let sometimes = plan("drop:0.5", 9);
        let mut seen_retry = false;
        for m in 0..64u64 {
            let a = sometimes.attempts(0, m);
            assert!((1..=8).contains(&a));
            seen_retry |= a > 1;
        }
        assert!(seen_retry, "a 50% drop rate must retry sometimes");
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let p = plan("drop:0.25", 42);
        let drops = (0..4000u64).filter(|&m| p.attempts(0, m) > 1).count();
        // First-attempt drop probability is 0.25; allow a wide band.
        assert!((800..1200).contains(&drops), "drops: {drops}");
    }

    #[test]
    fn rto_backs_off_exponentially_and_saturates() {
        let p = plan("drop:0.5:100:20", 0);
        assert_eq!(p.rto(0), Time::from_us(100.0));
        assert_eq!(p.rto(1), Time::from_us(200.0));
        assert_eq!(p.rto(3), Time::from_us(800.0));
        assert!(p.rto(63) >= p.rto(16), "backoff must saturate, not wrap");
    }

    #[test]
    fn outages_accumulate_per_site() {
        let p = plan("fail:1@2+100,fail:1@2+50,fail:0@0+10", 0);
        assert_eq!(p.outage(2, 1), Some(Time::from_us(150.0)));
        assert_eq!(p.outage(0, 0), Some(Time::from_us(10.0)));
        assert_eq!(p.outage(1, 0), None);
        assert_eq!(p.outage(2, 0), None);
    }

    #[test]
    fn explain_renders_clauses_and_sample() {
        let text = plan("drop:0.3,slow:0.4:2,fail:0@1+100", 7).explain(4, 3);
        assert!(text.contains("seed 7"), "{text}");
        assert!(text.contains("fail-stop: P0 at step 1"), "{text}");
        let row1 = text
            .lines()
            .find(|l| l.trim_start().starts_with("step   1:"))
            .unwrap();
        let mark = row1.chars().nth(row1.find(": ").unwrap() + 2).unwrap();
        assert!(
            mark == 'F' || mark == 'B',
            "P0 at step 1 must show the fail: {row1}"
        );
        assert!(text.contains("sample attempts"), "{text}");
        let none = plan("none", 0).explain(4, 3);
        assert!(none.contains("no faults"), "{none}");
    }
}
