//! Heterogeneous machine descriptions: per-processor speed factors and
//! per-link parameter overrides layered over a flat LogGP preset.
//!
//! The paper's model (and every simulator in this workspace) assumes a
//! *uniform* machine: one `(L, o, g, G, P)` tuple for the whole network
//! and identical processors. A [`MachineSpec`] wraps such a base preset
//! and adds what uniformity leaves out:
//!
//! * **speed factors** — one integer permille per processor (`1000` =
//!   the base speed, `2000` = twice as fast, so computation charges
//!   halve). Consumers scale per-processor *computation* by these; the
//!   network stays the base preset's.
//! * **link overrides** — sparse `(src, dst) → (L, o, g, G)` entries for
//!   links that are slower or faster than the base network. Schedulers
//!   use these to estimate the cost of moving data between specific
//!   processors; the step simulators themselves stay uniform.
//!
//! A uniform spec (no speed entries, no links) is *exactly* its base
//! preset — a preset file stores it byte-identically to a flat preset,
//! and every consumer must predict bit-identically to the wrapped
//! parameters (pinned by tests here and in `predsim-dag`).

use crate::params::LogGpParams;
use crate::time::Time;

/// Speed factor denominator: a factor of `SPEED_BASE` permille is the
/// base preset's speed.
pub const SPEED_BASE: u64 = 1000;

/// Largest accepted speed factor (a thousand-fold speedup) — bounds the
/// arithmetic so scaling can never overflow.
pub const MAX_SPEED_PERMILLE: u64 = 1_000_000;

/// One directed link whose LogGP parameters differ from the base
/// network's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkOverride {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Link latency `L`.
    pub latency: Time,
    /// Per-message CPU overhead `o` on this link.
    pub overhead: Time,
    /// Minimum inter-operation gap `g` on this link.
    pub gap: Time,
    /// Per-byte gap `G` on this link.
    pub gap_per_byte: Time,
}

impl LinkOverride {
    /// The override expressed as full parameters (procs copied from
    /// `base`).
    pub fn params(&self, base: &LogGpParams) -> LogGpParams {
        LogGpParams {
            latency: self.latency,
            overhead: self.overhead,
            gap: self.gap,
            gap_per_byte: self.gap_per_byte,
            procs: base.procs,
        }
    }
}

/// A possibly-heterogeneous machine: a flat base preset plus optional
/// per-processor speed factors and per-link overrides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// The wrapped preset: the uniform network parameters and the
    /// processor count.
    pub base: LogGpParams,
    /// Per-processor speed factors in permille of the base speed; empty
    /// means every processor runs at `SPEED_BASE` (uniform).
    pub speed_permille: Vec<u64>,
    /// Sparse per-link overrides; links not listed use `base`.
    pub links: Vec<LinkOverride>,
}

impl MachineSpec {
    /// A uniform machine: exactly the wrapped preset.
    pub fn uniform(base: LogGpParams) -> MachineSpec {
        MachineSpec {
            base,
            speed_permille: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.base.procs
    }

    /// True iff this spec carries no heterogeneity at all — consumers
    /// must then behave bit-identically to the flat `base`.
    pub fn is_uniform(&self) -> bool {
        self.links.is_empty() && self.speed_permille.iter().all(|&s| s == SPEED_BASE)
    }

    /// The speed factor of processor `p` (permille of base speed).
    pub fn speed_of(&self, p: usize) -> u64 {
        self.speed_permille.get(p).copied().unwrap_or(SPEED_BASE)
    }

    /// Scale a computation charge by processor `p`'s speed: a `2000`
    /// permille processor finishes the same work in half the time.
    /// Exact for the uniform factor (`t * 1000 / 1000 == t`).
    pub fn scale_comp(&self, p: usize, t: Time) -> Time {
        let speed = self.speed_of(p);
        if speed == SPEED_BASE {
            return t;
        }
        Time::from_ps(t.as_ps().saturating_mul(SPEED_BASE) / speed)
    }

    /// The LogGP parameters governing the `src → dst` link: the override
    /// when one is listed, the base network otherwise.
    pub fn link_params(&self, src: usize, dst: usize) -> LogGpParams {
        for l in &self.links {
            if l.src == src && l.dst == dst {
                return l.params(&self.base);
            }
        }
        self.base
    }

    /// Re-target the spec to `procs` processors. A uniform spec
    /// re-targets freely (like [`LogGpParams::with_procs`]); a
    /// heterogeneous one can only *shrink* — the first `procs`
    /// processors and the links among them are kept, because invented
    /// speed factors for processors that were never described would be
    /// silent fiction.
    pub fn retarget(&self, procs: usize) -> Result<MachineSpec, String> {
        if procs == 0 {
            return Err("machine needs at least one processor".into());
        }
        if procs == self.procs() {
            return Ok(self.clone());
        }
        if self.is_uniform() {
            return Ok(MachineSpec::uniform(self.base.with_procs(procs)));
        }
        if procs > self.procs() {
            return Err(format!(
                "heterogeneous machine describes {} processors; cannot extend to {procs}",
                self.procs()
            ));
        }
        let mut speed = self.speed_permille.clone();
        speed.truncate(procs);
        let links = self
            .links
            .iter()
            .filter(|l| l.src < procs && l.dst < procs)
            .copied()
            .collect();
        Ok(MachineSpec {
            base: self.base.with_procs(procs),
            speed_permille: speed,
            links,
        })
    }

    /// Check every invariant: the base validates, speed factors cover
    /// exactly the processors (or are absent) and stay in range, and
    /// links reference real processor pairs exactly once with parameters
    /// that validate.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate().map_err(|e| e.to_string())?;
        if !self.speed_permille.is_empty() && self.speed_permille.len() != self.base.procs {
            return Err(format!(
                "speed_permille lists {} factors for {} processors",
                self.speed_permille.len(),
                self.base.procs
            ));
        }
        for (p, &s) in self.speed_permille.iter().enumerate() {
            if s == 0 || s > MAX_SPEED_PERMILLE {
                return Err(format!(
                    "processor {p}: speed factor {s} outside 1..={MAX_SPEED_PERMILLE} permille"
                ));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.src >= self.base.procs || l.dst >= self.base.procs {
                return Err(format!(
                    "link {} -> {} references a processor outside 0..{}",
                    l.src, l.dst, self.base.procs
                ));
            }
            if l.src == l.dst {
                return Err(format!("link {} -> {} is a self-loop", l.src, l.dst));
            }
            if self.links[..i]
                .iter()
                .any(|m| m.src == l.src && m.dst == l.dst)
            {
                return Err(format!("duplicate link override {} -> {}", l.src, l.dst));
            }
            l.params(&self.base)
                .validate()
                .map_err(|e| format!("link {} -> {}: {e}", l.src, l.dst))?;
        }
        Ok(())
    }
}

/// Resolve a machine name to a (possibly heterogeneous) spec for
/// `procs` processors: built-in presets and uniform registered machines
/// become uniform specs; heterogeneous registered machines resolve with
/// their speed factors and links intact (shrunk to `procs` when fewer are
/// asked for).
pub fn resolve(name: &str, procs: usize) -> Result<MachineSpec, String> {
    if let Some(spec) = crate::registry::registered(name) {
        return spec
            .retarget(procs)
            .map_err(|e| format!("machine '{name}': {e}"));
    }
    match crate::presets::by_name(name, procs) {
        Some(params) => Ok(MachineSpec::uniform(params)),
        None => Err(format!("unknown machine '{name}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn hetero() -> MachineSpec {
        let base = presets::meiko_cs2(4);
        MachineSpec {
            base,
            speed_permille: vec![2000, 1000, 1000, 500],
            links: vec![LinkOverride {
                src: 0,
                dst: 3,
                latency: base.latency + base.latency,
                overhead: base.overhead,
                gap: base.gap,
                gap_per_byte: base.gap_per_byte,
            }],
        }
    }

    #[test]
    fn uniform_spec_is_exactly_the_base() {
        let spec = MachineSpec::uniform(presets::meiko_cs2(8));
        assert!(spec.is_uniform());
        spec.validate().unwrap();
        let t = Time::from_us(10.0);
        for p in 0..8 {
            assert_eq!(spec.scale_comp(p, t), t);
        }
        assert_eq!(spec.link_params(0, 7), spec.base);
        assert_eq!(spec.retarget(16).unwrap().base, presets::meiko_cs2(16));
    }

    #[test]
    fn speed_factors_scale_computation_exactly() {
        let spec = hetero();
        spec.validate().unwrap();
        assert!(!spec.is_uniform());
        let t = Time::from_ps(1000);
        assert_eq!(spec.scale_comp(0, t), Time::from_ps(500), "2x faster");
        assert_eq!(spec.scale_comp(1, t), t);
        assert_eq!(spec.scale_comp(3, t), Time::from_ps(2000), "2x slower");
    }

    #[test]
    fn link_overrides_resolve_per_pair() {
        let spec = hetero();
        assert_eq!(
            spec.link_params(0, 3).latency,
            spec.base.latency + spec.base.latency
        );
        assert_eq!(spec.link_params(3, 0), spec.base, "direction matters");
        assert_eq!(spec.link_params(1, 2), spec.base);
    }

    #[test]
    fn retarget_shrinks_but_never_invents_processors() {
        let spec = hetero();
        let small = spec.retarget(2).unwrap();
        assert_eq!(small.procs(), 2);
        assert_eq!(small.speed_permille, vec![2000, 1000]);
        assert!(small.links.is_empty(), "0 -> 3 fell outside the prefix");
        assert!(spec.retarget(8).is_err());
        assert!(spec.retarget(0).is_err());
    }

    #[test]
    fn validate_catches_bad_specs() {
        let base = presets::meiko_cs2(4);
        let mut spec = MachineSpec::uniform(base);
        spec.speed_permille = vec![1000, 1000];
        assert!(spec.validate().is_err(), "wrong speed arity");
        spec.speed_permille = vec![1000, 0, 1000, 1000];
        assert!(spec.validate().is_err(), "zero speed");
        let link = |src, dst| LinkOverride {
            src,
            dst,
            latency: base.latency,
            overhead: base.overhead,
            gap: base.gap,
            gap_per_byte: base.gap_per_byte,
        };
        spec.speed_permille.clear();
        spec.links = vec![link(0, 4)];
        assert!(spec.validate().is_err(), "out of range");
        spec.links = vec![link(1, 1)];
        assert!(spec.validate().is_err(), "self-loop");
        spec.links = vec![link(0, 1), link(0, 1)];
        assert!(spec.validate().is_err(), "duplicate");
        spec.links = vec![link(0, 1)];
        spec.validate().unwrap();
    }

    #[test]
    fn resolve_builds_uniform_specs_from_builtins() {
        let spec = resolve("meiko", 8).unwrap();
        assert_eq!(spec, MachineSpec::uniform(presets::meiko_cs2(8)));
        assert!(resolve("cray-t3e", 8).is_err());
    }
}
