//! Canonical fingerprints of communication steps.
//!
//! A step simulation is fully determined by `(CommPattern, SimConfig,
//! algorithm, relative ready offsets)` — and by nothing else, because both
//! LogGP simulators are *translation-invariant in time*: every quantity
//! they compute is a chain of `max`/`+` over the ready vector and the
//! (relative) model parameters, with no absolute anchor. Shifting every
//! ready time by Δ shifts every committed event by exactly Δ.
//!
//! [`StepKey`] encodes that determining tuple as a canonical word sequence
//! and hashes it with FNV-1a. Lookups compare the **full word sequence**,
//! not just the 64-bit hash, so a hash collision can never substitute a
//! wrong cached completion — bit-identical results are a correctness
//! guarantee of the engine, not a probabilistic one.

use commsim::CommPattern;
use loggp::{GapRule, Time};
use predsim_core::{CommAlgo, SimOptions};
use std::hash::{Hash, Hasher};

/// FNV-1a over a `u64` word stream (64-bit offset basis / prime).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb one 64-bit word, byte by byte.
    pub fn write_u64(&mut self, word: u64) {
        let mut h = self.0;
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The canonical identity of one communication-step simulation.
///
/// Equality compares the full canonical encoding; the precomputed FNV
/// digest only routes the key to a shard / hash bucket.
#[derive(Clone, Debug)]
pub struct StepKey {
    hash: u64,
    words: Box<[u64]>,
}

impl StepKey {
    /// Build the key for simulating `comm` under `opts` with processor `p`
    /// ready at `base + rel_ready[p]` (only the offsets enter the key; the
    /// base is re-added by the cache on a hit).
    pub fn new(comm: &CommPattern, opts: &SimOptions, rel_ready: &[Time]) -> Self {
        let p = &opts.cfg.params;
        let mut words = Vec::with_capacity(10 + rel_ready.len() + 3 * comm.len());

        // Machine + algorithm + policies. The seed feeds random
        // tie-breaking and worst-case deadlock forcing, so it is part of
        // the identity even when those paths end up unused.
        words.push(p.latency.as_ps());
        words.push(p.overhead.as_ps());
        words.push(p.gap.as_ps());
        words.push(p.gap_per_byte.as_ps());
        words.push(p.procs as u64);
        words.push(match opts.algo {
            CommAlgo::Standard => 0,
            CommAlgo::WorstCase => 1,
        });
        words.push(match opts.cfg.tie_break {
            commsim::TieBreak::LowestId => 0,
            commsim::TieBreak::Random => 1,
        });
        words.push(match opts.cfg.gap_rule {
            GapRule::Extended => 0,
            GapRule::SameKindOnly => 1,
        });
        words.push(opts.cfg.seed);

        // Relative readiness offsets, one per processor.
        words.push(rel_ready.len() as u64);
        words.extend(rel_ready.iter().map(|t| t.as_ps()));

        // The pattern, in program order. Order is semantic (it fixes each
        // processor's send queue and the message ids used for
        // tie-breaking), so the in-order list *is* the canonical edge
        // list. Self-messages are kept: the simulators skip them, but they
        // shift the ids of later messages.
        words.push(comm.procs() as u64);
        for m in comm.messages() {
            words.push(m.src as u64);
            words.push(m.dst as u64);
            words.push(m.bytes as u64);
        }

        let mut h = Fnv1a::new();
        for w in &words {
            h.write_u64(*w);
        }
        StepKey {
            hash: h.finish(),
            words: words.into_boxed_slice(),
        }
    }

    /// The precomputed FNV-1a digest (used for shard routing).
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for StepKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for StepKey {}

impl Hash for StepKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::SimConfig;
    use loggp::presets;

    fn opts(procs: usize) -> SimOptions {
        SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)))
    }

    fn ring(procs: usize, bytes: usize) -> CommPattern {
        let mut c = CommPattern::new(procs);
        for p in 0..procs {
            c.add(p, (p + 1) % procs, bytes);
        }
        c
    }

    #[test]
    fn identical_inputs_identical_keys() {
        let rel = vec![Time::ZERO, Time::from_us(3.0), Time::ZERO];
        let a = StepKey::new(&ring(3, 64), &opts(3), &rel);
        let b = StepKey::new(&ring(3, 64), &opts(3), &rel);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn every_component_distinguishes() {
        let rel = vec![Time::ZERO; 3];
        let base = StepKey::new(&ring(3, 64), &opts(3), &rel);
        // Different bytes.
        assert_ne!(base, StepKey::new(&ring(3, 65), &opts(3), &rel));
        // Different offsets.
        let rel2 = vec![Time::ZERO, Time::from_ps(1), Time::ZERO];
        assert_ne!(base, StepKey::new(&ring(3, 64), &opts(3), &rel2));
        // Different algorithm.
        assert_ne!(
            base,
            StepKey::new(&ring(3, 64), &opts(3).worst_case(), &rel)
        );
        // Different seed.
        let mut seeded = opts(3);
        seeded.cfg = seeded.cfg.with_seed(9);
        assert_ne!(base, StepKey::new(&ring(3, 64), &seeded, &rel));
        // Different machine.
        let other = SimOptions::new(SimConfig::new(presets::intel_paragon(3)));
        assert_ne!(base, StepKey::new(&ring(3, 64), &other, &rel));
    }

    #[test]
    fn message_order_is_semantic() {
        let mut ab = CommPattern::new(3);
        ab.add(0, 1, 10);
        ab.add(0, 2, 10);
        let mut ba = CommPattern::new(3);
        ba.add(0, 2, 10);
        ba.add(0, 1, 10);
        let rel = vec![Time::ZERO; 3];
        assert_ne!(
            StepKey::new(&ab, &opts(3), &rel),
            StepKey::new(&ba, &opts(3), &rel)
        );
    }

    #[test]
    fn self_messages_shift_ids_and_the_key() {
        let mut with_self = ring(3, 64);
        let plain = with_self.clone();
        with_self.add(1, 1, 8);
        let rel = vec![Time::ZERO; 3];
        assert_ne!(
            StepKey::new(&with_self, &opts(3), &rel),
            StepKey::new(&plain, &opts(3), &rel)
        );
    }
}
