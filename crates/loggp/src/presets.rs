//! LogGP parameter presets for a few historical machines.
//!
//! The values for the Meiko CS-2 are the ones the paper reports using
//! ("close to the Meiko CS-2 parameters"). The scanned text dropped digits
//! ("L=9 s, o= s, g=1 s, G=.3 s"); we fix them as L = 9 µs, o = 6 µs,
//! g = 16 µs, G = 0.03 µs/byte — consistent with the surviving digits and
//! with the CS-2 measurements in the LogGP paper (Alexandrov, Ionescu,
//! Schauser & Scheiman, SPAA'95). A sensitivity ablation in `crates/bench`
//! shows the paper's qualitative results are stable under ±50% parameter
//! perturbations.

use crate::params::LogGpParams;

/// A named parameter set.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// Human-readable machine name.
    pub name: &'static str,
    /// The parameters.
    pub params: LogGpParams,
}

/// The Meiko CS-2 of the paper's evaluation: L = 9 µs, o = 6 µs, g = 16 µs,
/// G = 0.03 µs/byte.
pub fn meiko_cs2(procs: usize) -> LogGpParams {
    LogGpParams::from_us(9.0, 6.0, 16.0, 0.03, procs)
}

/// Intel Paragon (LogP-era measurements): L ≈ 7.5 µs, o ≈ 3 µs, g ≈ 8 µs,
/// G ≈ 0.007 µs/byte (~140 MB/s).
pub fn intel_paragon(procs: usize) -> LogGpParams {
    LogGpParams::from_us(7.5, 3.0, 8.0, 0.007, procs)
}

/// A Myrinet workstation cluster with user-level messaging:
/// L ≈ 10 µs, o ≈ 5 µs, g ≈ 13 µs, G ≈ 0.025 µs/byte.
pub fn myrinet_cluster(procs: usize) -> LogGpParams {
    LogGpParams::from_us(10.0, 5.0, 13.0, 0.025, procs)
}

/// A commodity Ethernet cluster with kernel TCP: high overhead and latency.
/// L ≈ 100 µs, o ≈ 50 µs, g ≈ 100 µs, G ≈ 0.08 µs/byte (~12 MB/s).
pub fn ethernet_cluster(procs: usize) -> LogGpParams {
    LogGpParams::from_us(100.0, 50.0, 100.0, 0.08, procs)
}

/// The idealized PRAM-like machine: free communication. Useful as a
/// baseline that isolates pure computation time.
pub fn ideal(procs: usize) -> LogGpParams {
    LogGpParams::from_us(0.0, 0.0, 0.0, 0.0, procs)
}

/// The short names accepted by [`by_name`] (the CLI and the serve API
/// agree on these).
pub const SHORT_NAMES: [&str; 5] = ["meiko", "paragon", "myrinet", "ethernet", "ideal"];

/// The machine every front end predicts on when a request names none.
pub const DEFAULT: &str = "meiko";

/// Look a preset up by its short name (`meiko`, `paragon`, `myrinet`,
/// `ethernet`, `ideal`) at a given processor count. Every front end that
/// accepts a machine name — the CLI flags and the serve API's `machine`
/// field — resolves it through here, so the spellings cannot drift.
///
/// Names that are not built-ins fall back to the fitted-preset
/// [`registry`](crate::registry): anything registered there (from a
/// calibration run or a loaded preset file) resolves exactly like a
/// built-in, re-targeted to `procs` processors.
pub fn by_name(name: &str, procs: usize) -> Option<LogGpParams> {
    Some(match name {
        "meiko" => meiko_cs2(procs),
        "paragon" => intel_paragon(procs),
        "myrinet" => myrinet_cluster(procs),
        "ethernet" => ethernet_cluster(procs),
        "ideal" => ideal(procs),
        _ => return crate::registry::registered(name, procs),
    })
}

/// All named presets at a given processor count (the ideal machine last).
pub fn all(procs: usize) -> Vec<Preset> {
    vec![
        Preset {
            name: "Meiko CS-2",
            params: meiko_cs2(procs),
        },
        Preset {
            name: "Intel Paragon",
            params: intel_paragon(procs),
        },
        Preset {
            name: "Myrinet cluster",
            params: myrinet_cluster(procs),
        },
        Preset {
            name: "Ethernet cluster",
            params: ethernet_cluster(procs),
        },
        Preset {
            name: "ideal",
            params: ideal(procs),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn meiko_matches_paper_digits() {
        let p = meiko_cs2(8);
        assert_eq!(p.latency, Time::from_us(9.0)); // "L=9 s"
        assert_eq!(p.gap_per_byte, Time::from_us(0.03)); // "G=.3 s" -> 0.03
        assert_eq!(p.procs, 8);
        // g begins with '1' in the scan.
        assert_eq!(p.gap, Time::from_us(16.0));
    }

    #[test]
    fn all_presets_validate() {
        for preset in all(4) {
            preset.params.validate().expect(preset.name);
        }
    }

    #[test]
    fn ideal_machine_communicates_for_free() {
        let p = ideal(4);
        assert_eq!(p.message_cost(1 << 20), Time::ZERO);
    }

    #[test]
    fn by_name_covers_every_short_name() {
        for name in SHORT_NAMES {
            let p = by_name(name, 4).expect(name);
            assert_eq!(p.procs, 4);
        }
        assert!(by_name("cray", 4).is_none());
        assert_eq!(by_name("meiko", 8), Some(meiko_cs2(8)));
    }

    #[test]
    fn presets_ordered_by_quality() {
        // Paragon moves a long message faster than the Ethernet cluster.
        let k = 100_000;
        assert!(intel_paragon(4).message_cost(k) < ethernet_cluster(4).message_cost(k));
    }
}
