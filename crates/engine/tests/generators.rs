//! What every trace generator builds, pinned.
//!
//! `JobSource::build` (every prediction) and `JobSource::build_loaded`
//! (the emulator and the calibrator) run the same generator body, the
//! first with the work profiles switched off. The digests pin the bytes of
//! the program `build` returns and of the profiles `build_loaded` returns
//! for every generator, layouts with more and with fewer blocks per
//! dimension than processors included; the property pins that the two
//! paths build the same program over random feasible specs.

use predsim_core::{textfmt, StepLoad};
use predsim_engine::{JobSource, LayoutSpec};
use proptest::prelude::*;

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per (step, processor): its visits, then its touches in order.
fn render_loads(loads: &[StepLoad]) -> String {
    let mut out = String::new();
    for (s, load) in loads.iter().enumerate() {
        for (p, (visits, touches)) in load.visits.iter().zip(&load.touches).enumerate() {
            out.push_str(&format!("{s} {p} {visits}"));
            for (base, len) in touches {
                out.push_str(&format!(" {base}+{len}"));
            }
            out.push('\n');
        }
    }
    out
}

fn source(spec: &str) -> JobSource {
    JobSource::parse_spec(spec)
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
        .unwrap_or_else(|| panic!("{spec}: not a generator spec"))
}

#[test]
fn every_generator_builds_the_pinned_program_and_loads() {
    // (spec, digest of the dumped program, digest of the rendered loads)
    let cases: [(&str, u64, u64); 11] = [
        (
            "ge:240,24,diagonal,8",
            0x6106_65bf_b16b_8e78,
            0x4a96_5a2f_9225_c3af,
        ),
        (
            "ge:240,24,row,8",
            0x7fc0_66e3_4923_b68a,
            0xe9f5_4e73_4014_f17b,
        ),
        (
            "ge:240,24,col,8",
            0xa99e_ab97_13f4_38ca,
            0x882a_46d2_c199_16f1,
        ),
        // More blocks per dimension than processors, and fewer.
        (
            "ge:480,10,diagonal,8",
            0x8300_87fe_3e7e_d112,
            0x1c75_48d1_dc96_8916,
        ),
        (
            "ge:64,16,row,8",
            0xf7d5_398f_6837_5335,
            0x1840_d584_5636_6529,
        ),
        (
            "apsp:120,24,row,6",
            0xbd1d_95e6_b051_aa95,
            0x19e9_55a8_7cb2_5ec5,
        ),
        (
            "apsp:120,24,diagonal,6",
            0xb890_e748_c435_c7e5,
            0xc706_b87f_bfaf_b53d,
        ),
        (
            "apsp:120,24,col,6",
            0x4751_719d_7165_3acd,
            0x6dfd_0f1d_18e9_5809,
        ),
        (
            "apsp:960,48,col,8",
            0x5afe_8e23_578f_183b,
            0x17d6_d9a5_7f49_5455,
        ),
        ("cannon:64,4", 0x46e3_43a1_0daf_3dc5, 0x40dd_5a77_b460_1d17),
        (
            "stencil:64,8,4",
            0x74d6_a7b3_8892_d6eb,
            0x38d2_43b1_2950_9dc1,
        ),
    ];
    let mut wrong = Vec::new();
    for (spec, want_program, want_loads) in cases {
        let src = source(spec);
        let program = fnv1a(textfmt::dump(&src.build()).as_bytes());
        let loads = fnv1a(render_loads(&src.build_loaded().1).as_bytes());
        if (program, loads) != (want_program, want_loads) {
            wrong.push(format!("(\"{spec}\", {program:#018x}, {loads:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "digests differ:\n{}", wrong.join("\n"));
}

/// splitmix64 over a seed: every spec derives from one integer.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A feasible generator spec: GE or APSP over any of the four layouts
/// (1–9 processors, 1–12 blocks per dimension), Cannon or stencil.
fn feasible(seed: u64) -> JobSource {
    let mut d = Draw(seed);
    let kind = d.below(4);
    if kind < 2 {
        let block = 1 + d.below(6);
        let n = block * (1 + d.below(12));
        let procs = 1 + d.below(9);
        let layout = match d.below(4) {
            0 => LayoutSpec::RowCyclic(procs),
            1 => LayoutSpec::ColCyclic(procs),
            2 => LayoutSpec::Diagonal(procs),
            _ => LayoutSpec::Grid2D(1 + d.below(3), 1 + d.below(3)),
        };
        if kind == 0 {
            JobSource::Gauss { n, block, layout }
        } else {
            JobSource::Apsp { n, block, layout }
        }
    } else if kind == 2 {
        let q = 1 + d.below(4);
        JobSource::Cannon {
            n: q * (1 + d.below(4)),
            q,
        }
    } else {
        let procs = 1 + d.below(8);
        JobSource::Stencil {
            n: procs + d.below(20),
            procs,
            iters: d.below(5),
            ps_per_flop: 500,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn build_is_build_loaded_without_the_loads(seed in any::<u64>()) {
        let src = feasible(seed);
        prop_assert!(src.validate().is_ok(), "{:?}", src);
        let program = src.build();
        let (loaded, loads) = src.build_loaded();
        prop_assert_eq!(&*program, &*loaded, "{:?}", src);
        prop_assert_eq!(loads.len(), program.len(), "{:?}", src);
        for load in &loads {
            prop_assert_eq!(load.visits.len(), program.procs(), "{:?}", src);
            prop_assert_eq!(load.touches.len(), program.procs(), "{:?}", src);
        }
    }
}
