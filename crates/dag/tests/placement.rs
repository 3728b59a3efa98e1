//! Min-ready and HEFT placements, pinned two ways.
//!
//! * **Digests.** FNV-1a digests of `proc_of` for the DAGs the large-p
//!   and serve-mix benchmarks, the CLI tests and `BENCH_DAG.json` place,
//!   on the uniform presets and on one heterogeneous machine. Every
//!   lowered program, prediction and document follows from these
//!   placements, so any change to one shows here first.
//! * **Oracle.** The schedulers against the straightforward
//!   earliest-finish-time loop, kept here as it was written first: every
//!   task tries every processor and charges every input edge through
//!   [`MachineSpec::link_params`]. Random and hand-built DAGs, uniform
//!   and heterogeneous machines, P in 1..=64, both policies.

use loggp::{presets, LinkOverride, MachineSpec, Time};
use predsim_dag::{generate, SchedulerKind, TaskDag};
use proptest::prelude::*;

/// The earliest-finish-time loop: for each task in `order`, each
/// candidate processor, each input edge.
fn oracle_eft(dag: &TaskDag, machine: &MachineSpec, order: &[usize]) -> Vec<usize> {
    let p = machine.procs();
    let n = dag.tasks().len();
    let mut proc_free = vec![0u64; p];
    let mut finish = vec![0u64; n];
    let mut proc_of = vec![0usize; n];
    for &t in order {
        let mut best_fin = u64::MAX;
        let mut best_proc = 0usize;
        for (q, &free) in proc_free.iter().enumerate() {
            let mut ready = 0u64;
            for &e in dag.preds(t) {
                let edge = dag.edges()[e];
                let src_proc = proc_of[edge.src];
                let arrival = if src_proc == q {
                    finish[edge.src]
                } else {
                    let cost = machine.link_params(src_proc, q).message_cost(edge.bytes);
                    finish[edge.src].saturating_add(cost.as_ps())
                };
                ready = ready.max(arrival);
            }
            let start = ready.max(free);
            let fin = start.saturating_add(machine.scale_comp(q, dag.comp_ps(t)).as_ps());
            if fin < best_fin {
                best_fin = fin;
                best_proc = q;
            }
        }
        finish[t] = best_fin;
        proc_of[t] = best_proc;
        proc_free[best_proc] = best_fin;
    }
    proc_of
}

/// HEFT's order: descending upward rank, ties by topological position.
fn heft_order(dag: &TaskDag, machine: &MachineSpec, topo: &[usize]) -> Vec<usize> {
    let p = machine.procs() as u128;
    let n = dag.tasks().len();
    let mut rank = vec![0u128; n];
    for &t in topo.iter().rev() {
        let mean_comp: u128 = (0..machine.procs())
            .map(|q| machine.scale_comp(q, dag.comp_ps(t)).as_ps() as u128)
            .sum::<u128>()
            / p;
        let mut down = 0u128;
        for &e in dag.succs(t) {
            let edge = dag.edges()[e];
            let wire = machine.base.message_cost(edge.bytes).as_ps() as u128;
            down = down.max(wire * (p - 1) / p + rank[edge.dst]);
        }
        rank[t] = mean_comp + down;
    }
    let mut topo_pos = vec![0usize; n];
    for (i, &t) in topo.iter().enumerate() {
        topo_pos[t] = i;
    }
    let mut by_rank: Vec<usize> = (0..n).collect();
    by_rank.sort_by(|&a, &b| rank[b].cmp(&rank[a]).then(topo_pos[a].cmp(&topo_pos[b])));
    by_rank
}

/// The oracle's placement under `kind` (min-ready or HEFT).
fn oracle(kind: SchedulerKind, dag: &TaskDag, machine: &MachineSpec) -> Vec<usize> {
    let topo = dag.topo_order().expect("dag validates");
    match kind {
        SchedulerKind::MinReady => oracle_eft(dag, machine, &topo),
        SchedulerKind::Heft => oracle_eft(dag, machine, &heft_order(dag, machine, &topo)),
        SchedulerKind::RoundRobin => unreachable!("round-robin charges nothing"),
    }
}

const EFT_POLICIES: [SchedulerKind; 2] = [SchedulerKind::MinReady, SchedulerKind::Heft];

/// `base` with its latency, per-byte gap and overhead scaled by
/// `num / den`, the gap raised to the overhead where it would fall below.
fn link(base: &loggp::LogGpParams, src: usize, dst: usize, num: u64, den: u64) -> LinkOverride {
    let scale = |t: Time| Time::from_ps(t.as_ps() * num / den);
    let overhead = scale(base.overhead);
    LinkOverride {
        src,
        dst,
        latency: scale(base.latency),
        overhead,
        gap: base.gap.max(overhead),
        gap_per_byte: scale(base.gap_per_byte),
    }
}

/// The pinned heterogeneous machine: eight meiko processors at four
/// speeds, and four link overrides, two of them (one dearer, one
/// cheaper) into processor 0.
fn het8() -> MachineSpec {
    let base = presets::meiko_cs2(8);
    let mut m = MachineSpec::uniform(base);
    m.speed_permille = vec![2000, 1000, 1000, 500, 1500, 1000, 750, 1000];
    m.links = vec![
        link(&base, 1, 0, 4, 1),
        link(&base, 2, 0, 1, 4),
        link(&base, 5, 3, 8, 1),
        link(&base, 0, 7, 1, 2),
    ];
    m.validate().expect("pinned machine validates");
    m
}

fn machine(name: &str, procs: usize) -> MachineSpec {
    if name == "het8" {
        assert_eq!(procs, 8);
        return het8();
    }
    MachineSpec::uniform(presets::by_name(name, procs).expect("known preset"))
}

/// FNV-1a over each placement's length and processors, as `u64`s.
fn digest<'a>(placements: impl IntoIterator<Item = &'a [usize]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for proc_of in placements {
        for v in std::iter::once(proc_of.len()).chain(proc_of.iter().copied()) {
            for b in (v as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `(generator spec, procs, machine, min-ready digest, HEFT digest)`.
/// A `#` in the spec stands for every seed in 0..16, all in one digest.
/// The layered rows are the large-p sources (`…,16,64,…` at P = 64)
/// and serve-mix's DAG bodies (`…,16,32,…` at P = 16); the fork-join
/// rows are the CLI tests' and `BENCH_DAG.json`'s shapes.
const PINNED: [(&str, usize, &str, u64, u64); 14] = [
    (
        "layered:#,16,64,2000000,65536",
        64,
        "meiko",
        0x4545_700f_9dc8_e3d3,
        0xd8e1_d964_b816_31fd,
    ),
    (
        "layered:#,16,64,2000000,65536",
        64,
        "paragon",
        0xdb8e_27c7_1a5a_8a05,
        0x2a20_fb90_3bcd_a79d,
    ),
    (
        "layered:#,16,64,2000000,65536",
        64,
        "myrinet",
        0x7ca4_8373_376b_ce48,
        0xf558_84a1_0733_2ea3,
    ),
    (
        "layered:#,16,32,1000000,16384",
        16,
        "meiko",
        0x366d_9f57_219f_06f0,
        0xf08c_c37c_ed8b_1026,
    ),
    (
        "layered:#,16,32,1000000,16384",
        16,
        "paragon",
        0x667f_f88d_658c_c9c2,
        0xa77a_c1de_bc99_6fd2,
    ),
    (
        "layered:#,16,32,1000000,16384",
        16,
        "myrinet",
        0xfbc7_36ef_db64_65b9,
        0x693f_1a3a_7da1_2657,
    ),
    (
        "forkjoin:8,1,1000000,8192",
        4,
        "meiko",
        0x14bc_d9e7_48bd_80cf,
        0x14bc_d9e7_48bd_80cf,
    ),
    (
        "forkjoin:4,1,100000,1024",
        4,
        "meiko",
        0x910c_c3a4_03ee_14e0,
        0x910c_c3a4_03ee_14e0,
    ),
    (
        "forkjoin:32,1,1000000,8192",
        16,
        "meiko",
        0x1fb5_1cb3_4b81_a7a7,
        0x1fb5_1cb3_4b81_a7a7,
    ),
    (
        "mapreduce:8,4,50000,100000,4096",
        6,
        "paragon",
        0x67b7_55ac_d78c_96ea,
        0x67b7_55ac_d78c_96ea,
    ),
    (
        "layered:#,16,32,1000000,16384",
        8,
        "het8",
        0x1651_1f0f_b668_01bc,
        0x9996_61a7_d7ef_5d21,
    ),
    (
        "forkjoin:8,1,1000000,8192",
        8,
        "het8",
        0x059f_5438_aae9_2b8e,
        0x059f_5438_aae9_2b8e,
    ),
    (
        "forkjoin:4,3,100000,0",
        8,
        "het8",
        0x72bb_175c_b333_7b36,
        0x72bb_175c_b333_7b36,
    ),
    (
        "mapreduce:8,4,50000,100000,4096",
        8,
        "het8",
        0x50d8_8d8f_4560_a36c,
        0x50d8_8d8f_4560_a36c,
    ),
];

#[test]
fn placements_are_pinned_by_digest() {
    let mut wrong = Vec::new();
    for (spec, procs, name, want_min_ready, want_heft) in PINNED {
        let dags: Vec<TaskDag> = if spec.contains('#') {
            (0..16)
                .map(|s| generate::from_spec(&spec.replace('#', &s.to_string())).unwrap())
                .collect()
        } else {
            vec![generate::from_spec(spec).unwrap()]
        };
        let m = machine(name, procs);
        for (kind, want) in [
            (SchedulerKind::MinReady, want_min_ready),
            (SchedulerKind::Heft, want_heft),
        ] {
            let placements: Vec<Vec<usize>> =
                dags.iter().map(|d| kind.place(d, &m).proc_of).collect();
            let got = digest(placements.iter().map(Vec::as_slice));
            if got != want {
                wrong.push(format!("{spec} @ {procs} on {name}, {kind:?}: {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "placements moved:\n{}", wrong.join("\n"));
}

/// splitmix64, for drawing machines and hand-built DAGs from one seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A machine of `procs` processors on one of the five presets. `hetero`
/// picks uniform (0), speed factors (1), link overrides (2) or both (3).
/// Overrides number up to 4 and are each between 16x cheaper and 16x
/// dearer than the base. When `rng` says so they all join processors
/// 0–3, which the earliest-finish-time rule fills first, into one
/// destination, so that several overridden groups compete for the
/// largest remote times; otherwise they join random pairs, most of whose
/// sources hold no input on a wide machine.
fn random_machine(rng: &mut u64, procs: usize, hetero: u8) -> MachineSpec {
    let name = presets::SHORT_NAMES[(next(rng) % 5) as usize];
    let base = presets::by_name(name, procs).unwrap();
    let mut m = MachineSpec::uniform(base);
    if hetero & 1 == 1 {
        m.speed_permille = (0..procs).map(|_| 250 + next(rng) % 2000).collect();
    }
    if hetero & 2 == 2 && procs >= 2 {
        let one_dst = next(rng).is_multiple_of(2);
        let dst0 = (next(rng) % procs.min(4) as u64) as usize;
        for _ in 0..1 + next(rng) % 4 {
            let dst = if one_dst {
                dst0
            } else {
                (next(rng) % procs as u64) as usize
            };
            let src = (next(rng) % if one_dst { procs.min(4) } else { procs } as u64) as usize;
            if src == dst || m.links.iter().any(|l| (l.src, l.dst) == (src, dst)) {
                continue;
            }
            let (num, den) =
                [(1, 16), (1, 4), (1, 2), (2, 1), (4, 1), (16, 1)][(next(rng) % 6) as usize];
            m.links.push(link(&base, src, dst, num, den));
        }
    }
    m.validate().expect("drawn machine validates");
    m
}

/// A hand-built DAG of `tasks` tasks: each pair `i < j` is an edge with
/// probability `density` percent, carrying 0 bytes (a pure precedence
/// edge) a quarter of the time. Density 0 gives roots only.
fn random_dag(rng: &mut u64, tasks: usize, density: u64) -> TaskDag {
    let mut d = TaskDag::new("hand", 500);
    for i in 0..tasks {
        d.add_task(format!("t{i}"), next(rng) % 200_000).unwrap();
    }
    for j in 0..tasks {
        for i in 0..j {
            if next(rng) % 100 < density {
                let bytes = if next(rng).is_multiple_of(4) {
                    0
                } else {
                    (next(rng) % 65_536) as usize
                };
                d.add_edge(i, j, bytes).unwrap();
            }
        }
    }
    d.validate().unwrap();
    d
}

fn assert_matches_oracle(dag: &TaskDag, m: &MachineSpec) {
    for kind in EFT_POLICIES {
        assert_eq!(
            kind.place(dag, m).proc_of,
            oracle(kind, dag, m),
            "{kind:?} on {} tasks, {} edges, {} procs, {} links",
            dag.tasks().len(),
            dag.edges().len(),
            m.procs(),
            m.links.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn generated_dags_place_as_the_oracle_does(
        shape in 0u8..3,
        (a, b) in (1usize..9, 0usize..9),
        flops in 1u64..400_000,
        bytes in 0usize..70_000,
        procs in 1usize..=64,
        hetero in 0u8..4,
        seed in any::<u64>(),
    ) {
        let dag = match shape {
            0 => generate::random_layered(seed, a, b + 1, flops, bytes),
            1 => generate::fork_join(a, b.max(1), flops, bytes),
            _ => generate::map_reduce(a, b, flops, flops / 2 + 1, bytes),
        };
        let mut rng = seed;
        let m = random_machine(&mut rng, procs, hetero);
        assert_matches_oracle(&dag, &m);
    }

    #[test]
    fn hand_built_dags_place_as_the_oracle_does(
        tasks in 1usize..40,
        density in prop_oneof![Just(0u64), 5u64..30, 50u64..100],
        procs in 1usize..=64,
        hetero in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = seed;
        let dag = random_dag(&mut rng, tasks, density);
        let m = random_machine(&mut rng, procs, hetero);
        assert_matches_oracle(&dag, &m);
    }
}

#[test]
fn overrides_are_read_as_link_params_reads_them() {
    // An unvalidated machine: `link_params` takes the first override of a
    // pair, and never consults a self-loop or a link off the machine.
    let base = presets::meiko_cs2(4);
    let mut m = MachineSpec::uniform(base);
    m.links = vec![
        link(&base, 1, 0, 1, 16),
        link(&base, 1, 0, 16, 1),
        link(&base, 2, 2, 1, 16),
        link(&base, 3, 9, 1, 16),
        link(&base, 9, 3, 1, 16),
        link(&base, 3, 0, 16, 1),
    ];
    for seed in 0..32 {
        let dag = generate::random_layered(seed, 6, 6, 300_000, 65_536);
        assert_matches_oracle(&dag, &m);
    }
}
