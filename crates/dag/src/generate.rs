//! Deterministic DAG generators.
//!
//! Three shapes cover the benchmark space: **fork-join** (the classic
//! bulk-synchronous shape the paper's applications follow), **map-reduce**
//! (an all-to-all shuffle between two uneven phases), and a **random
//! layered DAG** grown from a seed (splitmix64, so the same spec string
//! builds the same DAG on every platform).
//!
//! All generators charge [`PS_PER_FLOP`] picoseconds per flop — a 2
//! GFLOP/s base processor, in the range of the paper's Meiko CS-2 nodes.

use crate::model::{TaskDag, MAX_EDGES, MAX_TASKS};

/// Picoseconds per flop used by every shipped generator (2 GFLOP/s).
pub const PS_PER_FLOP: u64 = 500;

/// Fork-join: a source task, then `stages` rounds of `width` parallel
/// workers funneled through a join task. `1 + stages × (width + 1)`
/// tasks; every edge carries `bytes`.
pub fn fork_join(width: usize, stages: usize, flops: u64, bytes: usize) -> TaskDag {
    let mut d = TaskDag::new("forkjoin", PS_PER_FLOP);
    let mut hub = d.add_task("src", flops).expect("fresh dag");
    for s in 0..stages {
        let mut workers = Vec::with_capacity(width);
        for i in 0..width {
            let w = d.add_task(format!("s{s}w{i}"), flops).expect("unique name");
            d.add_edge(hub, w, bytes).expect("valid edge");
            workers.push(w);
        }
        let join = d.add_task(format!("join{s}"), flops).expect("unique name");
        for w in workers {
            d.add_edge(w, join, bytes).expect("valid edge");
        }
        hub = join;
    }
    d
}

/// Map-reduce: a splitter fans out to `maps` mappers, an all-pairs
/// shuffle feeds `reducers` reducers, and a sink collects the results.
/// `maps + reducers + 2` tasks; shuffle and fan edges carry `bytes`.
pub fn map_reduce(
    maps: usize,
    reducers: usize,
    map_flops: u64,
    reduce_flops: u64,
    bytes: usize,
) -> TaskDag {
    let mut d = TaskDag::new("mapreduce", PS_PER_FLOP);
    let split = d.add_task("split", 1).expect("fresh dag");
    let mut map_ids = Vec::with_capacity(maps);
    for i in 0..maps {
        let m = d
            .add_task(format!("map{i}"), map_flops)
            .expect("unique name");
        d.add_edge(split, m, bytes).expect("valid edge");
        map_ids.push(m);
    }
    let sink = d.add_task("sink", 1).expect("unique name");
    for j in 0..reducers {
        let r = d
            .add_task(format!("reduce{j}"), reduce_flops)
            .expect("unique name");
        for &m in &map_ids {
            d.add_edge(m, r, bytes).expect("valid edge");
        }
        d.add_edge(r, sink, bytes).expect("valid edge");
    }
    d
}

/// splitmix64: the standard 64-bit mixing PRNG (public domain, Vigna).
/// Deterministic and platform-independent.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A random layered DAG: `layers` layers of `1..=width` tasks each;
/// every task past the first layer draws at least one predecessor from
/// the previous layer. Costs are uniform in `1..=max_flops` flops and
/// `1..=max_bytes` bytes. The same seed always builds the same DAG.
pub fn random_layered(
    seed: u64,
    layers: usize,
    width: usize,
    max_flops: u64,
    max_bytes: usize,
) -> TaskDag {
    layered_within(seed, layers, width, max_flops, max_bytes, usize::MAX).expect("no edge limit")
}

/// [`random_layered`], or `None` as soon as it would add edge
/// `max_edges + 1`: the number of edges is only known by drawing them.
fn layered_within(
    seed: u64,
    layers: usize,
    width: usize,
    max_flops: u64,
    max_bytes: usize,
    max_edges: usize,
) -> Option<TaskDag> {
    let layers = layers.max(1);
    let width = width.max(1);
    let max_flops = max_flops.max(1);
    let max_bytes = max_bytes.max(1);
    let mut rng = seed;
    let mut d = TaskDag::new(format!("layered{seed}"), PS_PER_FLOP);
    let mut prev: Vec<usize> = Vec::new();
    for l in 0..layers {
        let count = 1 + (splitmix64(&mut rng) as usize) % width;
        let mut layer = Vec::with_capacity(count);
        for i in 0..count {
            let flops = 1 + splitmix64(&mut rng) % max_flops;
            let t = d.add_task(format!("l{l}t{i}"), flops).expect("unique name");
            if !prev.is_empty() {
                let picks = 1 + (splitmix64(&mut rng) as usize) % prev.len();
                let mut from = prev.clone();
                for _ in 0..picks {
                    if d.edges().len() == max_edges {
                        return None;
                    }
                    let j = (splitmix64(&mut rng) as usize) % from.len();
                    let p = from.swap_remove(j);
                    let bytes = 1 + (splitmix64(&mut rng) as usize) % max_bytes;
                    d.add_edge(p, t, bytes).expect("valid edge");
                }
            }
            layer.push(t);
        }
        prev = layer;
    }
    Some(d)
}

/// Build a DAG from a generator spec:
///
/// * `forkjoin:WIDTH,STAGES,FLOPS,BYTES`
/// * `mapreduce:MAPS,REDUCERS,MAP_FLOPS,REDUCE_FLOPS,BYTES`
/// * `layered:SEED,LAYERS,WIDTH,MAX_FLOPS,MAX_BYTES`
///
/// A spec whose DAG would have more than [`MAX_TASKS`] tasks or
/// [`MAX_EDGES`] edges is refused: fork-join and map-reduce specs before
/// anything is allocated, by their exact counts, and a layered spec (whose
/// edges are drawn) at the first edge past the limit.
pub fn from_spec(spec: &str) -> Result<TaskDag, String> {
    let (kind, body) = spec
        .split_once(':')
        .ok_or_else(|| format!("dag spec '{spec}' has no ':' (expected KIND:ARGS)"))?;
    let nums: Vec<u64> = body
        .split(',')
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("dag spec '{spec}': '{s}' is not an unsigned integer"))
        })
        .collect::<Result<_, _>>()?;
    let arity = |n: usize, shape: &str| {
        if nums.len() == n {
            Ok(())
        } else {
            Err(format!("dag spec '{spec}': expected {shape}"))
        }
    };
    let cap = |tasks: Option<u64>| match tasks {
        Some(n) if n <= MAX_TASKS as u64 => Ok(()),
        _ => Err(format!(
            "dag spec '{spec}': more tasks than the supported maximum of {MAX_TASKS}"
        )),
    };
    let too_many_edges =
        || format!("dag spec '{spec}': more edges than the supported maximum of {MAX_EDGES}");
    let edge_cap = |edges: Option<u64>| match edges {
        Some(n) if n <= MAX_EDGES as u64 => Ok(()),
        _ => Err(too_many_edges()),
    };
    let dag = match kind {
        "forkjoin" => {
            arity(4, "forkjoin:WIDTH,STAGES,FLOPS,BYTES")?;
            cap(nums[0]
                .checked_add(1)
                .and_then(|w| w.checked_mul(nums[1]))
                .and_then(|n| n.checked_add(1)))?;
            // Two edges per worker and stage; with no stages WIDTH is
            // unbounded and there are no edges.
            edge_cap(nums[1].checked_mul(nums[0]).and_then(|e| e.checked_mul(2)))?;
            fork_join(
                nums[0] as usize,
                nums[1] as usize,
                nums[2],
                nums[3] as usize,
            )
        }
        "mapreduce" => {
            arity(5, "mapreduce:MAPS,REDUCERS,MAP_FLOPS,REDUCE_FLOPS,BYTES")?;
            cap(nums[0].checked_add(nums[1]).and_then(|n| n.checked_add(2)))?;
            // Within the task cap the shuffle's MAPS x REDUCERS cannot
            // overflow.
            edge_cap(Some(nums[0] + nums[0] * nums[1] + nums[1]))?;
            map_reduce(
                nums[0] as usize,
                nums[1] as usize,
                nums[2],
                nums[3],
                nums[4] as usize,
            )
        }
        "layered" => {
            arity(5, "layered:SEED,LAYERS,WIDTH,MAX_FLOPS,MAX_BYTES")?;
            cap(nums[1].max(1).checked_mul(nums[2].max(1)))?;
            layered_within(
                nums[0],
                nums[1] as usize,
                nums[2] as usize,
                nums[3],
                nums[4] as usize,
                MAX_EDGES,
            )
            .ok_or_else(too_many_edges)?
        }
        other => return Err(format!("unknown dag generator '{other}'")),
    };
    dag.validate()?;
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format;

    #[test]
    fn fork_join_has_the_documented_shape() {
        let d = fork_join(32, 1, 100_000, 8192);
        assert_eq!(d.tasks().len(), 34, "1 + 1 * (32 + 1)");
        assert_eq!(d.edges().len(), 64);
        d.validate().unwrap();
        let d2 = fork_join(4, 3, 10, 64);
        assert_eq!(d2.tasks().len(), 1 + 3 * 5);
        d2.validate().unwrap();
    }

    #[test]
    fn map_reduce_shuffles_all_pairs() {
        let d = map_reduce(4, 2, 1000, 2000, 256);
        assert_eq!(d.tasks().len(), 8);
        // 4 fan-out + 4*2 shuffle + 2 fan-in.
        assert_eq!(d.edges().len(), 14);
        d.validate().unwrap();
    }

    #[test]
    fn random_layered_is_deterministic_and_valid() {
        for seed in 0..20 {
            let d = random_layered(seed, 5, 6, 5000, 4096);
            d.validate().unwrap();
            assert_eq!(d, random_layered(seed, 5, 6, 5000, 4096));
            // Every non-root task has at least one predecessor.
            let roots = (0..d.tasks().len())
                .filter(|&t| d.preds(t).is_empty())
                .count();
            assert!(roots >= 1);
        }
        assert_ne!(
            random_layered(1, 5, 6, 5000, 4096),
            random_layered(2, 5, 6, 5000, 4096)
        );
    }

    #[test]
    fn specs_build_round_trippable_dags() {
        for spec in [
            "forkjoin:32,1,100000,8192",
            "mapreduce:8,4,50000,100000,4096",
            "layered:42,6,5,10000,2048",
        ] {
            let d = from_spec(spec).unwrap();
            let text = format::dump(&d);
            assert_eq!(format::parse(&text).unwrap(), d, "{spec}");
        }
        assert!(from_spec("forkjoin:1,2").is_err(), "arity");
        assert!(from_spec("ring:4").is_err(), "unknown kind");
        assert!(from_spec("forkjoin:a,b,c,d").is_err(), "bad int");
        assert!(from_spec("noargs").is_err(), "no colon");
        // Task counts are capped before anything is allocated.
        assert_eq!(
            from_spec("forkjoin:4094,1,1,1").unwrap().tasks().len(),
            4096
        );
        for big in [
            "forkjoin:4095,1,1,1",
            "forkjoin:4000000000,1,1000,8",
            "forkjoin:18446744073709551615,2,1,1",
            "mapreduce:4095,0,1,1,1",
            "layered:1,4097,1,1,1",
            "layered:1,4294967296,4294967296,1,1",
        ] {
            let err = from_spec(big).unwrap_err();
            assert!(err.contains("maximum of 4096"), "{big}: {err}");
        }
    }

    #[test]
    fn specs_past_the_edge_limit_are_refused() {
        // Map-reduce edges are counted before generating: 255 + 255 x 255
        // + 255 = 65,535 builds, 256 + 256 x 255 + 255 = 65,791 does not.
        assert_eq!(
            from_spec("mapreduce:255,255,1,1,1").unwrap().edges().len(),
            65_535
        );
        // Layered edges are drawn: 65,468 for seed 29 at width 706, 65,569
        // for seed 38 at width 720, and 1,216,596 for seed 1 at 2048.
        assert_eq!(
            from_spec("layered:29,2,706,1,1").unwrap().edges().len(),
            65_468
        );
        for big in [
            "mapreduce:256,255,1,1,1",
            "mapreduce:2047,2047,1,1,1",
            "layered:38,2,720,1,1",
            "layered:1,2,2048,1,1",
        ] {
            let err = from_spec(big).unwrap_err();
            assert_eq!(
                err,
                format!("dag spec '{big}': more edges than the supported maximum of 65536")
            );
        }
        assert_eq!(
            from_spec("forkjoin:18446744073709551614,0,1,1")
                .unwrap()
                .tasks()
                .len(),
            1
        );
        // The layered generator stops at the first edge past its limit.
        assert!(layered_within(29, 2, 706, 1, 1, 65_468).is_some());
        assert!(layered_within(29, 2, 706, 1, 1, 65_467).is_none());
    }
}
