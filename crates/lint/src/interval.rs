//! Cost-interval abstract interpretation: simulation-free `[lo, hi]`
//! virtual-time brackets under a LogGP machine.
//!
//! The simulators bracket a program's measured running time between the
//! standard and worst-case algorithms; this module brackets the *simulation
//! itself* without running it. [`analyze`] walks each step's communication
//! dependence graph and folds per-processor intervals through the same
//! step sequence [`predsim_core::simulate_program`] uses, producing
//!
//! * `lo` — a provable floor for the standard algorithm: every term is a
//!   consequence of commit mechanics both algorithms share (a processor's
//!   consecutive same-kind operations start at least `max(g, o)` apart
//!   under both the extended and the classic gap rule; a receive never
//!   starts before its message arrives; sends leave in program order);
//! * `hi` — a provable ceiling for the worst-case algorithm: on acyclic
//!   patterns the processors are walked in topological order with
//!   receive/send ladders (an operation becomes ready at most
//!   `max(g, o)` after the previous operation's start, under either gap
//!   rule); on patterns that can force transmissions, every processor
//!   reachable from a cycle is folded into one *blob* whose ceiling
//!   charges each message `2·max(g,o) + G·(k-1) + L` on top of the blob's
//!   entry time — a potential argument that holds for any forcing order
//!   and any seed.
//!
//! The interpreter also attributes the ceiling: each step's dominant chain
//! is classified by its largest LogGP term ([`Bottleneck`]) and chained
//! into a static critical path of `proc:step` spans.
//!
//! Soundness (enforced by the property suite in `tests/intervals.rs`):
//! `lo ≤ simulate_standard ≤ hi` and `lo ≤ simulate_worst_case ≤ hi` for
//! every machine, both gap rules, any seed — with faults disabled. The
//! bracket holds around each simulator *independently*: the middle
//! inequality `standard ≤ worst_case` is not a theorem for multi-step
//! programs (staggered entry fronts can let the receive-first schedule
//! finish early; the suite pins a counterexample) and is asserted only
//! for the shipped generators. Fault injection
//! inflates computation charges unpredictably, so faulted jobs must report
//! intervals as unavailable rather than unsound; callers gate on that.

use crate::json::Value;
use crate::ProgramView;
use commsim::graph::Tarjan;
use commsim::{CommPattern, Message};
use loggp::{LogGpParams, Time};
use predsim_core::simulate::{Overlap, Synchronization};
use std::collections::VecDeque;

/// Which LogGP term dominates a step's static ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bottleneck {
    /// Computation charges dominate.
    Compute,
    /// The wire latency `L` dominates.
    Latency,
    /// Send/receive overheads `o` dominate.
    Overhead,
    /// Gap serialization (`g` between port operations) dominates.
    Gap,
    /// Per-byte bandwidth (`G·(k-1)` wire time) dominates.
    Bandwidth,
}

impl Bottleneck {
    /// Lower-case name, as used in JSON and rendered output.
    pub fn as_str(self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute",
            Bottleneck::Latency => "latency",
            Bottleneck::Overhead => "overhead",
            Bottleneck::Gap => "gap",
            Bottleneck::Bandwidth => "bandwidth",
        }
    }
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-term accumulator carried along the ceiling's dominant chain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Computation charges on the chain.
    pub comp: Time,
    /// Sum of `L` terms.
    pub latency: Time,
    /// Sum of `o` terms.
    pub overhead: Time,
    /// Sum of `max(g, o)` separation terms.
    pub gap: Time,
    /// Sum of `G·(k-1)` wire-time terms.
    pub wire: Time,
}

impl Breakdown {
    /// The largest component. Ties resolve in the order compute, gap,
    /// bandwidth, latency, overhead; an all-zero breakdown is compute.
    pub fn dominant(&self) -> Bottleneck {
        let mut best = (self.comp, Bottleneck::Compute);
        for (t, b) in [
            (self.gap, Bottleneck::Gap),
            (self.wire, Bottleneck::Bandwidth),
            (self.latency, Bottleneck::Latency),
            (self.overhead, Bottleneck::Overhead),
        ] {
            if t > best.0 {
                best = (t, b);
            }
        }
        best.1
    }

    /// Sum of all components.
    pub fn total(&self) -> Time {
        self.comp + self.latency + self.overhead + self.gap + self.wire
    }
}

/// A point on the ceiling's chain: a time, the terms that built it this
/// step, and the processor whose step-entry readiness seeded the chain.
#[derive(Clone, Copy)]
struct Cost {
    t: Time,
    brk: Breakdown,
    from: usize,
}

impl Cost {
    fn seed(t: Time, from: usize) -> Cost {
        Cost {
            t,
            brk: Breakdown::default(),
            from,
        }
    }

    fn max(self, other: Cost) -> Cost {
        if other.t > self.t {
            other
        } else {
            self
        }
    }

    fn comp(mut self, t: Time) -> Cost {
        self.t += t;
        self.brk.comp += t;
        self
    }

    fn latency(mut self, t: Time) -> Cost {
        self.t += t;
        self.brk.latency += t;
        self
    }

    fn overhead(mut self, t: Time) -> Cost {
        self.t += t;
        self.brk.overhead += t;
        self
    }

    fn gap(mut self, t: Time) -> Cost {
        self.t += t;
        self.brk.gap += t;
        self
    }

    fn wire(mut self, t: Time) -> Cost {
        self.t += t;
        self.brk.wire += t;
        self
    }
}

/// Configuration of a bounds run: the machine and the step-chaining
/// extensions the simulation would use. The bracket covers both
/// communication algorithms, both gap rules and every seed, so none of
/// those appear here.
#[derive(Clone, Copy, Debug)]
pub struct BoundsConfig {
    /// The machine model.
    pub params: LogGpParams,
    /// Step synchronization (mirrored from the simulation options).
    pub sync: Synchronization,
    /// Communication/computation overlap (mirrored likewise).
    pub overlap: Overlap,
}

impl BoundsConfig {
    /// Paper defaults: per-processor chaining, no overlap.
    pub fn new(params: LogGpParams) -> BoundsConfig {
        BoundsConfig {
            params,
            sync: Synchronization::PerProcessor,
            overlap: Overlap::None,
        }
    }

    /// This configuration with BSP-style barrier synchronization.
    pub fn with_sync(mut self, sync: Synchronization) -> BoundsConfig {
        self.sync = sync;
        self
    }

    /// This configuration with a different overlap extension.
    pub fn with_overlap(mut self, overlap: Overlap) -> BoundsConfig {
        self.overlap = overlap;
        self
    }
}

/// Static interval of one step, cumulative from program start.
#[derive(Clone, Debug)]
pub struct StepBounds {
    /// 0-based step index.
    pub step: usize,
    /// The step's label.
    pub label: String,
    /// Floor on the program front after this step.
    pub lo_end: Time,
    /// Ceiling on the program front after this step.
    pub hi_end: Time,
    /// Ceiling growth contributed by this step (`hi_end - previous`).
    pub span_hi: Time,
    /// The LogGP term dominating the step's ceiling chain.
    pub class: Bottleneck,
    /// The processor the ceiling chain ends on.
    pub proc: usize,
    /// The dominant chain's per-term decomposition for this step.
    pub breakdown: Breakdown,
}

/// One `proc:step` span of the static critical path.
#[derive(Clone, Debug)]
pub struct PathSpan {
    /// 0-based step index.
    pub step: usize,
    /// The step's label.
    pub label: String,
    /// The processor carrying the ceiling chain through this step.
    pub proc: usize,
    /// The term dominating that processor's chain in this step.
    pub class: Bottleneck,
}

/// Whole-program result of the cost-interval interpreter.
#[derive(Clone, Debug)]
pub struct ProgramBounds {
    /// Provable floor on the standard algorithm's total.
    pub lo: Time,
    /// Provable ceiling on the worst-case algorithm's total.
    pub hi: Time,
    /// Final per-processor `[lo, hi]` finish intervals.
    pub per_proc: Vec<(Time, Time)>,
    /// Per-step cumulative intervals with bottleneck attribution.
    pub steps: Vec<StepBounds>,
    /// The chain of `proc:step` spans realizing the ceiling.
    pub critical_path: Vec<PathSpan>,
}

fn time_value(t: Time) -> Value {
    Value::Int(t.as_ps().min(i64::MAX as u64) as i64)
}

impl ProgramBounds {
    /// Whether a total lies inside the program interval. Every simulated
    /// total — standard or worst-case — must satisfy this; the serve
    /// layer's degraded tiers and the chaos soak use it to check that an
    /// estimate-only answer still brackets the true prediction.
    pub fn contains(&self, total: Time) -> bool {
        self.lo <= total && total <= self.hi
    }

    /// The interval as a JSON object (the `--bounds --json` /
    /// `/v1/estimate` wire schema; both surfaces render this same value,
    /// byte for byte).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("static_lo_ps".into(), time_value(self.lo)),
            ("static_hi_ps".into(), time_value(self.hi)),
            (
                "per_proc".into(),
                Value::Array(
                    self.per_proc
                        .iter()
                        .enumerate()
                        .map(|(p, &(lo, hi))| {
                            Value::Object(vec![
                                ("proc".into(), Value::Int(p as i64)),
                                ("lo_ps".into(), time_value(lo)),
                                ("hi_ps".into(), time_value(hi)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "steps".into(),
                Value::Array(
                    self.steps
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                ("step".into(), Value::Int(s.step as i64)),
                                ("label".into(), Value::Str(s.label.clone())),
                                ("lo_ps".into(), time_value(s.lo_end)),
                                ("hi_ps".into(), time_value(s.hi_end)),
                                ("span_ps".into(), time_value(s.span_hi)),
                                ("class".into(), Value::Str(s.class.as_str().into())),
                                ("proc".into(), Value::Int(s.proc as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "critical_path".into(),
                Value::Array(
                    self.critical_path
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                ("step".into(), Value::Int(s.step as i64)),
                                ("label".into(), Value::Str(s.label.clone())),
                                ("proc".into(), Value::Int(s.proc as i64)),
                                ("class".into(), Value::Str(s.class.as_str().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable rendering for `predsim check --bounds`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "static bounds: [{}, {}]", self.lo, self.hi);
        let spread = if self.lo.is_zero() {
            None
        } else {
            Some(self.hi.as_us_f64() / self.lo.as_us_f64())
        };
        match spread {
            Some(r) => {
                let _ = writeln!(out, "  bracket spread: {r:.2}x");
            }
            None => {
                let _ = writeln!(out, "  bracket spread: unbounded (floor is zero)");
            }
        }
        if !self.critical_path.is_empty() {
            let spans: Vec<String> = self
                .critical_path
                .iter()
                .map(|s| format!("P{}:step {} ('{}') [{}]", s.proc, s.step, s.label, s.class))
                .collect();
            let rendered = if spans.len() > 12 {
                format!(
                    "{} -> ... -> {}",
                    spans[..6].join(" -> "),
                    spans[spans.len() - 6..].join(" -> ")
                )
            } else {
                spans.join(" -> ")
            };
            let _ = writeln!(
                out,
                "  critical path ({} spans): {rendered}",
                self.critical_path.len()
            );
        }
        for s in &self.steps {
            let _ = writeln!(
                out,
                "  step {:>3} ('{}'): [{}, {}]  +{}  {}-bound at P{}",
                s.step, s.label, s.lo_end, s.hi_end, s.span_hi, s.class, s.proc
            );
        }
        out
    }
}

/// Reusable per-step buffers. The interpreter visits many small steps,
/// and its profile was dominated by per-step allocation — every
/// proc-indexed buffer therefore lives here and is cleared with its
/// capacity kept between steps, so a step allocates only while a buffer
/// grows.
struct Scratch {
    /// Per-proc FIFO send queues (what [`CommPattern::send_queues`]
    /// builds, without the per-step allocation).
    queues: Vec<VecDeque<Message>>,
    /// Per-proc network receive counts.
    recvs: Vec<usize>,
    /// Per-proc successor lists of the processor graph.
    adj: Vec<Vec<usize>>,
    /// Floor pass: lower-bounded arrival times per destination.
    arr_lo: Vec<Vec<Time>>,
    /// Ceiling pass: upper-bounded arrival costs per destination.
    arrivals: Vec<Vec<Cost>>,
    /// Ceiling pass: the processor graph's strongly connected components.
    sccs: Tarjan,
    /// Ceiling pass: per component, whether a cycle reaches it.
    tainted: Vec<bool>,
    /// Ceiling pass: per-component successor lists (≤ procs entries).
    comp_succ: Vec<Vec<usize>>,
    /// Per proc: floor of the step's entry front, where its computation
    /// ends and its communication starts.
    lo_c: Vec<Time>,
    /// Per proc: ceiling of the step's entry front.
    hi_c: Vec<Cost>,
    /// Per proc: floor of the end of its last communication operation.
    lo_done: Vec<Time>,
    /// Per proc: floor of the end of its last receive.
    lo_recv: Vec<Time>,
    /// Per proc: ceiling of the end of its last communication operation.
    hi_done: Vec<Cost>,
    /// Per proc: ceiling of the end of its last receive.
    hi_recv: Vec<Cost>,
}

impl Scratch {
    fn new(procs: usize) -> Scratch {
        Scratch {
            queues: vec![VecDeque::new(); procs],
            recvs: vec![0; procs],
            adj: vec![Vec::new(); procs],
            arr_lo: vec![Vec::new(); procs],
            arrivals: vec![Vec::new(); procs],
            sccs: Tarjan::default(),
            tainted: Vec::with_capacity(procs),
            comp_succ: vec![Vec::new(); procs],
            lo_c: Vec::with_capacity(procs),
            hi_c: Vec::with_capacity(procs),
            lo_done: Vec::with_capacity(procs),
            lo_recv: Vec::with_capacity(procs),
            hi_done: Vec::with_capacity(procs),
            hi_recv: Vec::with_capacity(procs),
        }
    }

    /// Index one pattern's messages into the queues, receive counts, and
    /// adjacency lists, clearing whatever the previous step left behind.
    fn load(&mut self, pattern: &CommPattern) {
        for q in &mut self.queues {
            q.clear();
        }
        for v in &mut self.adj {
            v.clear();
        }
        for v in &mut self.arr_lo {
            v.clear();
        }
        for v in &mut self.arrivals {
            v.clear();
        }
        self.recvs.fill(0);
        for m in pattern.network_messages() {
            self.queues[m.src].push_back(*m);
            self.recvs[m.dst] += 1;
            self.adj[m.src].push(m.dst);
        }
    }
}

/// Floor of a communication step entered at `lo_c`, into `lo_done` and
/// `lo_recv`: receive ladders over lower-bounded arrivals plus FIFO send
/// chains, all built from separations both gap rules guarantee for
/// consecutive same-kind operations.
fn comm_step_lo(scratch: &mut Scratch, params: &LogGpParams) {
    let Scratch {
        queues,
        arr_lo,
        lo_c: entry,
        lo_done: done,
        lo_recv: recv_done,
        ..
    } = scratch;
    let procs = queues.len();
    let sep = params.op_separation();
    let o = params.overhead;

    // Lower-bounded arrivals: the k-th message q sends leaves no earlier
    // than k separations after q is ready, then costs o + wire + L.
    for (q, queue) in queues.iter().enumerate() {
        for (k, m) in queue.iter().enumerate() {
            let arrive = entry[q]
                + sep.saturating_mul(k as u64)
                + o
                + params.wire_time(m.bytes)
                + params.latency;
            arr_lo[m.dst].push(arrive);
        }
    }

    done.clone_from(entry);
    recv_done.clone_from(entry);
    for p in 0..procs {
        let s = queues[p].len();
        if s > 0 {
            // Last send ends no earlier than s-1 separations plus its o.
            done[p] = done[p].max(entry[p] + sep.saturating_mul(s as u64 - 1) + o);
        }
        let r = arr_lo[p].len();
        if r > 0 {
            // Sorted actual arrivals dominate sorted lower bounds
            // pointwise; after the j-th smallest arrival at least r-1-j
            // receives remain, each a separation apart.
            arr_lo[p].sort();
            let mut last = entry[p] + sep.saturating_mul(r as u64 - 1);
            for (j, &a) in arr_lo[p].iter().enumerate() {
                last = last.max(a + sep.saturating_mul((r - 1 - j) as u64));
            }
            let end = last + o;
            done[p] = done[p].max(end);
            recv_done[p] = recv_done[p].max(end);
        }
    }
}

/// Ceiling of a communication step entered at `hi_c`, into `hi_done` and
/// `hi_recv`. Processors whose ancestry is fully acyclic are walked in
/// topological order with receive/send ladders; the rest — every
/// processor reachable from a nontrivial SCC, where the worst-case
/// algorithm's forced transmissions can land — collapse into one blob
/// charged `2·sep + wire + L` per touching message.
fn comm_step_hi(scratch: &mut Scratch, params: &LogGpParams) {
    let Scratch {
        queues,
        recvs,
        adj,
        arrivals,
        sccs: scc,
        tainted,
        comp_succ,
        hi_c: entry,
        hi_done: done,
        hi_recv: recv_done,
        ..
    } = scratch;
    let procs = queues.len();
    let sep = params.op_separation();
    let o = params.overhead;

    scc.run(adj);
    let ncomps = scc.len();
    // Taint: nontrivial components and everything they reach. Forced
    // transmissions can only pick a victim while some cycle is starving
    // the round, and only processors downstream of a cycle can be blocked
    // then — fully-acyclic ancestries always drain without forcing.
    tainted.clear();
    tainted.extend((0..ncomps).map(|c| scc.component(c).len() > 1));
    for v in &mut comp_succ[..ncomps] {
        v.clear();
    }
    for queue in queues.iter() {
        for m in queue {
            let (a, b) = (scc.comp_of(m.src), scc.comp_of(m.dst));
            if a != b {
                comp_succ[a].push(b);
            }
        }
    }
    // Components come out of Tarjan in reverse topological order, so a
    // descending index walk visits sources first.
    for c in (0..ncomps).rev() {
        if tainted[c] {
            for s in 0..comp_succ[c].len() {
                tainted[comp_succ[c][s]] = true;
            }
        }
    }

    done.clone_from(entry);
    recv_done.clone_from(entry);

    for c in (0..ncomps).rev() {
        if tainted[c] {
            continue;
        }
        let p = scc.component(c)[0];
        let r = recvs[p];
        let s = queues[p].len();
        // All arrivals are bounded by A; receive i+1 starts at most one
        // separation after receive i, so the last receive ends by
        // A + (r-1)·sep + o.
        let mut a = entry[p];
        for &arr in &arrivals[p] {
            a = a.max(arr);
        }
        let rd = if r > 0 {
            a.gap(sep.saturating_mul(r as u64 - 1)).overhead(o)
        } else {
            entry[p]
        };
        // Under worst-case semantics sends wait for the last receive; the
        // first send is ready at most one separation later.
        let first_send = if s > 0 {
            if r > 0 {
                rd.gap(sep)
            } else {
                entry[p]
            }
        } else {
            rd
        };
        for (j, m) in queues[p].iter().enumerate() {
            let arr = first_send
                .gap(sep.saturating_mul(j as u64))
                .overhead(o)
                .wire(params.wire_time(m.bytes))
                .latency(params.latency);
            arrivals[m.dst].push(arr);
        }
        let sd = if s > 0 {
            first_send.gap(sep.saturating_mul(s as u64 - 1)).overhead(o)
        } else {
            rd
        };
        done[p] = entry[p].max(rd).max(sd);
        recv_done[p] = entry[p].max(rd);
    }

    if tainted.iter().any(|&t| t) {
        // Blob potential argument: relative to the blob's entry frontier,
        // committing a send raises the frontier by at most sep, and the
        // matching receive by at most sep + wire + L — for any commit
        // order, forced or not, under either gap rule.
        let mut base: Option<Cost> = None;
        for p in 0..procs {
            if !tainted[scc.comp_of(p)] {
                continue;
            }
            let mut c = entry[p];
            for &arr in &arrivals[p] {
                c = c.max(arr);
            }
            base = Some(match base {
                Some(b) => b.max(c),
                None => c,
            });
        }
        let mut total = base.expect("tainted component implies a tainted proc");
        for queue in queues.iter() {
            for m in queue {
                if tainted[scc.comp_of(m.src)] || tainted[scc.comp_of(m.dst)] {
                    total = total
                        .gap(sep.saturating_mul(2))
                        .wire(params.wire_time(m.bytes))
                        .latency(params.latency);
                }
            }
        }
        for p in 0..procs {
            if tainted[scc.comp_of(p)] {
                done[p] = total;
                recv_done[p] = total;
            }
        }
    }
}

/// Run the cost-interval interpreter over a program view.
///
/// Returns `None` when the view is malformed (zero processors, arity or
/// range defects a [`crate::check_program`] run would report as errors) —
/// bounds over malformed programs would be meaningless, not just loose.
pub fn analyze(view: &ProgramView<'_>, cfg: &BoundsConfig) -> Option<ProgramBounds> {
    let procs = view.procs;
    if procs == 0 {
        return None;
    }
    for step in view.steps {
        if !step.comp.is_empty() && step.comp.len() != procs {
            return None;
        }
        if !step.comm.is_empty() {
            if step.comm.procs() != procs {
                return None;
            }
            for m in step.comm.messages() {
                if m.src >= procs || m.dst >= procs {
                    return None;
                }
            }
        }
    }

    let params = &cfg.params;
    let mut scratch = Scratch::new(procs);
    let mut lo = vec![Time::ZERO; procs];
    let mut hi = vec![Time::ZERO; procs];
    let mut steps_out: Vec<StepBounds> = Vec::with_capacity(view.steps.len());
    // Per step, per proc (flat, step-major): which processor's entry
    // readiness seeded the ceiling chain, and the chain's dominant term —
    // the critical path's backpointers.
    let mut origins: Vec<usize> = Vec::with_capacity(view.steps.len() * procs);
    let mut classes: Vec<Bottleneck> = Vec::with_capacity(view.steps.len() * procs);
    let mut prev_hi_end = Time::ZERO;

    for (i, step) in view.steps.iter().enumerate() {
        // Computation phase: charges are exact (fault-free), so both ends
        // of the interval advance by the same amount.
        scratch.lo_c.clear();
        scratch.hi_c.clear();
        for p in 0..procs {
            let base = if step.comp.is_empty() {
                Time::ZERO
            } else {
                step.comp[p]
            };
            scratch.lo_c.push(lo[p] + base);
            scratch.hi_c.push(Cost::seed(hi[p], p).comp(base));
        }

        // Communication phase; a step without one ends where its
        // computation does.
        let (lo_base, hi_base) = if step.comm.is_empty() {
            (&mut scratch.lo_c, &mut scratch.hi_c)
        } else {
            // One indexing pass serves both the floor and the ceiling.
            scratch.load(&step.comm);
            comm_step_lo(&mut scratch, params);
            comm_step_hi(&mut scratch, params);
            match cfg.overlap {
                Overlap::None => (&mut scratch.lo_done, &mut scratch.hi_done),
                Overlap::RecvOnly => (&mut scratch.lo_recv, &mut scratch.hi_recv),
            }
        };

        // Step attribution happens before synchronization (the barrier
        // does not change the maximum).
        let argmax = hi_base
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.t)
            .map(|(p, _)| p)
            .unwrap_or(0);
        let hi_end = hi_base[argmax].t;
        let lo_end = lo_base.iter().copied().max().unwrap_or(Time::ZERO);
        steps_out.push(StepBounds {
            step: i,
            label: step.label.clone(),
            lo_end,
            hi_end,
            span_hi: hi_end.saturating_sub(prev_hi_end),
            class: hi_base[argmax].brk.dominant(),
            proc: argmax,
            breakdown: hi_base[argmax].brk,
        });
        prev_hi_end = hi_end;

        if cfg.sync == Synchronization::Barrier {
            let hmax = hi_base
                .iter()
                .copied()
                .reduce(Cost::max)
                .expect("procs > 0");
            lo_base.fill(lo_end);
            hi_base.fill(hmax);
        }
        origins.extend(hi_base.iter().map(|c| c.from));
        classes.extend(hi_base.iter().map(|c| c.brk.dominant()));

        lo.copy_from_slice(lo_base);
        for (h, c) in hi.iter_mut().zip(hi_base.iter()) {
            *h = c.t;
        }
    }

    let final_argmax = hi
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| **t)
        .map(|(p, _)| p)
        .unwrap_or(0);
    let mut critical_path = Vec::with_capacity(view.steps.len());
    let mut p = final_argmax;
    for t in (0..view.steps.len()).rev() {
        critical_path.push(PathSpan {
            step: t,
            label: view.steps[t].label.clone(),
            proc: p,
            class: classes[t * procs + p],
        });
        p = origins[t * procs + p];
    }
    critical_path.reverse();

    Some(ProgramBounds {
        lo: lo.iter().copied().max().unwrap_or(Time::ZERO),
        hi: hi.iter().copied().max().unwrap_or(Time::ZERO),
        per_proc: lo.into_iter().zip(hi).collect(),
        steps: steps_out,
        critical_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{patterns, SimConfig};
    use loggp::presets;
    use predsim_core::{simulate_program, Program, SimOptions, Step};

    fn bracket(program: &Program, params: LogGpParams) -> (Time, Time, Time, Time) {
        let cfg = BoundsConfig::new(params);
        let b = analyze(&ProgramView::of(program), &cfg).expect("well-formed");
        let std = simulate_program(program, &SimOptions::new(SimConfig::new(params)));
        let wc = simulate_program(
            program,
            &SimOptions::new(SimConfig::new(params)).worst_case(),
        );
        (b.lo, std.total, wc.total, b.hi)
    }

    #[test]
    fn brackets_a_simple_exchange() {
        let mut pattern = CommPattern::new(4);
        pattern.add(0, 1, 1024);
        pattern.add(2, 3, 1024);
        let mut program = Program::new(4);
        program.push(
            Step::new("swap")
                .with_comp(vec![Time::from_us(5.0); 4])
                .with_comm(pattern),
        );
        let (lo, std, wc, hi) = bracket(&program, presets::meiko_cs2(4));
        assert!(lo <= std, "lo {lo} > std {std}");
        assert!(std <= wc, "std {std} > wc {wc}");
        assert!(wc <= hi, "wc {wc} > hi {hi}");
        assert!(
            lo > Time::from_us(5.0),
            "comp + message must lift the floor"
        );
    }

    #[test]
    fn brackets_cyclic_patterns_with_forced_sends() {
        let mut program = Program::new(5);
        program.push(Step::new("ring").with_comm(patterns::ring(5, 2048)));
        for seed in 0..8u64 {
            let params = presets::meiko_cs2(5);
            let cfg = SimConfig::new(params).with_seed(seed);
            let b = analyze(&ProgramView::of(&program), &BoundsConfig::new(params)).unwrap();
            let std = simulate_program(&program, &SimOptions::new(cfg));
            let wc = simulate_program(&program, &SimOptions::new(cfg).worst_case());
            assert!(
                b.lo <= std.total,
                "seed {seed}: lo {} > std {}",
                b.lo,
                std.total
            );
            assert!(
                wc.total <= b.hi,
                "seed {seed}: wc {} > hi {}",
                wc.total,
                b.hi
            );
        }
    }

    #[test]
    fn gather_is_gap_bound_on_a_gapy_machine() {
        let params = LogGpParams {
            latency: Time::from_us(1.0),
            overhead: Time::from_us(1.0),
            gap: Time::from_us(50.0),
            gap_per_byte: Time::ZERO,
            procs: 8,
        };
        let mut program = Program::new(8);
        program.push(Step::new("gather").with_comm(patterns::gather(8, 0, 64)));
        let b = analyze(&ProgramView::of(&program), &BoundsConfig::new(params)).unwrap();
        assert_eq!(b.steps.len(), 1);
        assert_eq!(b.steps[0].class, Bottleneck::Gap);
        assert_eq!(b.steps[0].proc, 0, "root of the gather dominates");
    }

    #[test]
    fn compute_only_programs_have_exact_intervals() {
        let mut program = Program::new(3);
        program.push(Step::new("a").with_comp(vec![
            Time::from_us(1.0),
            Time::from_us(9.0),
            Time::from_us(2.0),
        ]));
        program.push(Step::new("b").with_comp(vec![
            Time::from_us(4.0),
            Time::from_us(1.0),
            Time::from_us(1.0),
        ]));
        let params = presets::meiko_cs2(3);
        let b = analyze(&ProgramView::of(&program), &BoundsConfig::new(params)).unwrap();
        assert_eq!(b.lo, b.hi, "no communication, no nondeterminism");
        assert_eq!(b.lo, Time::from_us(10.0));
        assert_eq!(b.per_proc[1], (Time::from_us(10.0), Time::from_us(10.0)));
        assert_eq!(b.critical_path.len(), 2);
        assert_eq!(b.critical_path[0].proc, 1, "P1's comp dominates both steps");
        assert!(b
            .critical_path
            .iter()
            .all(|s| s.class == Bottleneck::Compute));
    }

    #[test]
    fn barrier_sync_tightens_nothing_but_stays_sound() {
        let mut program = Program::new(4);
        program.push(
            Step::new("x")
                .with_comp(vec![Time::from_us(3.0); 4])
                .with_comm(patterns::ring(4, 512)),
        );
        program.push(Step::new("y").with_comp(vec![Time::from_us(1.0); 4]));
        let params = presets::meiko_cs2(4);
        for sync in [Synchronization::PerProcessor, Synchronization::Barrier] {
            let cfg = BoundsConfig::new(params).with_sync(sync);
            let b = analyze(&ProgramView::of(&program), &cfg).unwrap();
            let mut opts = SimOptions::new(SimConfig::new(params));
            if sync == Synchronization::Barrier {
                opts = opts.with_barrier();
            }
            let std = simulate_program(&program, &opts);
            let wc = simulate_program(&program, &opts.worst_case());
            assert!(b.lo <= std.total);
            assert!(wc.total <= b.hi);
        }
    }

    #[test]
    fn bounds_under_barrier_and_receive_overlap_are_pinned() {
        // `check` has no switch for either extension, so this pins the
        // analyzer's whole value under each: a cyclic step, an acyclic
        // fan-in with a self-message, a computation-only step and a
        // repeat of the cyclic step, from a skewed start.
        let procs = 6;
        let mut fan_in = patterns::gather(procs, 2, 4096);
        fan_in.add(3, 3, 512);
        let mut program = Program::new(procs);
        let skew: Vec<Time> = (0..procs)
            .map(|p| Time::from_us(3.0 + 7.0 * p as f64))
            .collect();
        program.push(
            Step::new("ring")
                .with_comp(skew)
                .with_comm(patterns::ring(procs, 2048)),
        );
        program.push(
            Step::new("fan-in")
                .with_comp(vec![Time::from_us(11.0); procs])
                .with_comm(fan_in),
        );
        program.push(Step::new("work").with_comp(vec![Time::from_us(5.0); procs]));
        program.push(Step::new("ring again").with_comm(patterns::ring(procs, 2048)));
        let params = presets::intel_paragon(procs);
        let digest = |cfg: BoundsConfig| {
            let b = analyze(&ProgramView::of(&program), &cfg).unwrap();
            b.to_value()
                .to_compact()
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, byte| {
                    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        let barrier = BoundsConfig::new(params).with_sync(Synchronization::Barrier);
        let overlap = BoundsConfig::new(params).with_overlap(Overlap::RecvOnly);
        assert_eq!(
            digest(barrier),
            0x344f_3acf_1cb6_db97,
            "barrier: {:#018x}",
            digest(barrier)
        );
        assert_eq!(
            digest(overlap),
            0xe8ce_18ee_32c5_9c10,
            "overlap: {:#018x}",
            digest(overlap)
        );
    }

    #[test]
    fn json_value_round_trips_through_the_dialect() {
        let mut program = Program::new(2);
        program.push(Step::new("m").with_comm(patterns::ring(2, 256)));
        let b = analyze(
            &ProgramView::of(&program),
            &BoundsConfig::new(presets::meiko_cs2(2)),
        )
        .unwrap();
        let v = b.to_value();
        let parsed = crate::json::parse(&v.to_compact()).unwrap();
        assert_eq!(parsed, v);
        assert!(v.get("static_lo_ps").and_then(Value::as_int).unwrap() > 0);
        assert!(
            v.get("static_hi_ps").and_then(Value::as_int).unwrap()
                >= v.get("static_lo_ps").and_then(Value::as_int).unwrap()
        );
        let text = b.render();
        assert!(text.contains("static bounds:"), "{text}");
        assert!(text.contains("critical path"), "{text}");
    }

    #[test]
    fn malformed_views_are_refused() {
        assert!(analyze(
            &ProgramView {
                procs: 0,
                steps: &[]
            },
            &BoundsConfig::new(presets::meiko_cs2(1))
        )
        .is_none());
        let steps = [Step::new("lopsided").with_comp(vec![Time::from_us(1.0); 3])];
        assert!(analyze(
            &ProgramView {
                procs: 4,
                steps: &steps
            },
            &BoundsConfig::new(presets::meiko_cs2(4))
        )
        .is_none());
        let mut wide = CommPattern::new(6);
        wide.add(4, 5, 128);
        let steps = [Step::new("wide").with_comm(wide)];
        assert!(analyze(
            &ProgramView {
                procs: 4,
                steps: &steps
            },
            &BoundsConfig::new(presets::meiko_cs2(4))
        )
        .is_none());
    }
}
