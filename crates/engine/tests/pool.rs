//! The worker pool's contract, observed through the trace sink: workers
//! run jobs at the same time, and a panic outside the per-job isolation
//! reaches the caller with its own payload at any worker count.

use loggp::presets;
use predsim_core::SimOptions;
use predsim_engine::{Engine, EngineConfig, EngineObs, JobSource, JobSpec};
use predsim_obs::{TraceEvent, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn specs(count: usize) -> Vec<JobSpec> {
    (0..count)
        .map(|i| {
            JobSpec::new(
                format!("stencil #{i}"),
                JobSource::Stencil {
                    n: 32,
                    procs: 4,
                    iters: 2,
                    ps_per_flop: 500,
                },
                SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(4))),
            )
        })
        .collect()
}

fn engine(jobs: usize, sink: Arc<dyn TraceSink>) -> Engine {
    Engine::with_obs(
        EngineConfig::default().with_jobs(jobs),
        EngineObs::new().with_sink(sink),
    )
}

/// Parks every `job_start` until `want` jobs have started, and panics if
/// that takes longer than `timeout`.
struct Rendezvous {
    want: usize,
    timeout: Duration,
    started: Mutex<usize>,
    all_started: Condvar,
}

impl TraceSink for Rendezvous {
    fn emit(&self, ev: &TraceEvent) {
        if !matches!(ev, TraceEvent::JobStart { .. }) {
            return;
        }
        let deadline = Instant::now() + self.timeout;
        let mut started = self.started.lock().unwrap();
        *started += 1;
        self.all_started.notify_all();
        while *started < self.want {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "only {} of {} jobs started together",
                *started,
                self.want
            );
            started = self.all_started.wait_timeout(started, left).unwrap().0;
        }
    }
}

#[test]
fn two_workers_run_two_jobs_at_once() {
    let sink = Arc::new(Rendezvous {
        want: 2,
        timeout: Duration::from_secs(10),
        started: Mutex::new(0),
        all_started: Condvar::new(),
    });
    let results = engine(2, sink).run(&specs(2));
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.outcome.kind() == "done"));
}

/// Panics on the `worker_assign` of one job: outside `execute`'s
/// `catch_unwind`, so the job cannot come back as `crashed`.
struct PanicOnAssign(u64);

impl TraceSink for PanicOnAssign {
    fn emit(&self, ev: &TraceEvent) {
        if let TraceEvent::WorkerAssign { job, .. } = ev {
            assert_ne!(*job, self.0, "sink refuses job {job}");
        }
    }
}

#[test]
fn a_panic_outside_job_isolation_reaches_the_caller_at_every_worker_count() {
    let specs = specs(4);
    for jobs in [1, 2, 4] {
        let engine = engine(jobs, Arc::new(PanicOnAssign(1)));
        let Err(payload) = catch_unwind(AssertUnwindSafe(|| engine.run(&specs))) else {
            panic!("--jobs {jobs}: the panic was swallowed");
        };
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        assert!(
            message.contains("sink refuses job 1"),
            "--jobs {jobs}: payload {message:?}"
        );
    }
}
