//! Resilience end-to-end tests: deterministic chaos injection, worker
//! supervision, tiered degradation, and deadline-aware admission — all
//! over a real TCP socket.

use predsim_lint::json::{self, Value};
use predsim_serve::{ChaosPlan, ChaosSpec, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A prediction whose simulation takes tens of milliseconds even in
/// release builds: enough to teach the cost model a job cost far above
/// a 1 ms deadline. Each index is a distinct size, so every submission
/// is a job of its own.
fn heavy(i: usize) -> String {
    let n = 3840 - 120 * i;
    format!(r#"{{"source":"ge:{n},24,diagonal,8"}}"#)
}

/// A cheap, clean job every tier can serve.
const CHEAP: &str = r#"{"source":"cannon:96,4"}"#;

/// A cheap job no degraded tier can serve (fault injection voids the
/// static analysis, and the fault rate is too small to ever fire): it
/// must take the full path, so it reliably occupies the queue.
const OPAQUE: &str = r#"{"source":"stencil:96,8,3","faults":"drop:0.000001","seed":1}"#;

fn config(workers: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap,
        request_timeout: Duration::from_secs(10),
        replay_at: Some(usize::MAX),
        static_at: Some(usize::MAX),
        ..ServeConfig::default()
    }
}

/// [`config`] with one worker that stalls two seconds on every job it
/// picks up (the chaos harness's `stall` at rate 1), so whatever job it
/// holds occupies it for a fixed time however fast the host builds and
/// simulates. The stall detector is parked out of reach so no backfilled
/// worker drains the queue early.
fn pinned(queue_cap: usize) -> ServeConfig {
    ServeConfig {
        stall_timeout: Duration::from_secs(60),
        chaos: Some(ChaosPlan::new(ChaosSpec::parse("stall:1:2000").unwrap(), 1)),
        ..config(1, queue_cap)
    }
}

/// One-shot request; `None` when the server severed the connection
/// mid-request (the chaos `drop-conn` fault).
fn try_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut conn = TcpStream::connect(addr).ok()?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .ok()?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw).ok()?;
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status: u16 = head.split("\r\n").next()?.split(' ').nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_request(addr, method, path, body).expect("server dropped the connection")
}

fn predict(addr: SocketAddr, body: &str) -> (u16, String) {
    request(addr, "POST", "/v1/predict", body)
}

/// The `tier` field of a 200 predict response.
fn tier_of(body: &str) -> String {
    json::parse(body)
        .expect("predict response is strict JSON")
        .get("result")
        .and_then(|r| r.get("tier"))
        .and_then(Value::as_str)
        .expect("every predict response names its tier")
        .to_string()
}

fn total_of(body: &str) -> i64 {
    json::parse(body)
        .unwrap()
        .get("result")
        .and_then(|r| r.get("total_ps"))
        .and_then(Value::as_int)
        .expect("total_ps")
}

/// The current `/healthz` numbers: (queue_depth, in_flight).
fn health(addr: SocketAddr) -> (i64, i64) {
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).expect("healthz is strict JSON");
    (
        v.get("queue_depth").and_then(Value::as_int).unwrap(),
        v.get("in_flight").and_then(Value::as_int).unwrap(),
    )
}

fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) {
    for _ in 0..deadline_ms / 10 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("condition not reached within {deadline_ms} ms");
}

/// A seed whose panic plan fires at pop-site 0 and stays quiet for the
/// next `quiet` sites — found by scanning the same pure hash the server
/// consults, so the test controls exactly which pop dies.
fn seed_panicking_only_at_site_zero(spec: &ChaosSpec, quiet: u64) -> u64 {
    (0..100_000)
        .find(|&seed| {
            let plan = ChaosPlan::new(spec.clone(), seed);
            plan.worker_panic(0) && (1..=quiet).all(|site| !plan.worker_panic(site))
        })
        .expect("a suitable seed exists in the first 100k")
}

#[test]
fn a_worker_panic_mid_batch_is_invisible_to_the_client() {
    // Chaos kills the single worker on its very first pop, and only
    // then. The supervisor must respawn it and re-enqueue the orphaned
    // job; the batch answer must be byte-identical to a fault-free run.
    let spec = ChaosSpec::parse("panic:0.5").unwrap();
    let seed = seed_panicking_only_at_site_zero(&spec, 8);

    let batch = r#"{"jobs":[{"source":"cannon:96,4","label":"a"},
                            {"source":"stencil:96,8,3","label":"b"},
                            {"source":"ge:240,24,diagonal,8","label":"c"}]}"#;

    let clean = Server::start(config(1, 8)).expect("clean server starts");
    let (status, want) = request(clean.addr(), "POST", "/v1/batch", batch);
    assert_eq!(status, 200);
    clean.drain();

    let chaotic = Server::start(ServeConfig {
        chaos: Some(ChaosPlan::new(spec, seed)),
        ..config(1, 8)
    })
    .expect("chaotic server starts");
    let (status, got) = request(chaotic.addr(), "POST", "/v1/batch", batch);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want, "a respawned worker must not change the answer");

    let report = chaotic.drain();
    assert_eq!(
        report.metrics.scalar("serve_worker_restarts_total", &[]),
        Some(1),
        "exactly the injected panic was supervised away"
    );
    assert_eq!(
        report
            .metrics
            .scalar("serve_chaos_injections_total", &[("kind", "panic")]),
        Some(1)
    );
}

#[test]
fn a_job_whose_worker_dies_twice_is_answered_as_crashed_not_hung() {
    // Panic on every pop: the job's first run dies, the requeued copy
    // dies too, and the supervisor must answer it (`crashed`) instead of
    // retrying forever or leaving the client hanging.
    let spec = ChaosSpec::parse("panic:1.0").unwrap();
    let handle = Server::start(ServeConfig {
        chaos: Some(ChaosPlan::new(spec, 7)),
        ..config(1, 8)
    })
    .expect("server starts");
    let (status, body) = predict(handle.addr(), CHEAP);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let result = doc.get("result").unwrap();
    assert_eq!(
        result.get("outcome").and_then(Value::as_str),
        Some("crashed"),
        "{body}"
    );
    assert_eq!(result.get("attempts").and_then(Value::as_int), Some(2));
    let report = handle.drain();
    assert!(report.metrics.scalar("serve_worker_restarts_total", &[]) >= Some(2));
}

#[test]
fn the_same_chaos_seed_replays_the_same_failure_sequence() {
    // Two servers, same chaos plan, same sequential request stream:
    // every observable — per-request outcome, injection counters,
    // restart count — must match exactly.
    let spec = ChaosSpec::parse("panic:0.3,drop-conn:0.25").unwrap();
    let run = || {
        let handle = Server::start(ServeConfig {
            chaos: Some(ChaosPlan::new(spec.clone(), 42)),
            ..config(1, 8)
        })
        .expect("server starts");
        let mut outcomes = Vec::new();
        for _ in 0..12 {
            // Sequential, one connection per request: pop-sites and
            // conn-sites advance in lockstep with the request index.
            match try_request(handle.addr(), "POST", "/v1/predict", CHEAP) {
                Some((status, body)) => {
                    let outcome = json::parse(&body)
                        .ok()
                        .and_then(|d| {
                            d.get("result")
                                .and_then(|r| r.get("outcome"))
                                .and_then(Value::as_str)
                                .map(str::to_string)
                        })
                        .unwrap_or_default();
                    outcomes.push(format!("{status}:{outcome}"));
                }
                None => outcomes.push("dropped".into()),
            }
        }
        let report = handle.drain();
        let chaos = |kind| {
            report
                .metrics
                .scalar("serve_chaos_injections_total", &[("kind", kind)])
                .unwrap_or(0)
        };
        (
            outcomes,
            chaos("panic"),
            chaos("drop-conn"),
            report
                .metrics
                .scalar("serve_worker_restarts_total", &[])
                .unwrap_or(0),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "chaos must be a pure function of the seed");
    assert!(
        first.1 > 0 || first.2 > 0,
        "the drill actually injected something: {first:?}"
    );
}

#[test]
fn overload_degrades_through_replay_to_static_and_brackets_the_truth() {
    let handle = Server::start(ServeConfig {
        replay_at: Some(1),
        ..pinned(8)
    })
    .expect("server starts");
    let addr = handle.addr();

    // Idle: the full tier answers, and its total is the ground truth.
    let (status, body) = predict(addr, CHEAP);
    assert_eq!(status, 200, "{body}");
    assert_eq!(tier_of(&body), "full");
    let truth = total_of(&body);
    let full_bytes = body;

    // One worker pinned + one queued job puts depth at the replay
    // watermark. The held jobs are fault-injected so no degraded tier
    // can absorb them — they must queue.
    let hold: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || predict(addr, OPAQUE)))
        .collect();
    wait_until(30000, || {
        let (depth, executing) = health(addr);
        depth >= 1 && executing >= 1
    });
    let (status, body) = predict(addr, CHEAP);
    assert_eq!(status, 200, "{body}");
    assert_eq!(tier_of(&body), "replay", "{body}");
    assert_eq!(
        total_of(&body),
        truth,
        "replay totals are bit-identical to full simulation"
    );
    // Replay responses differ from the full tier only in the tier field.
    assert_eq!(
        body.replace("\"tier\":\"replay\"", "\"tier\":\"full\""),
        full_bytes
    );

    for h in hold {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200, "held jobs still complete");
    }
    let report = handle.drain();
    for tier in ["full", "replay"] {
        assert!(
            report
                .metrics
                .scalar("serve_tier_total", &[("tier", tier)])
                .unwrap_or(0)
                >= 1,
            "tier {tier} was served"
        );
    }

    // Past the static watermark (a separate server, so the watermark is
    // reachable with a single queued job on this machine): the answer is
    // the bare interval, and it brackets the full-simulation truth.
    let handle = Server::start(ServeConfig {
        replay_at: Some(1),
        static_at: Some(1),
        ..pinned(8)
    })
    .expect("server starts");
    let addr = handle.addr();
    let hold: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || predict(addr, OPAQUE)))
        .collect();
    wait_until(30000, || {
        let (depth, executing) = health(addr);
        depth >= 1 && executing >= 1
    });
    let (status, body) = predict(addr, CHEAP);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let result = doc.get("result").unwrap();
    assert_eq!(result.get("tier").and_then(Value::as_str), Some("static"));
    assert_eq!(
        result.get("outcome").and_then(Value::as_str),
        Some("estimated")
    );
    let lo = result
        .get("static_lo_ps")
        .and_then(Value::as_int)
        .expect("static_lo_ps");
    let hi = result
        .get("static_hi_ps")
        .and_then(Value::as_int)
        .expect("static_hi_ps");
    assert!(
        lo <= truth && truth <= hi,
        "static bracket [{lo}, {hi}] must contain the full-sim total {truth}"
    );

    for h in hold {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200, "held jobs still complete");
    }
    let report = handle.drain();
    assert!(
        report
            .metrics
            .scalar("serve_tier_total", &[("tier", "static")])
            .unwrap_or(0)
            >= 1,
        "the static tier was served"
    );
}

#[test]
fn the_replay_tier_answers_under_the_engine_budget_like_the_full_tier() {
    // A three-step budget cuts the GE job short. The replay tier runs the
    // job through the same engine as a worker does, so it is cut short
    // too: its body is the full tier's, byte for byte, but for `tier`.
    let handle = Server::start(ServeConfig {
        replay_at: Some(1),
        job_budget: Some(3),
        ..pinned(8)
    })
    .expect("server starts");
    let addr = handle.addr();
    let job = r#"{"source":"ge:240,24,diagonal,8"}"#;

    let (status, full) = predict(addr, job);
    assert_eq!(status, 200, "{full}");
    assert_eq!(tier_of(&full), "full");
    assert!(full.contains("\"outcome\":\"timed_out\""), "{full}");

    // Pin the worker and queue one job behind it, as in the overload
    // test above: depth reaches the replay watermark.
    let hold: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || predict(addr, OPAQUE)))
        .collect();
    wait_until(30000, || {
        let (depth, executing) = health(addr);
        depth >= 1 && executing >= 1
    });
    let (status, body) = predict(addr, job);
    assert_eq!(status, 200, "{body}");
    assert_eq!(tier_of(&body), "replay", "{body}");
    assert_eq!(
        body.replace("\"tier\":\"replay\"", "\"tier\":\"full\""),
        full
    );

    for h in hold {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200, "held jobs still complete");
    }
    handle.drain();
}

#[test]
fn a_hopeless_deadline_gets_an_instant_static_answer_and_sheds_a_victim() {
    let handle = Server::start(pinned(8)).expect("server starts");
    let addr = handle.addr();

    // Seed the cost model: two completed predicts teach it the
    // wall-per-virtual-ps ratio and the mean job cost (the worker's
    // simulation time, the stall excluded).
    for i in 0..2 {
        let (status, _) = predict(addr, &heavy(i));
        assert_eq!(status, 200);
    }

    // Pin the worker and park a deadline-less (sheddable) job behind it.
    // Both are submitted concurrently — whichever loses the race for the
    // single worker is the queued victim — and the stall holds the
    // winner for two seconds, far longer than the loser takes to arrive.
    let first = std::thread::spawn(move || predict(addr, r#"{"source":"ge:240,24,diagonal,8"}"#));
    let second = std::thread::spawn(move || predict(addr, r#"{"source":"stencil:96,8,3"}"#));
    wait_until(30000, || {
        let (depth, in_flight) = health(addr);
        in_flight >= 1 && depth >= 1
    });

    // A 1 ms deadline cannot be met behind a queue the cost model prices
    // at heavy simulations: admission must shed the newest queued job
    // (which still gets a static-tier answer) and, still late, answer
    // this request statically too — instantly.
    let started = std::time::Instant::now();
    let (status, body) = predict(addr, r#"{"source":"cannon:96,4","deadline_ms":1}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(tier_of(&body), "static", "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a provably-late deadline is answered without queueing"
    );

    // The in-flight job ran at the full tier; the queued one was shed to
    // a static answer. Which thread is which depends on the race above.
    let mut tiers = Vec::new();
    for worker in [first, second] {
        let (status, body) = worker.join().unwrap();
        assert_eq!(status, 200, "every parked job is still answered: {body}");
        tiers.push(tier_of(&body));
    }
    tiers.sort();
    assert_eq!(tiers, ["full", "static"], "one ran, one was shed");

    // With an idle queue the same deadline job is admitted at the full
    // tier: the deadline only bites under load.
    let (status, body) = predict(addr, r#"{"source":"cannon:96,4","deadline_ms":60000}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(tier_of(&body), "full", "{body}");

    let report = handle.drain();
    assert!(
        report
            .metrics
            .scalar("serve_sheds_total", &[("reason", "deadline-victim")])
            .unwrap_or(0)
            >= 1
    );
}
