//! End-to-end tests over a real TCP socket: concurrent clients, load
//! shedding, lint rejection, metrics exposure, and graceful drain.

use predsim_engine::{Engine, EngineConfig};
use predsim_lint::json::{self, Value};
use predsim_lint::Report;
use predsim_serve::{api, ChaosPlan, ChaosSpec, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start(workers: usize, queue_cap: usize) -> ServerHandle {
    Server::start(ServeConfig {
        workers,
        queue_cap,
        request_timeout: Duration::from_secs(10),
        // These tests exercise the full path; park the degradation
        // watermarks out of reach so every predict simulates.
        replay_at: Some(usize::MAX),
        static_at: Some(usize::MAX),
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// One-shot request: send with `Connection: close`, read to EOF.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, Vec<(String, String)>, String) {
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(':').expect("header line");
            (k.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn predict(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, body) = request(addr, "POST", "/v1/predict", body);
    (status, body)
}

/// The current `/healthz` numbers.
fn health(addr: SocketAddr) -> (i64, i64) {
    let (status, _, body) = request(addr, "GET", "/healthz", "");
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

#[test]
fn concurrent_predictions_are_byte_identical_to_the_engine() {
    let bodies: Vec<String> = [
        r#"{"source":"ge:240,24,diagonal,8"}"#,
        r#"{"source":"cannon:96,4","machine":"paragon"}"#,
        r#"{"source":"stencil:96,8,3","worst_case":true}"#,
        r#"{"source":"apsp:120,24,row,6","faults":"drop:0.1","seed":9}"#,
    ]
    .iter()
    .cycle()
    .take(8)
    .map(|s| s.to_string())
    .collect();

    // What the engine says in-process, rendered through the same API
    // layer: the wire bytes must match exactly.
    let engine = Engine::new(EngineConfig::default().with_jobs(1));
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| {
            let spec = api::parse_predict(body).expect("body parses").spec;
            let bounds = predsim_engine::static_bounds(&spec);
            api::render_predict(
                &engine.run(std::slice::from_ref(&spec))[0],
                bounds.as_ref(),
                api::Tier::Full,
            )
        })
        .collect();

    let handle = start(4, 32);
    let addr = handle.addr();
    let clients: Vec<_> = bodies
        .iter()
        .map(|body| {
            let body = body.clone();
            std::thread::spawn(move || predict(addr, &body))
        })
        .collect();
    for (client, expected) in clients.into_iter().zip(&expected) {
        let (status, body) = client.join().expect("client thread");
        assert_eq!(status, 200);
        assert_eq!(&body, expected, "server bytes differ from Engine::run");
    }

    // Acceptance (c): after drain, the counted requests match the
    // requests issued — exactly the 8 predicts, all 200.
    let report = handle.drain();
    assert_eq!(
        report
            .metrics
            .scalar("serve_requests_total", &[("code", "200")]),
        Some(8)
    );
    assert_eq!(
        report.metrics.scalar(
            "serve_endpoint_requests_total",
            &[("endpoint", "/v1/predict")]
        ),
        Some(8)
    );
    assert_eq!(
        report.metrics.scalar("serve_queue_depth", &[]),
        Some(0),
        "the queue is empty after drain"
    );
    let (count, _) = report
        .metrics
        .histogram_totals("serve_request_wall_ns")
        .expect("wall histogram exists");
    assert_eq!(count, 8);
}

#[test]
fn queue_overflow_sheds_with_429_without_dropping_admitted_work() {
    // The single worker stalls for two seconds on every job it picks up
    // (the chaos harness's `stall` at rate 1), so R1 deterministically
    // holds the worker while R2 and R3 arrive; both have near-instant
    // lint gates. The stall detector is parked out of reach so no
    // backfilled worker drains the queue early.
    let handle = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        request_timeout: Duration::from_secs(60),
        replay_at: Some(usize::MAX),
        static_at: Some(usize::MAX),
        stall_timeout: Duration::from_secs(60),
        chaos: Some(ChaosPlan::new(ChaosSpec::parse("stall:1:2000").unwrap(), 1)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let bodies = [
        r#"{"source":"ge:240,24,diagonal,8"}"#,
        r#"{"source":"cannon:96,4","machine":"paragon"}"#,
    ];

    // R1 occupies the single worker...
    let r1 = std::thread::spawn(move || predict(addr, bodies[0]));
    wait_until(8000, || health(addr).1 >= 1);
    // ...R2 occupies the single queue slot...
    let r2 = std::thread::spawn(move || predict(addr, bodies[1]));
    wait_until(8000, || {
        let (depth, executing) = health(addr);
        depth >= 1 && executing >= 1
    });
    // ...so R3 must be shed, immediately. R3 is a *faulted* job — the
    // static analyzer cannot bracket it, so no degraded tier can answer
    // and the only honest response is a 429.
    let (status, headers, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"source":"cannon:64,4","faults":"drop:0.1","seed":7}"#,
    );
    assert_eq!(status, 429);
    let retry: u64 = header(&headers, "retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is a whole number of seconds");
    assert!(retry >= 1, "computed Retry-After has a floor of 1s");
    assert!(json::parse(&body).unwrap().get("error").is_some());

    // The admitted requests complete normally: shedding R3 lost nothing,
    // and each answer is the engine's own.
    let engine = Engine::new(EngineConfig::default().with_jobs(1));
    for (client, body) in [r1, r2].into_iter().zip(bodies) {
        let (status, got) = client.join().unwrap();
        assert_eq!(status, 200, "{got}");
        let spec = api::parse_predict(body).expect("body parses").spec;
        let want = api::render_predict(
            &engine.run(std::slice::from_ref(&spec))[0],
            predsim_engine::static_bounds(&spec).as_ref(),
            api::Tier::Full,
        );
        assert_eq!(got, want, "served bytes differ from Engine::run for {body}");
    }

    let report = handle.drain();
    assert_eq!(
        report
            .metrics
            .scalar("serve_requests_total", &[("code", "429")]),
        Some(1)
    );
    assert_eq!(
        report.metrics.scalar(
            "serve_endpoint_requests_total",
            &[("endpoint", "/v1/predict")]
        ),
        Some(3),
        "shed requests are counted too"
    );
}

#[test]
fn analyzer_rejections_are_422_with_the_check_document() {
    let handle = start(1, 4);
    let addr = handle.addr();

    // An infeasible spec: the response body is byte-identical to what the
    // API's own lint gate produces (the `predsim check --json` shape).
    let body = r#"{"source":"ge:64,16,row,0"}"#;
    let req = api::parse_predict(body).unwrap();
    let jobs = vec![(req.name, req.spec)];
    let expected = api::check_jobs(&jobs).expect_err("lint must reject");
    assert_eq!(expected.status, 422);
    let (status, response) = predict(addr, body);
    assert_eq!(status, 422);
    assert_eq!(response, expected.body);

    // The 422 document round-trips through the lint crate's own parser
    // and names the infeasible-spec code.
    let doc = json::parse(&expected.body).unwrap();
    assert_eq!(doc.get("version").and_then(Value::as_int), Some(1));
    let sources = doc.get("sources").and_then(Value::as_array).unwrap();
    let report = Report::from_value(sources[0].get("report").unwrap()).unwrap();
    assert!(report.has_errors());
    assert!(expected.body.contains("PS0501"), "{}", expected.body);

    // A cyclic step under the worst-case algorithm is NOT rejected: the
    // gate is the engine's (deadlock cycles are its defined forced-
    // transmission behaviour), so the job runs and reports the forced
    // sends.
    let ring = r#"{"trace":"program procs=2\nstep label=ring\nmsg 0 1 64\nmsg 1 0 64\n",
                   "worst_case":true}"#;
    let (status, response) = predict(addr, ring);
    assert_eq!(status, 200, "{response}");
    let doc = json::parse(&response).unwrap();
    let result = doc.get("result").unwrap();
    assert_eq!(result.get("outcome").and_then(Value::as_str), Some("done"));
    assert!(
        result.get("forced_sends").and_then(Value::as_int).unwrap() > 0,
        "the worst-case algorithm forced the cycle open: {response}"
    );

    // Batch: one bad job poisons admission of the whole batch, naming
    // only the bad one in the document.
    let (status, _, response) = request(
        addr,
        "POST",
        "/v1/batch",
        r#"{"jobs":[{"source":"cannon:64,4"},{"source":"ge:64,16,row,0"}]}"#,
    );
    assert_eq!(status, 422);
    let doc = json::parse(&response).unwrap();
    assert_eq!(
        doc.get("sources")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1)
    );
    handle.drain();
}

#[test]
fn oversized_processor_counts_are_rejected_without_killing_the_server() {
    // Programs are sized by their processor count; the admission gate
    // must refuse these before building anything.
    let handle = start(1, 4);
    let addr = handle.addr();
    let (status, body) = predict(addr, r#"{"source":"bcast:4000000000:8"}"#);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("PS0501"), "{body}");
    let (status, body) = predict(
        addr,
        r#"{"trace":"program procs=4000000000\nstep label=a\n"}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("supported maximum of 4096"), "{body}");
    // A DAG is sized by its task count, refused while the spec is parsed.
    let (status, body) = predict(addr, r#"{"source":"dag:forkjoin:4000000000,1,1000,8:4"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("supported maximum of 4096"), "{body}");
    // And by its edge count, which a layered spec only knows by drawing
    // its edges: the generator stops at the first past the limit.
    let (status, body) = predict(addr, r#"{"source":"dag:layered:1,2,2048,1,1:64"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("supported maximum of 65536"), "{body}");
    let (status, _, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "the server survives every request");
    handle.drain();
}

#[test]
fn batch_endpoint_predicts_in_submission_order() {
    let handle = start(2, 8);
    let addr = handle.addr();
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/batch",
        r#"{"jobs":[{"source":"cannon:96,4","label":"a"},
                    {"source":"stencil:96,8,3","label":"b"}]}"#,
    );
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    let results = doc.get("results").and_then(Value::as_array).unwrap();
    let labels: Vec<_> = results
        .iter()
        .map(|r| r.get("label").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(labels, ["a", "b"]);
    for r in results {
        assert_eq!(r.get("outcome").and_then(Value::as_str), Some("done"));
        assert!(r.get("total_ps").and_then(Value::as_int).unwrap() > 0);
    }
    handle.drain();
}

#[test]
fn metrics_are_exposed_in_prometheus_text_and_strict_json() {
    let handle = start(1, 4);
    let addr = handle.addr();
    let (status, _body) = predict(addr, r#"{"source":"cannon:96,4"}"#);
    assert_eq!(status, 200);

    let (status, headers, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type")
        .unwrap()
        .starts_with("text/plain"));
    for needle in [
        "# TYPE serve_requests_total counter",
        "serve_requests_total{code=\"200\"} 1",
        "# TYPE serve_queue_depth gauge",
        "serve_request_wall_ns_bucket",
        "engine_jobs_total",
        "engine_steps_simulated_total",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The JSON flavour must itself be valid under the strict dialect.
    let (status, _, js) = request(addr, "GET", "/metrics.json", "");
    assert_eq!(status, 200);
    let doc = json::parse(&js).expect("metrics.json is strict JSON");
    assert!(doc.get("metrics").and_then(Value::as_array).is_some());
    handle.drain();
}

#[test]
fn each_served_job_builds_its_program_once() {
    let handle = start(1, 4);
    let addr = handle.addr();
    let built = || {
        let (status, _, text) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        text.lines()
            .find_map(|l| l.strip_prefix("engine_programs_built_total "))
            .map(|v| v.parse::<u64>().expect("counter value"))
    };

    // A full-tier predict: the worker's run and the reported bounds
    // share the handler's one build (the gate validates the spec and
    // builds nothing).
    let (status, body) = predict(addr, r#"{"source":"ge:240,24,diagonal,8"}"#);
    assert_eq!(status, 200);
    assert!(body.contains(r#""tier":"full""#), "{body}");
    assert!(body.contains("static_hi_ps"), "{body}");
    assert_eq!(built(), Some(1));

    // Deadline admission analyzes that same program.
    let (status, body) = predict(addr, r#"{"source":"stencil:96,8,3","deadline_ms":60000}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(built(), Some(2));

    // A batch builds each of its jobs once.
    let batch = r#"{"jobs":[{"source":"cannon:96,4"},{"source":"apsp:120,24,row,6"},
                            {"source":"ge:240,24,row,8","worst_case":true}]}"#;
    let (status, _, body) = request(addr, "POST", "/v1/batch", batch);
    assert_eq!(status, 200, "{body}");
    assert_eq!(built(), Some(5));
    handle.drain();
}

#[test]
fn conflicting_content_lengths_are_refused_not_smuggled() {
    let handle = start(1, 4);
    let addr = handle.addr();
    // 24 bytes of predict body, then a whole second request riding in
    // the bytes only the larger length covers. One write, so the server
    // reads it all before it answers and closes.
    let body = concat!(
        r#"{"source":"cannon:96,4"}"#,
        "GET /healthz HTTP/1.1\r\n\r\n"
    );
    let wire = format!(
        "POST /v1/predict HTTP/1.1\r\nContent-Length: 24\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(wire.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "one response: {raw}");
    let (status, headers, _) = parse_response(&raw);
    assert_eq!(status, 400);
    assert_eq!(header(&headers, "connection"), Some("close"));

    let report = handle.drain();
    let served = |endpoint| {
        report
            .metrics
            .scalar("serve_endpoint_requests_total", &[("endpoint", endpoint)])
    };
    assert_eq!(served("/healthz"), None, "the smuggled request never ran");
    assert_eq!(served("/v1/predict"), None, "nor did the predict");
}

#[test]
fn routing_rejects_what_the_api_does_not_serve() {
    let handle = start(1, 4);
    let addr = handle.addr();
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/predict", "").0, 405);
    assert_eq!(request(addr, "DELETE", "/metrics", "").0, 405);
    let (status, _, body) = request(addr, "POST", "/v1/predict", "{\"pi\": 3.14}");
    assert_eq!(status, 400);
    assert!(
        json::parse(&body).unwrap().get("error").is_some(),
        "400 body is a strict-JSON error object"
    );
    // A declared body over the server's cap is refused from the head
    // alone, before any of it is read.
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(
        conn,
        "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        8 << 20
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert_eq!(parse_response(&raw).0, 413);
    handle.drain();
}

#[test]
fn keep_alive_serves_back_to_back_requests_on_one_connection() {
    let handle = start(1, 4);
    let addr = handle.addr();
    let conn = TcpStream::connect(addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);

    let body = r#"{"source":"cannon:96,4"}"#;
    write!(writer, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    write!(
        writer,
        "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, headers, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    let (status, _, body) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"outcome\":\"done\""));
    handle.drain();
}

#[test]
fn back_to_back_requests_on_one_connection_do_not_wait_for_a_delayed_ack() {
    let handle = start(1, 4);
    let conn = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);

    // Each request leaves in one write, so the client's own Nagle never
    // holds part of it back.
    let body = r#"{"source":"cannon:96,4"}"#;
    let predict = format!(
        "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|i| {
            let request = if i % 2 == 0 {
                "GET /healthz HTTP/1.1\r\n\r\n"
            } else {
                predict.as_str()
            };
            let sent = Instant::now();
            writer.write_all(request.as_bytes()).unwrap();
            let (status, _, _) = read_one_response(&mut reader);
            assert_eq!(status, 200);
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    // A response whose body waits for the client's delayed ACK takes
    // about 40 ms.
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?}; slowest {:?}",
        round_trips.last()
    );
    handle.drain();
}

#[test]
fn an_idle_server_on_the_unspecified_address_drains_promptly() {
    let handle = Server::start(ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ServeConfig::default()
    })
    .expect("server starts");
    // No client ever connects, so only the drain's own wake-up reaches
    // the blocked acceptor. A missed wake fails here instead of hanging.
    let (drained, done) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        handle.drain();
        let _ = drained.send(());
    });
    assert!(
        done.recv_timeout(Duration::from_secs(5)).is_ok(),
        "an idle server did not drain within 5 s"
    );
    drainer.join().expect("drain thread");
}

/// Read one `Content-Length`-framed response off a keep-alive stream.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .map(|l| {
            let (k, v) = l.split_once(':').unwrap();
            (k.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    let len: usize = header(&headers, "content-length").unwrap().parse().unwrap();
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status, headers, String::from_utf8(body).unwrap())
}

#[test]
fn calibrate_endpoint_fits_registers_and_serves_the_preset() {
    let handle = start(2, 8);
    let addr = handle.addr();

    // Fit a preset to the emulated GE source and register it.
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/calibrate",
        r#"{"source":"ge:240,24,diagonal,4","runs":4,"holdout":1,
            "register":"e2e-fitted"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("calibrate body is strict JSON");
    assert_eq!(doc.get("version").and_then(Value::as_int), Some(1));
    assert_eq!(doc.get("converged").and_then(Value::as_bool), Some(true));
    assert_eq!(
        doc.get("registered").and_then(Value::as_str),
        Some("e2e-fitted"),
        "{body}"
    );
    assert_eq!(doc.get("procs").and_then(Value::as_int), Some(4));
    assert_eq!(doc.get("holdout_runs").and_then(Value::as_int), Some(1));
    let bracket = doc.get("bracket").expect("bracket report");
    assert_eq!(bracket.get("total").and_then(Value::as_int), Some(1));
    assert!(bracket
        .get("hit_permille")
        .and_then(Value::as_int)
        .is_some());
    for field in ["latency_ps", "overhead_ps", "gap_ps", "gap_per_byte_ps"] {
        assert!(
            doc.get(field).and_then(Value::as_int).is_some(),
            "missing {field}: {body}"
        );
    }

    // The registered preset now resolves in predict requests.
    let (status, body) = predict(
        addr,
        r#"{"source":"ge:240,24,diagonal,4","machine":"e2e-fitted"}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"outcome\":\"done\""), "{body}");

    // The fit published its quality metrics on the shared registry.
    let (status, _, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "calib_fits_total 1",
        "calib_fit_rmse_ps",
        "calib_bracket_hit_permille",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Schema violations: unknown fields and file-path sources are 400s.
    for bad in [
        r#"{"source":"ge:240,24,diagonal,4","bogus":1}"#,
        r#"{"source":"traces/ring.trace"}"#,
        r#"{"source":"ge:240,24,diagonal,4","runs":1000}"#,
        r#"{"source":"ge:240,24,diagonal,4","register":"bad name"}"#,
        r#"{}"#,
    ] {
        let (status, _, body) = request(addr, "POST", "/v1/calibrate", bad);
        assert_eq!(status, 400, "{bad} -> {body}");
    }

    // A zero-round budget cannot converge: the report says so, and the
    // requested registration is refused rather than polluting the
    // registry with an unfitted preset.
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/calibrate",
        r#"{"source":"ge:240,24,diagonal,4","runs":2,"max_rounds":0,
            "register":"e2e-unfitted"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("converged").and_then(Value::as_bool), Some(false));
    assert!(
        doc.get("register_error").and_then(Value::as_str).is_some(),
        "{body}"
    );
    let (status, body) = predict(
        addr,
        r#"{"source":"ge:240,24,diagonal,4","machine":"e2e-unfitted"}"#,
    );
    assert_eq!(status, 400, "unfitted preset must not resolve: {body}");

    handle.drain();
}

#[test]
fn calibrate_under_a_step_budget_is_refused_not_panicked() {
    // Every fit evaluation would see a prediction cut off at step 3, so
    // the fit is refused up front with an error naming the budget; the
    // server keeps serving.
    let handle = Server::start(ServeConfig {
        job_budget: Some(3),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/calibrate",
        r#"{"source":"ge:240,24,diagonal,4","runs":4,"holdout":1}"#,
    );
    assert_eq!(status, 422, "{body}");
    let doc = json::parse(&body).expect("error body is strict JSON");
    let error = doc.get("error").and_then(Value::as_str).expect("error");
    assert!(error.contains("step budget (3)"), "{body}");
    assert!(!error.contains("panicked"), "{body}");
    assert_eq!(health(addr), (0, 0));
    let report = handle.drain();
    assert_eq!(
        report.metrics.scalar("serve_worker_restarts_total", &[]),
        Some(0)
    );
}

#[test]
fn a_zero_replay_watermark_still_queues_on_an_idle_server() {
    // `replay_at` is clamped to at least 1, like `static_at`: at 0 every
    // predict would skip the queue and admission control with it.
    let handle = Server::start(ServeConfig {
        replay_at: Some(0),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let (status, body) = predict(handle.addr(), r#"{"source":"cannon:96,4"}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"tier\":\"full\""), "{body}");
    handle.drain();
}

#[test]
fn drain_finishes_in_flight_work_and_counts_every_request() {
    // The single worker stalls two seconds on every job it picks up (the
    // chaos harness's `stall` at rate 1), so the request is still
    // executing when the drain arrives however fast the host simulates.
    // The stall detector is parked out of reach.
    let handle = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        request_timeout: Duration::from_secs(10),
        replay_at: Some(usize::MAX),
        static_at: Some(usize::MAX),
        stall_timeout: Duration::from_secs(60),
        chaos: Some(ChaosPlan::new(ChaosSpec::parse("stall:1:2000").unwrap(), 1)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    // A request is mid-execution when the drain arrives.
    let in_flight =
        std::thread::spawn(move || predict(addr, r#"{"source":"ge:240,24,diagonal,8"}"#));
    wait_until(8000, || health(addr).1 >= 1);

    let (status, _, body) = request(addr, "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"draining\":true}");
    assert!(handle.drain_requested());
    handle.wait_for_drain_request();
    let report = handle.drain();

    // The in-flight prediction completed and was delivered.
    let (status, body) = in_flight.join().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"outcome\":\"done\""), "{body}");

    // Every request this test issued is in the final counters: the
    // predict, the drain, and each healthz poll.
    let m = &report.metrics;
    let scalar = |labels: &[(&str, &str)]| m.scalar("serve_endpoint_requests_total", labels);
    assert_eq!(scalar(&[("endpoint", "/v1/predict")]), Some(1));
    assert_eq!(scalar(&[("endpoint", "/admin/drain")]), Some(1));
    let polls = scalar(&[("endpoint", "/healthz")]).unwrap();
    assert!(polls >= 1);
    let total_200 = m
        .scalar("serve_requests_total", &[("code", "200")])
        .unwrap();
    assert_eq!(total_200, 2 + polls);

    // The listener is gone: new connections are refused (or reset before
    // a response arrives).
    let late = TcpStream::connect(addr);
    if let Ok(mut conn) = late {
        let gone = write!(conn, "GET /healthz HTTP/1.1\r\n\r\n").is_err() || {
            let mut buf = String::new();
            conn.read_to_string(&mut buf)
                .map(|n| n == 0)
                .unwrap_or(true)
        };
        assert!(gone, "a drained server must not answer");
    }
}

#[test]
fn estimate_returns_the_static_interval_without_touching_the_workers() {
    let handle = start(1, 4);
    let addr = handle.addr();

    // A clean job: the bounds object is exactly the in-process
    // analyzer's rendering, and the bracket holds around the simulated
    // total the predict endpoint reports for the same job.
    let body = r#"{"source":"ge:240,24,row,8"}"#;
    let (status, _, est) = request(addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200, "{est}");
    let spec = api::parse_predict(body).expect("body parses").spec;
    let bounds = predsim_engine::static_bounds(&spec).expect("clean spec has bounds");
    assert_eq!(
        est,
        api::render_estimate("ge:240,24,row,8", Ok(&bounds)),
        "wire bytes differ from the in-process analyzer"
    );
    let est_v = json::parse(&est).expect("estimate is strict JSON");
    let lo = est_v
        .get("bounds")
        .and_then(|b| b.get("static_lo_ps"))
        .and_then(Value::as_int)
        .expect("static_lo_ps");
    let hi = est_v
        .get("bounds")
        .and_then(|b| b.get("static_hi_ps"))
        .and_then(Value::as_int)
        .expect("static_hi_ps");
    assert!(0 < lo && lo <= hi);

    let (status, pred) = predict(addr, body);
    assert_eq!(status, 200, "{pred}");
    let pred_v = json::parse(&pred).expect("predict is strict JSON");
    let result = pred_v.get("result").expect("result object");
    let total = result
        .get("total_ps")
        .and_then(Value::as_int)
        .expect("total_ps");
    assert!(
        lo <= total && total <= hi,
        "bracket [{lo}, {hi}] must contain the simulated total {total}"
    );
    assert_eq!(result.get("static_lo_ps").and_then(Value::as_int), Some(lo));
    assert_eq!(result.get("static_hi_ps").and_then(Value::as_int), Some(hi));

    // A faulted job: no bounds, the same reason string the CLI prints,
    // and the predict response omits the static fields.
    let faulted = r#"{"source":"ge:240,24,row,8","faults":"drop:0.1","seed":3}"#;
    let (status, _, est) = request(addr, "POST", "/v1/estimate", faulted);
    assert_eq!(status, 200, "{est}");
    assert!(
        est.contains("\"bounds_unavailable\":\"fault injection voids the static bounds\""),
        "{est}"
    );
    let (status, pred) = predict(addr, faulted);
    assert_eq!(status, 200, "{pred}");
    assert!(!pred.contains("static_lo_ps"), "{pred}");

    // An infeasible job is still a 200 with a reason — the endpoint
    // never queues, so there is no engine gate to trip.
    let (status, _, est) = request(
        addr,
        "POST",
        "/v1/estimate",
        r#"{"source":"ge:64,16,row,0"}"#,
    );
    assert_eq!(status, 200, "{est}");
    assert!(
        est.contains("\"bounds_unavailable\":\"infeasible spec\""),
        "{est}"
    );

    // Wrong method on the route is a 405, like every other endpoint.
    let (status, _, _) = request(addr, "GET", "/v1/estimate", "");
    assert_eq!(status, 405);

    // The endpoint shows up in the per-endpoint counters under its own
    // label (the 405 lands under "other", like every method mismatch),
    // and none of the estimates consumed an engine job.
    let report = handle.drain();
    let estimates = report
        .metrics
        .scalar(
            "serve_endpoint_requests_total",
            &[("endpoint", "/v1/estimate")],
        )
        .unwrap();
    assert_eq!(estimates, 3);
    assert_eq!(
        report.metrics.scalar(
            "serve_endpoint_requests_total",
            &[("endpoint", "/v1/predict")]
        ),
        Some(2)
    );
}

#[test]
fn speedup_sweeps_are_byte_identical_to_the_library() {
    let handle = start(1, 4);
    let addr = handle.addr();

    let dag_text =
        predsim_dag::format::dump(&predsim_dag::generate::fork_join(8, 1, 100_000, 4096));
    let body = Value::Object(vec![
        ("dag".into(), Value::Str(dag_text)),
        ("scheduler".into(), Value::Str("heft".into())),
        ("machine".into(), Value::Str("meiko".into())),
        ("procs".into(), Value::Str("1..4".into())),
    ])
    .to_compact();

    // What the library computes in-process, rendered through the same
    // API layer: the wire bytes must match exactly.
    let parsed = api::parse_speedup(&body).expect("body parses");
    let report = predsim_dag::sweep(
        &parsed.dag,
        parsed.scheduler,
        &parsed.machine,
        &parsed.spec,
        &parsed.procs,
    )
    .expect("sweep runs");
    let expected = api::render_speedup(&report);

    let (status, _, served) = request(addr, "POST", "/v1/speedup", &body);
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, expected, "served sweep is byte-identical");
    let doc = json::parse(&served).unwrap();
    assert_eq!(doc.get("version").and_then(Value::as_int), Some(1));
    assert!(doc.get("knee_procs").and_then(Value::as_int).is_some());

    // Schema violations get 400, method mismatches 405.
    let (status, _, _) = request(addr, "POST", "/v1/speedup", "{}");
    assert_eq!(status, 400);
    let (status, _, _) = request(addr, "GET", "/v1/speedup", "");
    assert_eq!(status, 405);

    handle.drain();
}
