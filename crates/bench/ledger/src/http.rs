//! The ledger's open-loop HTTP/1.1 client for `predsim serve`.
//!
//! Requests are due on a fixed schedule whatever the server does; latency
//! is timed from each request's *due* time, so a stall also charges the
//! requests queued behind it, and the generator records how late it sent
//! each request. Each connection reads responses through its own
//! [`BufReader`], so a response head costs a few `read` calls rather than
//! one per byte and the client's own cost stays out of the served
//! latency. The closed loop is `bench::serveload::run_load`, which has no
//! schedule to keep.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest response head the client accepts.
const MAX_HEAD: usize = 64 * 1024;

/// Largest response body the client accepts.
const MAX_BODY: usize = 8 << 20;

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect to `addr` with Nagle off on the client side.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request and read its response: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.writer
            .write_all(request(method, path, body).as_bytes())?;
        read_response(&mut self.reader)
    }
}

/// One keep-alive request exactly as the client sends it.
pub fn request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn invalid(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// Read one `Content-Length`-framed response from `r`, leaving any bytes
/// of a following response buffered for the next call.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<(u16, String)> {
    let mut status = None;
    let mut content_length = 0usize;
    let mut head_bytes = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 {
            return Err(invalid("connection closed mid-response"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD {
            return Err(invalid("response head too large"));
        }
        let text = line.trim_end();
        if text.is_empty() {
            break;
        }
        if status.is_none() {
            status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok());
            if status.is_none() {
                return Err(invalid("malformed status line"));
            }
        } else if let Some((name, value)) = text.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    let status = status.ok_or_else(|| invalid("response without a status line"))?;
    if content_length > MAX_BODY {
        return Err(invalid("response body too large"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
    Ok((status, body))
}

/// Due time of open-loop request `i` at `rate` requests per second,
/// relative to the start of the loop.
pub fn due(i: usize, rate: f64) -> Duration {
    Duration::from_nanos((i as f64 * 1e9 / rate).round() as u64)
}

/// Open-loop request indices for connection `conn` of `conns`: request
/// `i` goes to connection `i % conns`, so each connection sees every
/// `conns`-th slot of the schedule.
pub fn slots(count: usize, conn: usize, conns: usize) -> impl Iterator<Item = usize> {
    (conn..count).step_by(conns)
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Position in the request sequence.
    pub index: usize,
    /// Response status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// From due time to the end of the response.
    pub latency: Duration,
    /// How late the generator sent the request.
    pub late: Duration,
    /// The host-speed reference kernel's time, run by this connection's
    /// thread right after the answer (see `src/host.rs`).
    pub reference: Duration,
}

/// What one open loop produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Answered requests, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Requests that got no response (I/O error).
    pub errors: usize,
}

/// Open loop: `count` requests due at `rate`/s, spread over `conns`
/// connections (one client thread each). `body(i)` is request `i`'s body.
/// After each answer the connection's thread runs the host-speed
/// reference kernel; at 20 req/s on 2 connections it ends well before the
/// next request is due.
pub fn open_loop(
    addr: &str,
    conns: usize,
    rate: f64,
    count: usize,
    body: &(dyn Fn(usize) -> String + Sync),
) -> Phase {
    let start = Instant::now();
    let per_conn: Vec<(Vec<Sample>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut errors = 0;
                    let mut conn = Conn::connect(addr).ok();
                    for i in slots(count, c, conns) {
                        let due_at = start + due(i, rate);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let answer = match conn.as_mut() {
                            Some(conn) => conn.call("POST", "/v1/predict", &body(i)),
                            None => Err(invalid("not connected")),
                        };
                        match answer {
                            Ok((status, body)) => {
                                let latency = due_at.elapsed();
                                samples.push(Sample {
                                    index: i,
                                    status,
                                    body,
                                    latency,
                                    late: sent - due_at,
                                    reference: crate::host::reference(),
                                })
                            }
                            Err(_) => {
                                errors += 1;
                                conn = Conn::connect(addr).ok();
                            }
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for (samples, errors) in per_conn {
        phase.samples.extend(samples);
        phase.errors += errors;
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_two_pipelined_responses_from_one_buffer() {
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello\
                    HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\nRetry-After: 1\r\n\r\n{}";
        let mut r = BufReader::new(Cursor::new(wire.as_bytes().to_vec()));
        assert_eq!(read_response(&mut r).unwrap(), (200, "hello".to_string()));
        assert_eq!(read_response(&mut r).unwrap(), (429, "{}".to_string()));
        assert!(read_response(&mut r).is_err(), "nothing left");
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        let mut r = BufReader::new(Cursor::new(
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc".to_vec(),
        ));
        assert!(read_response(&mut r).is_err(), "short body");
        let mut r = BufReader::new(Cursor::new(b"garbage\r\n\r\n".to_vec()));
        assert!(read_response(&mut r).is_err(), "no status code");
    }

    #[test]
    fn schedule_spreads_due_times_over_connections() {
        assert_eq!(due(0, 20.0), Duration::ZERO);
        assert_eq!(due(1, 20.0), Duration::from_millis(50));
        assert_eq!(due(30, 20.0), Duration::from_millis(1500));
        assert_eq!(slots(7, 0, 2).collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(slots(7, 1, 2).collect::<Vec<_>>(), vec![1, 3, 5]);
        // Each connection's consecutive slots are conns/rate apart.
        let c1: Vec<Duration> = slots(7, 1, 2).map(|i| due(i, 20.0)).collect();
        assert_eq!(c1[1] - c1[0], Duration::from_millis(100));
    }
}
