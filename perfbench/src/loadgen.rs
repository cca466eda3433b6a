//! The open-loop load generator: a fixed schedule of requests sent over
//! at most `connections` HTTP/1.1 connections, one thread each.
//!
//! Every request is timed from the moment it was *due*, not from the
//! moment a connection became free to send it: when the server stalls,
//! the requests queued behind the stall are charged for the wait
//! ("coordinated omission" is not hidden). How late the generator sent
//! each request is recorded separately as its lag.
//!
//! The client is the benchmark's own rather than `banks_util::http`'s:
//! it keeps a connection open whenever the server allows (that client
//! always closes), and a change to the program's client cannot change
//! what the benchmark measures.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: &'static str,
    pub target: String,
    pub body: Option<String>,
}

impl Request {
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: "GET",
            target: target.into(),
            body: None,
        }
    }

    pub fn post(target: impl Into<String>, body: String) -> Request {
        Request {
            method: "POST",
            target: target.into(),
            body: Some(body),
        }
    }
}

/// A scheduled request. After a 200 answer, `follow` (if any) is fetched
/// on the same connection with `&min_epoch=<epoch of the answer>`
/// appended — the read-your-write check of an ingest.
#[derive(Debug, Clone)]
pub struct Op {
    pub due: Duration,
    pub request: Request,
    pub follow: Option<String>,
}

/// What happened to one request. Times are nanoseconds from the phase
/// start; `status` 0 means a transport error or timeout.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub status: u16,
    pub body: String,
    pub error: Option<String>,
    /// Never sent: the generator gave up on it (it still counts as a
    /// failed request in its step's latency).
    pub unsent: bool,
    /// Status and body of the follow-up request, when one was sent.
    pub follow: Option<(u16, String)>,
}

impl Outcome {
    /// Latency charged from the due time.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A client connection that is reused while the server keeps it open
/// (HTTP/1.1 default) and re-established when the server closes it.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            stream: None,
        }
    }

    /// Send one request and read the whole response.
    pub fn send(&mut self, request: &Request) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.try_send(request) {
            // A kept-alive connection the server closed in the meantime
            // fails on first use; one fresh attempt is not a retry of a
            // request the server saw.
            Err(e)
                if reused
                    && matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::BrokenPipe
                            | io::ErrorKind::ConnectionReset
                    ) =>
            {
                self.stream = None;
                self.try_send(request)
            }
            other => other,
        }
    }

    fn try_send(&mut self, request: &Request) -> io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let body = request.body.as_deref().unwrap_or("");
        let head = format!(
            "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            request.method,
            request.target,
            self.addr,
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        let result = stream.write_all(&wire).and_then(|()| read_response(stream));
        match result {
            Ok((status, body, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Read one response: status, body (by `Content-Length`, else to EOF),
/// and whether the connection stays open.
fn read_response(stream: &mut TcpStream) -> io::Result<(u16, String, bool)> {
    let mut buf = Vec::with_capacity(8 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response headers",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "content-length" {
            content_length = value.parse::<usize>().ok();
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let mut body = buf.split_off(head_end + 4);
    match content_length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside the body",
                    ));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            stream.read_to_end(&mut body)?;
            keep_alive = false;
        }
    }
    Ok((
        status,
        String::from_utf8_lossy(&body).into_owned(),
        keep_alive,
    ))
}

/// The first unsigned integer field `name` of a JSON answer.
pub fn field_u64(body: &str, name: &str) -> Option<u64> {
    let rest = body.split(&format!("\"{name}\":")).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The `"epoch":N` field of a JSON answer.
pub fn epoch_of(body: &str) -> Option<u64> {
    field_u64(body, "epoch")
}

/// Run `ops` (sorted by due time) open-loop over `connections` threads,
/// each owning one connection. Returns one outcome per op, in op order.
/// The calling thread runs `tick` every [`TICK`] until the ops are done
/// (sampling the server while it is under load). Ops still unsent
/// `give_up` after the start fail unsent, so an overloaded server cannot
/// stretch a run without bound.
pub fn run_open_loop(
    addr: SocketAddr,
    ops: &[Op],
    connections: usize,
    timeout: Duration,
    give_up: Duration,
    mut tick: impl FnMut(),
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let connections = connections.max(1);
    let results: Mutex<Vec<Outcome>> = Mutex::new(vec![Outcome::default(); ops.len()]);
    // A short lead so every thread is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client = Client::new(addr, timeout);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(i) else { break };
                    let due = start + op.due;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let unsent = sent > start + give_up;
                    let result = if unsent {
                        Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "not sent: generator gave up",
                        ))
                    } else {
                        client.send(&op.request)
                    };
                    let mut outcome = match result {
                        Ok((status, body)) => Outcome {
                            status,
                            body,
                            ..Outcome::default()
                        },
                        Err(e) => Outcome {
                            error: Some(e.to_string()),
                            ..Outcome::default()
                        },
                    };
                    outcome.unsent = unsent;
                    outcome.due_ns = since(due);
                    outcome.sent_ns = since(sent);
                    outcome.done_ns = since(Instant::now());
                    if let (Some(target), true) = (&op.follow, outcome.ok()) {
                        let epoch = epoch_of(&outcome.body).unwrap_or(0);
                        let follow = Request::get(format!("{target}&min_epoch={epoch}"));
                        outcome.follow = Some(match client.send(&follow) {
                            Ok(answer) => answer,
                            Err(e) => (0, e.to_string()),
                        });
                    }
                    results
                        .lock()
                        .expect("no worker panics holding the results")[i] = outcome;
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        while finished.load(Ordering::Relaxed) < connections {
            tick();
            std::thread::sleep(TICK);
        }
    });
    results.into_inner().expect("workers joined")
}

/// How often [`run_open_loop`] calls its `tick`.
pub const TICK: Duration = Duration::from_millis(50);

/// Evenly spaced due times at `rate` per second for `seconds`, starting
/// at `offset`.
pub fn schedule(rate: f64, seconds: f64, offset: Duration) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    (0..n)
        .map(|i| offset + Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A one-thread HTTP stub: answers each request with `200 ok`, but
    /// sleeps `stall` before answering request number `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (n, conn) in listener.incoming().enumerate() {
                let Ok(mut conn) = conn else { return };
                let mut reader = io::BufReader::new(conn.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                    line.clear();
                }
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = conn.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_from_due_time_to_the_requests_behind_it() {
        let stall = Duration::from_millis(300);
        let addr = stub_server(0, stall);
        let ops: Vec<Op> = schedule(100.0, 0.4, Duration::ZERO)
            .into_iter()
            .map(|due| Op {
                due,
                request: Request::get("/x"),
                follow: None,
            })
            .collect();
        let out = run_open_loop(
            addr,
            &ops,
            2,
            Duration::from_secs(5),
            Duration::from_secs(60),
            || {},
        );
        assert!(out.iter().all(Outcome::ok), "{out:?}");
        // The stalled request itself.
        assert!(out[0].latency_ms() >= 295.0, "{}", out[0].latency_ms());
        // Requests due while the server stalled were answered only after
        // it: each is charged from its own due time to the end of the
        // stall, even though it went out late (the generator had no free
        // connection) and took almost no time once sent.
        for o in out.iter().skip(1).filter(|o| o.due_ns < 250_000_000) {
            let stall_left = 300.0 - o.due_ns as f64 / 1e6;
            assert!(
                o.latency_ms() >= stall_left - 5.0,
                "due {} ms: latency {} ms",
                o.due_ns / 1_000_000,
                o.latency_ms()
            );
        }
        // With both connections busy, later requests waited in the
        // generator: the lag is recorded and is part of the latency.
        let late: Vec<&Outcome> = out
            .iter()
            .skip(2)
            .filter(|o| o.due_ns < 250_000_000)
            .collect();
        assert!(!late.is_empty());
        for o in late {
            assert!(o.lag_ms() > 20.0, "lag {} ms", o.lag_ms());
            assert!(o.latency_ms() >= o.lag_ms());
        }
        // Once the backlog drains the generator is on time again.
        let tail = out.last().unwrap();
        assert!(tail.lag_ms() < 50.0, "lag {} ms", tail.lag_ms());
    }

    #[test]
    fn failures_and_follow_ups() {
        let addr = stub_server(usize::MAX, Duration::ZERO);
        let ops = vec![Op {
            due: Duration::ZERO,
            request: Request::post("/ingest", "{}".into()),
            follow: Some("/search?q=x".into()),
        }];
        let out = run_open_loop(
            addr,
            &ops,
            1,
            Duration::from_secs(5),
            Duration::from_secs(60),
            || {},
        );
        assert_eq!(out[0].status, 200);
        assert_eq!(out[0].follow.as_ref().map(|f| f.0), Some(200));
        // Nothing listens on a port that was just released.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let out = run_open_loop(
            dead,
            &ops,
            1,
            Duration::from_millis(200),
            Duration::from_secs(60),
            || {},
        );
        assert_eq!(out[0].status, 0);
        assert!(out[0].error.is_some() && out[0].follow.is_none());
    }

    #[test]
    fn ops_past_the_give_up_point_fail_unsent() {
        let addr = stub_server(0, Duration::from_millis(300));
        let ops: Vec<Op> = schedule(100.0, 0.2, Duration::ZERO)
            .into_iter()
            .map(|due| Op {
                due,
                request: Request::get("/x"),
                follow: None,
            })
            .collect();
        let out = run_open_loop(
            addr,
            &ops,
            1,
            Duration::from_secs(5),
            Duration::from_millis(100),
            || {},
        );
        assert!(out[0].status == 200 && !out[0].unsent);
        assert!(out[1..]
            .iter()
            .all(|o| o.status == 0 && o.error.is_some() && o.unsent));
    }

    #[test]
    fn epochs_and_schedules() {
        assert_eq!(epoch_of(r#"{"epoch":12,"ops":3}"#), Some(12));
        assert_eq!(epoch_of(r#"{"x":1}"#), None);
        assert_eq!(
            field_u64(r#"{"epoch":1,"elapsed_us":250}"#, "elapsed_us"),
            Some(250)
        );
        let s = schedule(4.0, 1.0, Duration::from_secs(2));
        assert_eq!(s.len(), 4);
        assert_eq!(s[1], Duration::from_millis(2250));
    }
}
