//! A zero-dependency HTTP endpoint exposing the live observability
//! state — the first runnable slice of the serving daemon.
//!
//! [`LiveServer`] binds a `std::net::TcpListener` (port 0 picks an
//! ephemeral port; [`LiveServer::addr`] reports the bound address) and
//! serves three read-only routes from a background thread:
//!
//! | route           | content                                           |
//! |-----------------|---------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the live registry   |
//! | `/healthz`      | JSON verdict per [`SloSpec`](crate::slo::SloSpec) |
//! | `/trace/recent` | last-K events from a ring [`MemoryCollector`]     |
//!
//! The server only *reads* shared state (`Arc`s of the registry, SLO
//! engine, and event ring); it feeds nothing back into the computation
//! it observes, preserving the crate's on-vs-off byte-identity
//! invariant. HTTP support is deliberately minimal — `GET`, one
//! request per connection, `Connection: close` — just enough for
//! `curl` and a Prometheus scraper.

use crate::collectors::MemoryCollector;
use crate::event::FieldValue;
use crate::json::{escape_str, fmt_f64};
use crate::metrics::MetricsRegistry;
use crate::slo::{AlertState, SloEngine};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state the routes render from.
struct Routes {
    registry: Arc<MetricsRegistry>,
    engine: Arc<SloEngine>,
    ring: Arc<MemoryCollector>,
}

/// The live observability HTTP server. Dropping it (or calling
/// [`LiveServer::shutdown`]) stops the accept loop and joins the
/// serving thread.
pub struct LiveServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `127.0.0.1:port` (0 = ephemeral) and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (e.g. the port is taken).
    pub fn start(
        port: u16,
        registry: Arc<MetricsRegistry>,
        engine: Arc<SloEngine>,
        ring: Arc<MemoryCollector>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let routes = Routes {
            registry,
            engine,
            ring,
        };
        let handle = std::thread::Builder::new()
            .name("lb-live-serve".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &routes),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long a client has to deliver its whole request line. Connections
/// are served one at a time, so this also bounds how long one client can
/// hold up the others and [`LiveServer::shutdown`].
const REQUEST_LINE_DEADLINE: Duration = Duration::from_millis(500);

/// Handles one connection: read the request line, route, respond.
/// Errors (slow clients, disconnects) drop the connection; the server
/// must never panic on malformed input.
fn serve_one(mut stream: TcpStream, routes: &Routes) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let deadline = Instant::now() + REQUEST_LINE_DEADLINE;
    let mut buf = [0u8; 2048];
    let mut len = 0;
    // Read until the request line is complete (first CRLF); ignore the
    // rest of the headers — all routes are parameterless GETs. Each read
    // may only wait for what is left of the deadline, so a client that
    // trickles bytes cannot re-arm the timeout read after read.
    while len < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(2).any(|w| w == b"\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let mut parts = request.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                routes.registry.to_prometheus(),
            ),
            "/healthz" => (
                "200 OK",
                "application/json; charset=utf-8",
                healthz_json(&routes.engine),
            ),
            "/trace/recent" => (
                "200 OK",
                "application/json; charset=utf-8",
                recent_json(&routes.ring),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "routes: /metrics /healthz /trace/recent\n".to_string(),
            ),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Renders the per-SLO verdicts as the `/healthz` JSON document.
pub fn healthz_json(engine: &SloEngine) -> String {
    let verdicts = engine.verdicts();
    let firing = verdicts
        .iter()
        .filter(|v| v.state == AlertState::Firing)
        .count();
    let mut out = String::from("{\n  \"status\": ");
    out.push_str(if firing == 0 {
        "\"ok\""
    } else {
        "\"alerting\""
    });
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            ",\n  \"firing\": {firing},\n  \"watermark_us\": {},\n  \"slos\": [",
            engine.aggregator().watermark_us()
        ),
    );
    for (i, v) in verdicts.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        escape_str(&mut out, &v.name);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ", \"state\": \"{}\", \"ok\": {}, \"value\": ",
                match v.state {
                    AlertState::Healthy => "healthy",
                    AlertState::Firing => "firing",
                },
                v.ok
            ),
        );
        fmt_f64(&mut out, v.value);
        out.push_str(", \"threshold\": ");
        fmt_f64(&mut out, v.threshold);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(", \"fires\": {}, \"clears\": {}}}", v.fires, v.clears),
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the ring buffer as the `/trace/recent` JSON document.
pub fn recent_json(ring: &MemoryCollector) -> String {
    let events = ring.recent();
    let mut out = String::from("{\n  \"dropped\": ");
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!("{},\n  \"events\": [", ring.dropped()),
    );
    for (i, (seq, name, fields)) in events.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ =
            std::fmt::Write::write_fmt(&mut out, format_args!("    {{\"seq\": {seq}, \"event\": "));
        escape_str(&mut out, name);
        out.push_str(", \"fields\": {");
        for (j, (key, value)) in fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            escape_str(&mut out, key);
            out.push_str(": ");
            match value {
                FieldValue::U64(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{v}"));
                }
                FieldValue::I64(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{v}"));
                }
                FieldValue::F64(v) => fmt_f64(&mut out, *v),
                FieldValue::Bool(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{v}"));
                }
                FieldValue::Str(s) => escape_str(&mut out, s),
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Collector;
    use crate::json;
    use crate::slo::SloSpec;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    fn fixture() -> (Arc<MetricsRegistry>, Arc<SloEngine>, Arc<MemoryCollector>) {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_gauge("async.certified_gap", 0.25);
        let engine = Arc::new(SloEngine::new(
            vec![SloSpec::certified_gap(1e-3, 10_000)],
            None,
        ));
        let ring = Arc::new(MemoryCollector::with_capacity(4));
        ring.emit("net.drop", &[("t_us", 7u64.into()), ("from", 1u64.into())]);
        (registry, engine, ring)
    }

    #[test]
    fn serves_all_three_routes_and_404() {
        let (registry, engine, ring) = fixture();
        let mut server = LiveServer::start(0, registry, engine, ring).expect("bind");
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.contains("200 OK"), "{head}");
        assert!(body.contains("lb_async_certified_gap 0.25"), "{body}");
        crate::metrics::validate_exposition(&body).expect("served metrics must validate");

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.contains("200 OK"));
        assert!(head.contains("application/json"));
        let v = json::parse(&body).expect("healthz must be valid JSON");
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            v.get("slos").unwrap().as_array().unwrap()[0]
                .get("name")
                .unwrap()
                .as_str(),
            Some("certified_gap")
        );

        let (head, body) = http_get(addr, "/trace/recent");
        assert!(head.contains("200 OK"));
        let v = json::parse(&body).expect("trace/recent must be valid JSON");
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("net.drop"));
        assert_eq!(
            events[0]
                .get("fields")
                .unwrap()
                .get("t_us")
                .unwrap()
                .as_u64(),
            Some(7)
        );

        let (head, _) = http_get(addr, "/nope");
        assert!(head.contains("404"));

        server.shutdown();
    }

    #[test]
    fn rejects_non_get_methods() {
        let (registry, engine, ring) = fixture();
        let server = LiveServer::start(0, registry, engine, ring).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
    }

    #[test]
    fn garbage_requests_get_a_status_or_a_close_and_the_server_keeps_serving() {
        let (registry, engine, ring) = fixture();
        let mut server = LiveServer::start(0, registry, engine, ring).expect("bind");
        let addr = server.addr();
        let oversized = [b'A'; 4096];
        let requests: [&[u8]; 4] = [&oversized, b"\xff\xfe\xc3\x28\r\n", b"\r\n", b"GET\r\n"];
        for request in requests {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // The server may answer and close before reading it all; a
            // failed write or a reset read counts as a closed connection.
            let _ = stream.write_all(request);
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            assert!(
                response.is_empty() || response.starts_with(b"HTTP/1.1 "),
                "{:?} got {:?}",
                String::from_utf8_lossy(request),
                String::from_utf8_lossy(&response)
            );
        }
        // A client that connects and hangs up at once.
        drop(TcpStream::connect(addr).expect("connect"));
        let (head, _) = http_get(addr, "/healthz");
        assert!(head.contains("200 OK"), "{head}");
        server.shutdown();
    }

    #[test]
    fn a_trickling_client_stalls_neither_other_clients_nor_shutdown() {
        let (registry, engine, ring) = fixture();
        let mut server = LiveServer::start(0, registry, engine, ring).expect("bind");
        let addr = server.addr();
        let done = Arc::new(AtomicBool::new(false));
        let (connected, first_connection) = std::sync::mpsc::channel();
        // For about 3 s, send one byte of a request line every 150 ms and
        // never finish it; reconnect whenever the server drops us.
        let trickler = {
            let done = done.clone();
            std::thread::spawn(move || {
                let until = Instant::now() + Duration::from_secs(3);
                let mut stream: Option<TcpStream> = None;
                while Instant::now() < until && !done.load(Ordering::Relaxed) {
                    if stream.is_none() {
                        stream = TcpStream::connect(addr).ok();
                        let _ = connected.send(());
                    }
                    if let Some(s) = stream.as_mut() {
                        if s.write_all(b"G").is_err() {
                            stream = None;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(150));
                }
            })
        };
        // The listener accepts in connection order, so from here on the
        // trickler is served before the client below.
        first_connection.recv().unwrap();

        let started = Instant::now();
        let (head, _) = http_get(addr, "/healthz");
        let waited = started.elapsed();
        assert!(head.contains("200 OK"), "{head}");
        assert!(
            waited < Duration::from_millis(1500),
            "/healthz waited {waited:?} behind a trickling client"
        );

        let started = Instant::now();
        server.shutdown();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_millis(1500),
            "shutdown waited {waited:?} behind a trickling client"
        );
        done.store(true, Ordering::Relaxed);
        trickler.join().unwrap();
    }
}
