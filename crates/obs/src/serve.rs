//! A zero-dependency HTTP/1.0 introspection server.
//!
//! [`IntrospectionServer::start`] binds a `std::net::TcpListener` (port 0
//! picks a free port), spawns one accept-loop thread, and returns a
//! [`ServerHandle`] whose [`ServerHandle::shutdown`] (or drop) stops the
//! thread cleanly — no signal handling, no async runtime, no dependencies.
//!
//! Endpoints:
//!
//! | path            | content                                             |
//! |-----------------|-----------------------------------------------------|
//! | `/healthz`      | `ok` (liveness probe)                               |
//! | `/metrics`      | Prometheus text exposition ([`export::prometheus_text`]) |
//! | `/metrics.json` | JSON snapshot ([`export::json_snapshot`])           |
//! | `/trace`        | flight-recorder dump as Chrome trace-event JSON     |
//! | `/trace.txt`    | flight-recorder dump as an indented text tree       |
//! | `/events`       | buffered structured events as JSON                  |
//! | `/query_range`  | query-language evaluation over a tick range (needs `with_tsdb`) |
//! | `/alerts`       | alert statuses + transition history as JSON         |
//!
//! `/query_range?expr=<expression>&from=<tick>&to=<tick>&step=<ticks>`
//! evaluates a [`crate::query`] expression at every step between `from`
//! (default `1`) and `to` (default the store's last tick) and returns
//! tick-keyed JSON. `expr` **is** percent-decoded (it carries `{`, `"`,
//! and spaces); a malformed expression returns `400` with the parse error
//! in the body. Responses are a pure function of store contents, so
//! same-seed replays are byte-identical. One series' raw history is
//! `expr=name{key="v",field="f"}&step=1`; an SLO's burn is the `value` of
//! its rule in `/alerts` or a `/query_range` over the same burn expression.
//!
//! Every request increments `commgraph_serve_requests_total{path=...}` with
//! the path (query string stripped) normalized to the known endpoint set
//! (unknown paths count under `other`), so scrape traffic itself is visible
//! in the scrape.

use crate::alert::AlertEngine;
use crate::export;
use crate::registry::Registry;
use crate::trace::{chrome_trace_json, render_tree, FlightDump, Tracer};
use crate::tsdb::Tsdb;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Builder for the introspection server: a registry to expose, optionally a
/// tracer whose flight recorder backs `/trace`, a time-series store backing
/// `/query_range`, and an alert engine backing `/alerts`.
#[derive(Debug, Clone)]
pub struct IntrospectionServer {
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    tsdb: Option<Arc<Tsdb>>,
    alerts: Option<Arc<AlertEngine>>,
}

/// What the accept loop serves; bundled so the thread takes one value.
struct ServeCtx {
    registry: Arc<Registry>,
    tracer: Option<Arc<Tracer>>,
    tsdb: Option<Arc<Tsdb>>,
    alerts: Option<Arc<AlertEngine>>,
}

impl IntrospectionServer {
    /// A server exposing `registry` (no `/trace` content until
    /// [`IntrospectionServer::with_tracer`]).
    pub fn new(registry: Arc<Registry>) -> Self {
        IntrospectionServer { registry, tracer: None, tsdb: None, alerts: None }
    }

    /// Attach the tracer whose flight recorder `/trace` and `/trace.txt`
    /// will dump.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach the time-series store `/query_range` evaluates over.
    pub fn with_tsdb(mut self, tsdb: Arc<Tsdb>) -> Self {
        self.tsdb = Some(tsdb);
        self
    }

    /// Attach the alert engine `/alerts` reads.
    pub fn with_alerts(mut self, alerts: Arc<AlertEngine>) -> Self {
        self.alerts = Some(alerts);
        self
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawn the
    /// accept loop, and return its handle. The bound address — including
    /// the picked port — is [`ServerHandle::addr`].
    pub fn start(self, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let ctx = ServeCtx {
            registry: self.registry,
            tracer: self.tracer,
            tsdb: self.tsdb,
            alerts: self.alerts,
        };
        let join = std::thread::Builder::new()
            .name("obs-introspection".to_string())
            .spawn(move || accept_loop(listener, thread_stop, ctx))?;
        Ok(ServerHandle { addr: local, stop, join: Some(join) })
    }
}

/// Owns the running server thread. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and joins the thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (reports the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(join) = self.join.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway local connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, ctx: ServeCtx) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok((mut stream, _)) = conn {
            let _ = handle_conn(&mut stream, &ctx);
        }
    }
}

/// Read the request line, route it, write an HTTP/1.0 response. Any I/O
/// error just drops the connection — one bad client must not stop serving.
fn handle_conn(stream: &mut TcpStream, ctx: &ServeCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let (method, path) = read_request_line(stream)?;
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, query),
        None => (path.as_str(), ""),
    };
    bump_request_counter(&ctx.registry, route);
    let registry = &ctx.registry;
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match route {
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            "/metrics" => {
                ("200 OK", "text/plain; version=0.0.4", export::prometheus_text(registry))
            }
            "/metrics.json" => ("200 OK", "application/json", export::json_snapshot(registry)),
            "/trace" => {
                ("200 OK", "application/json", chrome_trace_json(&dump_or_empty(&ctx.tracer)))
            }
            "/trace.txt" => {
                ("200 OK", "text/plain; charset=utf-8", render_tree(&dump_or_empty(&ctx.tracer)))
            }
            "/events" => ("200 OK", "application/json", export::events_json(registry)),
            "/query_range" => match &ctx.tsdb {
                Some(db) => query_range_response(db, query),
                None => unavailable("no time-series store attached"),
            },
            "/alerts" => match &ctx.alerts {
                Some(a) => ("200 OK", "application/json", a.alerts_json()),
                None => unavailable("no alert engine attached"),
            },
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        }
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The 503 triple for an endpoint whose backing component is not attached.
fn unavailable(reason: &str) -> (&'static str, &'static str, String) {
    ("503 Service Unavailable", "text/plain; charset=utf-8", format!("{reason}\n"))
}

/// Minimal percent-decoding for `/query_range` expressions: `%XX` byte
/// escapes and `+` as space. Invalid escapes pass through verbatim (the
/// parser will reject them with a useful message).
fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (
                    bytes.get(i + 1).and_then(|b| hex(*b)),
                    bytes.get(i + 2).and_then(|b| hex(*b)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 2;
                    }
                    _ => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Evaluate a `/query_range` request: `expr` (percent-decoded), `from`
/// (default 1), `to` (default the store's last tick), `step` (default 1).
fn query_range_response(db: &Arc<Tsdb>, query: &str) -> (&'static str, &'static str, String) {
    let mut expr = None;
    let (mut from, mut to, mut step) = (1u64, db.last_tick(), 1u64);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = match pair.split_once('=') {
            Some(kv) => kv,
            None => continue,
        };
        match key {
            "expr" => expr = Some(url_decode(value)),
            "from" => from = value.parse().unwrap_or(from),
            "to" => to = value.parse().unwrap_or(to),
            "step" => step = value.parse().unwrap_or(step),
            _ => {}
        }
    }
    let Some(expr) = expr else {
        return (
            "400 Bad Request",
            "application/json",
            "{\"error\":\"missing expr parameter\"}".to_string(),
        );
    };
    match crate::query::query_range_json(db, &expr, from, to, step) {
        Ok(body) => ("200 OK", "application/json", body),
        Err(e) => (
            "400 Bad Request",
            "application/json",
            format!("{{\"error\":{}}}", export::json_str(&e.to_string())),
        ),
    }
}

/// A dump of the attached tracer, or an empty dump when none is attached
/// (so `/trace` always returns valid Chrome trace JSON).
fn dump_or_empty(tracer: &Option<Arc<Tracer>>) -> FlightDump {
    match tracer {
        Some(t) => t.dump(),
        None => FlightDump { capacity: 0, dropped: 0, open_spans: 0, spans: Vec::new() },
    }
}

/// Count the request with the path normalized onto the fixed endpoint set,
/// bounding label cardinality no matter what clients probe.
fn bump_request_counter(registry: &Arc<Registry>, path: &str) {
    let normalized = match path {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/metrics.json" => "metrics.json",
        "/trace" => "trace",
        "/trace.txt" => "trace.txt",
        "/events" => "events",
        "/query_range" => "query_range",
        "/alerts" => "alerts",
        _ => "other",
    };
    registry.counter(&crate::names::SERVE_REQUESTS_TOTAL, [normalized]).inc();
}

/// Parse `GET /path HTTP/1.0` from the head of the stream. Reads at most
/// 4 KiB; anything malformed is an `InvalidData` error (connection dropped).
fn read_request_line(stream: &mut TcpStream) -> io::Result<(String, String)> {
    let mut buf = [0u8; 4096];
    let mut filled = 0usize;
    loop {
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
        if buf[..filled].windows(2).any(|w| w == b"\r\n") || filled == buf.len() {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..filled]);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_ascii_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => Ok((method.to_string(), path.to_string())),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "malformed request line")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn start_server() -> (ServerHandle, Arc<Registry>, Arc<Tracer>) {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(64));
        let handle = IntrospectionServer::new(registry.clone())
            .with_tracer(tracer.clone())
            .start("127.0.0.1:0")
            .unwrap();
        (handle, registry, tracer)
    }

    #[test]
    fn serves_all_endpoints_and_shuts_down() {
        let (handle, registry, tracer) = start_server();
        registry.counter(&crate::names::Family::new("demo_total", "h", []), []).add(7);
        tracer.span("root").finish();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0, "port 0 resolved to a real port");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("demo_total 7"), "{metrics}");
        let (_, json) = get(addr, "/metrics.json");
        assert!(json.contains("\"demo_total\""), "{json}");
        let (_, trace) = get(addr, "/trace");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("\"root\""), "{trace}");
        let (_, tree) = get(addr, "/trace.txt");
        assert!(tree.contains("flight recorder:"), "{tree}");
        let (_, events) = get(addr, "/events");
        assert!(events.starts_with("{\"events\":["), "{events}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        // Requests counted with bounded path labels.
        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("commgraph_serve_requests_total{path=\"metrics\"}"), "{metrics}");
        assert!(metrics.contains("commgraph_serve_requests_total{path=\"other\"} 1"), "{metrics}");

        handle.shutdown();
    }

    #[test]
    fn alerts_and_query_range_serve_attached_components() {
        use crate::alert::AlertRule;
        use crate::tsdb::SeriesKey;

        let registry = Arc::new(Registry::new());
        let db = Arc::new(Tsdb::default());
        db.append(SeriesKey::value("demo_total", &[("sub", "a")]), 1, 5.0);
        db.append(SeriesKey::value("demo_total", &[("sub", "b")]), 1, 7.0);
        db.append(SeriesKey::value("demo_total", &[("sub", "a")]), 2, 9.0);
        let alerts = Arc::new(AlertEngine::new(crate::Obs::new(registry.clone())));
        alerts.add_rule(AlertRule::query("hot", "demo_total{sub=\"a\"} > 4").unwrap());
        alerts.evaluate(2, &db);

        let handle = IntrospectionServer::new(registry.clone())
            .with_tsdb(db.clone())
            .with_alerts(alerts.clone())
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();

        // One series' raw history is a bare selector stepped by 1.
        let raw = "/query_range?expr=demo_total%7Bsub%3D%22a%22%7D";
        let (head, body) = get(addr, raw);
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("[[1,5],[2,9]]"), "{body}");
        assert!(!body.contains("\"b\""), "label matcher filters: {body}");
        let (_, ranged) = get(addr, &format!("{raw}&from=2&to=2"));
        assert!(ranged.contains("[[2,9]]") && !ranged.contains("[1,5]"), "{ranged}");

        let (head, body) = get(addr, "/alerts");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(
            body.contains("\"rule\":\"hot\"") && body.contains("\"state\":\"firing\""),
            "{body}"
        );

        // Query-stringed paths count under the bare route label.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("commgraph_serve_requests_total{path=\"query_range\"} 2"),
            "{metrics}"
        );
        assert!(metrics.contains("commgraph_serve_requests_total{path=\"alerts\"} 1"), "{metrics}");
        handle.shutdown();
    }

    #[test]
    fn retired_query_and_slo_routes_are_plain_404s() {
        let registry = Arc::new(Registry::new());
        let handle = IntrospectionServer::new(registry.clone())
            .with_tsdb(Arc::new(Tsdb::default()))
            .with_alerts(Arc::new(AlertEngine::new(crate::Obs::noop())))
            .start("127.0.0.1:0")
            .unwrap();
        for path in ["/query?name=demo_total", "/slo"] {
            let (head, _) = get(handle.addr(), path);
            assert!(head.starts_with("HTTP/1.0 404"), "{path}: {head}");
        }
        let (_, metrics) = get(handle.addr(), "/metrics");
        assert!(metrics.contains("commgraph_serve_requests_total{path=\"other\"} 2"), "{metrics}");
        for label in ["path=\"query\"", "path=\"slo\""] {
            assert!(!metrics.contains(label), "{label} still counted: {metrics}");
        }
        handle.shutdown();
    }

    #[test]
    fn query_range_endpoint_evaluates_expressions() {
        use crate::tsdb::SeriesKey;

        let registry = Arc::new(Registry::new());
        let db = Arc::new(Tsdb::default());
        for tick in 1..=4u64 {
            db.append(SeriesKey::value("demo_total", &[("sub", "a")]), tick, (tick * 10) as f64);
        }
        let handle = IntrospectionServer::new(registry.clone())
            .with_tsdb(db.clone())
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();

        // `{`, `"` and spaces arrive percent-encoded; `+` means space.
        let path =
            "/query_range?expr=rate(demo_total%7Bsub%3D%22a%22%7D%5B2%5D)&from=2&to=4&step=2";
        let (head, body) = get(addr, path);
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("\"expr\":\"rate(demo_total{sub=\\\"a\\\"}[2])\""), "{body}");
        assert!(body.contains("\"points\":[[2,5],[4,10]]"), "{body}");
        let (_, again) = get(addr, path);
        assert_eq!(body, again, "byte-identical across requests");

        // Defaults: from=1, to=last_tick, step=1.
        let (_, defaulted) = get(addr, "/query_range?expr=demo_total");
        assert!(defaulted.contains("\"from\":1,\"to\":4,\"step\":1"), "{defaulted}");

        let (head, err) = get(addr, "/query_range?expr=rate(demo_total)");
        assert!(head.starts_with("HTTP/1.0 400"), "{head}");
        assert!(err.contains("\"error\":"), "{err}");
        let (head, _) = get(addr, "/query_range");
        assert!(head.starts_with("HTTP/1.0 400"), "missing expr: {head}");

        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("commgraph_serve_requests_total{path=\"query_range\"} 5"),
            "{metrics}"
        );
        handle.shutdown();
    }

    #[test]
    fn request_line_sized_nesting_is_a_400_and_the_server_lives() {
        let registry = Arc::new(Registry::new());
        let db = Arc::new(Tsdb::default());
        db.append(crate::tsdb::SeriesKey::value("demo_total", &[]), 1, 1.0);
        let handle = IntrospectionServer::new(registry).with_tsdb(db).start("127.0.0.1:0").unwrap();
        // As much `(` as the 4 096-byte request line holds beside the rest.
        let deep = format!("/query_range?expr={}", "(".repeat(4000));
        let (head, body) = get(handle.addr(), &deep);
        assert!(head.starts_with("HTTP/1.0 400"), "{head}");
        assert!(body.contains("nests deeper"), "{body}");
        let chain = format!("/query_range?expr=1{}", "-1".repeat(2000));
        let (head, _) = get(handle.addr(), &chain);
        assert!(head.starts_with("HTTP/1.0 400"), "{head}");
        let (head, _) = get(handle.addr(), "/query_range?expr=demo_total");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        handle.shutdown();
    }

    #[test]
    fn tsdb_endpoints_without_components_return_503() {
        let (handle, _registry, _tracer) = start_server();
        for path in ["/query_range?expr=x", "/alerts"] {
            let (head, _) = get(handle.addr(), path);
            assert!(head.starts_with("HTTP/1.0 503"), "{path}: {head}");
        }
        handle.shutdown();
    }

    #[test]
    fn trace_without_tracer_is_valid_empty_json() {
        let registry = Arc::new(Registry::new());
        let handle = IntrospectionServer::new(registry).start("127.0.0.1:0").unwrap();
        let (head, body) = get(handle.addr(), "/trace");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
        handle.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let (handle, _registry, _tracer) = start_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        handle.shutdown();
    }

    #[test]
    fn drop_shuts_the_server_down() {
        let addr;
        {
            let (handle, _r, _t) = start_server();
            addr = handle.addr();
        }
        // After drop, new connections must fail (possibly after the OS
        // drains the backlog, so allow a few attempts).
        let mut refused = false;
        for _ in 0..20 {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Err(_) => {
                    refused = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        assert!(refused, "listener closed after handle drop");
    }
}
