//! End-to-end tests of the event-driven HTTP front end: keep-alive
//! reuse, pipelined bursts answered in order, malformed framing answered
//! with JSON 400/431 before the close, and connection-level Prometheus
//! gauges.

#![cfg(unix)]

use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::{Hin, NodeId};
use emigre_serve::{
    reference_recommend, ExplanationService, HttpConfig, HttpServer, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn test_world() -> (Hin, emigre_core::EmigreConfig, Vec<NodeId>) {
    let data = SynthDataset::generate(SynthConfig {
        num_users: 16,
        num_items: 150,
        num_categories: 4,
        actions_per_user: (6, 14),
        ..SynthConfig::default()
    });
    let hin = AmazonHin::build(
        &data.raw,
        &PreprocessConfig {
            sample_users: 6,
            user_activity_range: (4, 100),
            ..PreprocessConfig::default()
        },
    );
    let mut cfg = hin.emigre_config();
    cfg.rec.ppr.epsilon = 1e-6;
    cfg.max_checks = 100;
    (hin.graph, cfg, hin.users)
}

struct RunningServer {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Starts a server and returns a user id whose recommendation list has
/// at least 3 items (so `/recommend` bodies below are valid).
fn spawn_server() -> (Arc<ExplanationService>, RunningServer, u32) {
    let (graph, cfg, users) = test_world();
    let user = users
        .iter()
        .find(|&&u| matches!(reference_recommend(&graph, &cfg, u, 5), Ok(r) if r.len() >= 3))
        .map(|u| u.0)
        .expect("world has a user with >=3 recommendations");
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::bind_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        HttpConfig {
            reactor_threads: 2,
            ..HttpConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run());
    (service, RunningServer { addr, thread }, user)
}

fn stop(addr: &SocketAddr, server: RunningServer) {
    let (status, _) = one_shot(addr, "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    server.thread.join().unwrap().expect("server exits cleanly");
}

/// Sends raw bytes on a fresh connection, reads to EOF, returns
/// (status, full response text).
fn one_shot(addr: &SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut response).expect("recv");
    (status_of(&response), response)
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

/// Splits `Content-Length`-framed responses off a keep-alive stream,
/// keeping leftover bytes (pipelined responses coalesce into one read).
struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ResponseReader {
    fn new(stream: TcpStream) -> Self {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        ResponseReader {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("send");
    }

    fn next_response(&mut self) -> String {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "peer closed mid-response ({} bytes)", self.buf.len());
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("response has a content-length");
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "peer closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let response = String::from_utf8_lossy(&self.buf[..total]).into_owned();
        self.buf.drain(..total);
        response
    }
}

fn keep_alive_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (service, server, user) = spawn_server();
    let addr = server.addr;

    let mut conn = ResponseReader::new(TcpStream::connect(addr).expect("connect"));
    for i in 0..5 {
        conn.send(&keep_alive_request(
            "/recommend",
            &format!(r#"{{"user":{user},"k":3}}"#),
        ));
        let response = conn.next_response();
        assert_eq!(status_of(&response), 200, "request {i}: {response}");
        assert!(
            response.contains("Connection: keep-alive"),
            "server honours reuse: {response}"
        );
    }
    drop(conn);

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let f = service.metrics().frontend;
        if f.keepalive_reuses_total >= 4 && f.connections_active == 0 {
            assert!(f.connections_accepted_total >= 1);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "counters never converged: {f:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop(&addr, server);
}

#[test]
fn pipelined_burst_is_answered_in_request_order() {
    let (_service, server, user) = spawn_server();
    let addr = server.addr;

    // Queue six requests in ONE write: alternating recommends (with
    // distinguishable k) and healthz probes. Responses must come back in
    // exactly the order sent even though the QoS scheduler may finish
    // them out of order.
    let mut burst = String::new();
    for k in 1..=3 {
        burst.push_str(&keep_alive_request(
            "/recommend",
            &format!(r#"{{"user":{user},"k":{k}}}"#),
        ));
        burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    let mut conn = ResponseReader::new(TcpStream::connect(addr).expect("connect"));
    conn.send(&burst);

    for k in 1..=3 {
        let rec = conn.next_response();
        assert_eq!(status_of(&rec), 200, "pipelined recommend k={k}: {rec}");
        let items = rec.matches("\"item\":").count();
        assert_eq!(items, k, "response answers the k={k} request in order");
        let health = conn.next_response();
        assert_eq!(status_of(&health), 200);
        assert!(health.contains("\"status\":\"ok\""), "{health}");
    }
    stop(&addr, server);
}

#[test]
fn malformed_framing_answers_json_then_closes() {
    let (_service, server, _user) = spawn_server();
    let addr = server.addr;

    // Garbage request line → 400 with a machine-readable JSON body.
    let (status, response) = one_shot(&addr, "garbage\r\n\r\n");
    assert_eq!(status, 400, "{response}");
    assert!(
        response.contains("\"error\":\"bad_request_line\""),
        "{response}"
    );
    assert!(response.contains("Connection: close"), "{response}");

    // Unparseable Content-Length → 400, never silently zero.
    let (status, response) = one_shot(
        &addr,
        "POST /explain HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status, 400, "{response}");
    assert!(
        response.contains("\"error\":\"bad_content_length\""),
        "{response}"
    );

    stop(&addr, server);
}

#[test]
fn oversized_head_answers_431() {
    let (_service, server, _user) = spawn_server();
    let addr = server.addr;

    let mut stream = TcpStream::connect(addr).expect("connect");
    // Short poll between pad chunks: stop writing the moment the server
    // answers, so its receive buffer is drained at close (clean FIN, no
    // RST racing the response back to us).
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\nX-Pad: ")
        .expect("send");
    let pad = [b'a'; 4096];
    let mut response = Vec::new();
    for _ in 0..64 {
        if stream.write_all(&pad).is_err() {
            break;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => {
                response.extend_from_slice(&chunk[..n]);
                break;
            }
            _ => {}
        }
    }
    // Collect whatever else of the answer is in flight.
    loop {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => response.extend_from_slice(&chunk[..n]),
            _ => break,
        }
    }
    let response = String::from_utf8_lossy(&response).into_owned();
    assert_eq!(status_of(&response), 431, "{response}");
    assert!(
        response.contains("\"error\":\"headers_too_large\""),
        "{response}"
    );

    stop(&addr, server);
}

#[test]
fn parse_errors_surface_in_the_prometheus_exposition() {
    let (_service, server, _user) = spawn_server();
    let addr = server.addr;

    let (status, _) = one_shot(&addr, "garbage\r\n\r\n");
    assert_eq!(status, 400);

    let (status, metrics) = one_shot(
        &addr,
        "GET /metrics?format=prometheus HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    for family in [
        "emigre_connections_active",
        "emigre_connections_accepted_total",
        "emigre_keepalive_reuses_total",
        "emigre_frontend_parse_errors_total 1",
        "emigre_reactor_threads 2",
        "emigre_sched_reordered_total",
    ] {
        assert!(metrics.contains(family), "{family} missing from exposition");
    }
    stop(&addr, server);
}
