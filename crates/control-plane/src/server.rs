//! The TCP serving layer: a bounded worker pool over
//! `std::net::TcpListener` with per-connection deadline I/O and a
//! SIGTERM-style graceful drain.
//!
//! # Threading model
//!
//! One acceptor thread blocks on `accept` and offers connections to a
//! bounded FIFO (the fleet's [`FleetQueue`], `workers + backlog` deep);
//! `workers` threads pop connections and serve them to completion
//! (HTTP/1.1 keep-alive with pipelining, one connection per worker at a
//! time). The queue bound is the overload valve: when every worker is
//! busy and the backlog is full, the acceptor answers `503` inline and
//! closes — the server sheds load instead of queueing unboundedly.
//!
//! # Deadlines
//!
//! Every accepted socket gets read and write timeouts
//! ([`ServerConfig::io_timeout`]). A client that stalls mid-request or
//! stops draining its receive window cannot pin a worker forever: the
//! blocked `read`/`write` returns `WouldBlock`/`TimedOut` and the
//! connection is dropped.
//!
//! # Graceful drain
//!
//! [`ServerHandle::shutdown`] follows the SIGTERM choreography: stop
//! accepting (new connections are refused at the OS level once the
//! listener closes), let in-flight connections finish their current
//! request, drain the campaign runner (whose manifest already holds
//! every transition), and join every thread. The drain/restart test in
//! `campaigns.rs` proves the stronger property — even a *hard* kill
//! mid-campaign loses no work — so the graceful path here only has to
//! be prompt.

use crate::http::{parse_request, Limits, Parsed, Response};
use crate::router::Router;
use fleet::FleetQueue;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted-connection backlog beyond busy workers; the overload
    /// valve answers `503` past it.
    pub backlog: usize,
    /// Per-socket read/write deadline.
    pub io_timeout: Duration,
    /// HTTP parsing limits.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            backlog: 64,
            io_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }
}

/// A running server; dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts threads less politely (the process
/// is exiting anyway).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    router: Arc<Router>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, finish in-flight connections,
    /// drain the campaign runner, join every thread. Idempotent per handle; blocks until quiescent.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a no-op connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.router.runner().drain();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Binds and starts serving. Returns once the listener is live.
pub fn serve(router: Arc<Router>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
    let pool = config.workers.max(1);
    let queue = Arc::new(FleetQueue::new(pool, pool + config.backlog, 1));

    let workers = (0..pool)
        .map(|w| {
            let queue = queue.clone();
            let router = router.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                while let Some(stream) = queue.next(w) {
                    serve_connection(stream, &router, &config);
                }
            })
        })
        .collect();

    let acceptor = {
        let queue = queue.clone();
        let stopping = stopping.clone();
        let router = router.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                router.metrics().connection_opened();
                if let Err(mut shed) = queue.try_push(stream) {
                    // Overload valve: every worker busy and the backlog
                    // full. Answer 503 inline and close rather than
                    // queueing unboundedly.
                    let response = Response::error(503, "server overloaded").closing();
                    let _ = shed.write_all(&response.encode());
                }
            }
            // Listener closes here; refuse-at-OS-level from now on.
            queue.close();
        })
    };

    Ok(ServerHandle {
        addr,
        router,
        stopping,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Serves one connection: keep-alive loop with pipelining, deadline
/// I/O, typed 4xx on parse errors, connection close on protocol errors
/// or request.
fn serve_connection(mut stream: TcpStream, router: &Router, config: &ServerConfig) {
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete pipelined request already buffered.
        loop {
            match parse_request(&buf, &config.limits) {
                Ok(Parsed::Complete { request, consumed }) => {
                    buf.drain(..consumed);
                    // In flight until the response is written.
                    let _guard = router.metrics().begin_request();
                    let mut response = router.handle(&request);
                    if request.wants_close() {
                        response.close = true;
                    }
                    if stream.write_all(&response.encode()).is_err() || response.close {
                        return;
                    }
                }
                Ok(Parsed::Incomplete) => break,
                Err(err) => {
                    router.metrics().parse_error();
                    let response = Response::error(err.status(), &err.to_string()).closing();
                    let _ = stream.write_all(&response.encode());
                    return;
                }
            }
        }
        // Need more bytes.
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return, // deadline or reset
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns::CampaignRunner;
    use crate::metrics::ServerMetrics;
    use crate::state::ControlState;

    fn start() -> ServerHandle {
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::in_memory(state.clone());
        let router = Arc::new(Router::new(state, runner, Arc::new(ServerMetrics::new())));
        serve(router, ServerConfig::default()).expect("bind")
    }

    /// One round-trip on a fresh connection; returns the raw response.
    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut out = Vec::new();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_status_over_tcp() {
        let server = start();
        let response = roundtrip(
            server.addr(),
            "GET /v1/status HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"breaker\""));
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = start();
        let response = roundtrip(
            server.addr(),
            "GET /v1/status HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        let statuses: Vec<_> = response.matches("HTTP/1.1 200 OK").collect();
        assert_eq!(statuses.len(), 2, "{response}");
        assert!(response.contains("control_plane_requests_total"));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_a_4xx_and_a_close() {
        let server = start();
        let response = roundtrip(server.addr(), "NOT A REQUEST\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("connection: close"));
        server.shutdown();
    }

    #[test]
    fn a_full_backlog_sheds_with_a_503_and_a_close() {
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::in_memory(state.clone());
        let router = Arc::new(Router::new(state, runner, Arc::new(ServerMetrics::new())));
        let config = ServerConfig {
            workers: 1,
            backlog: 0,
            io_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = serve(router, config).expect("bind");
        let addr = server.addr();
        // A keeps its connection alive, so the only worker now blocks
        // reading A's next request.
        let mut a = TcpStream::connect(addr).expect("connect A");
        a.write_all(b"GET /v1/status HTTP/1.1\r\n\r\n")
            .expect("send A");
        let mut head = [0u8; 12];
        a.read_exact(&mut head).expect("A is answered");
        assert_eq!(&head, b"HTTP/1.1 200");
        // B takes the queue's one slot and waits there.
        let mut b = TcpStream::connect(addr).expect("connect B");
        b.write_all(b"GET /v1/status HTTP/1.1\r\nconnection: close\r\n\r\n")
            .expect("send B");
        // C finds the queue full: the acceptor answers 503 and closes.
        let shed = roundtrip(addr, "");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        assert!(shed.contains("connection: close"), "{shed}");
        // Freeing the worker lets B through.
        drop(a);
        let _ = b.set_read_timeout(Some(Duration::from_secs(10)));
        let mut served = Vec::new();
        let _ = b.read_to_end(&mut served);
        let served = String::from_utf8_lossy(&served);
        assert!(served.starts_with("HTTP/1.1 200 OK"), "{served}");
        server.shutdown();
    }

    #[test]
    fn shutdown_refuses_new_connections_and_joins() {
        let server = start();
        let addr = server.addr();
        // Campaigns submitted before shutdown survive the drain.
        let response = roundtrip(
            addr,
            "POST /v1/campaigns HTTP/1.1\r\ncontent-length: 22\r\nconnection: close\r\n\r\n{\"boards\":2,\"seed\":42}",
        );
        assert!(response.starts_with("HTTP/1.1 202"), "{response}");
        server.shutdown();
        // After the graceful drain the port no longer accepts.
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        assert!(refused.is_err(), "listener should be closed");
    }
}
