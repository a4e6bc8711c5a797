//! Transport layer: serves the NDJSON protocol over TCP or stdio.
//!
//! The TCP server is a plain `std::net::TcpListener` with a small fixed
//! pool of handler threads fed by an unbounded crossbeam channel — one
//! connection is handled by one thread at a time, so up to `threads`
//! connections are served concurrently and the rest queue. A `shutdown`
//! command drains every session, flips the registry flag, and a
//! self-connection pokes the accept loop awake so it can exit.
//!
//! Framing is byte-level and hardened: lines are read raw (invalid
//! UTF-8 gets a structured `bad_frame` error instead of killing the
//! connection) and capped at [`MAX_FRAME`] bytes — an oversized line is
//! skipped and answered with an error frame, so a malicious or broken
//! client cannot make the server buffer unbounded input.

use crate::protocol::{codes, error_frame};
use crate::registry::Registry;
use crossbeam::channel::{unbounded, Receiver};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Maximum accepted request-line length in bytes (1 MiB). Longer lines
/// are discarded and answered with a `bad_frame` error.
pub const MAX_FRAME: usize = 1 << 20;

/// One raw request line, as read by [`read_frame`].
enum Frame {
    /// End of input.
    Eof,
    /// A complete line (without the trailing newline guarantee — the
    /// final line of the stream may lack one).
    Line(Vec<u8>),
    /// A line longer than [`MAX_FRAME`]; its bytes were discarded.
    Oversized,
}

/// Reads one newline-terminated frame without assuming UTF-8, enforcing
/// the [`MAX_FRAME`] cap. An oversized line is consumed to its end so
/// the connection can continue with the next frame.
fn read_frame(reader: &mut impl BufRead) -> Result<Frame, String> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_FRAME as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|e| e.to_string())?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.len() > MAX_FRAME && !buf.ends_with(b"\n") {
        // Skip the remainder of the oversized line.
        loop {
            let mut rest = Vec::new();
            let m = reader
                .by_ref()
                .take(MAX_FRAME as u64)
                .read_until(b'\n', &mut rest)
                .map_err(|e| e.to_string())?;
            if m == 0 || rest.ends_with(b"\n") {
                break;
            }
        }
        return Ok(Frame::Oversized);
    }
    Ok(Frame::Line(buf))
}

/// Serves NDJSON request lines from `input` until end of input, or
/// until `done()` holds after a reply. Each non-blank line (trimmed) is
/// answered with `dispatch(line)`; a line over [`MAX_FRAME`] bytes or
/// not valid UTF-8 draws a `bad_frame` error instead (counted in
/// `frames_rejected`), and the connection carries on. The server and
/// the cluster front-end both serve their connections with it.
pub fn serve_lines(
    input: impl Read,
    mut output: impl Write,
    mut dispatch: impl FnMut(&str) -> String,
    done: impl Fn() -> bool,
) -> Result<(), String> {
    let mut reader = BufReader::new(input);
    loop {
        let line = match read_frame(&mut reader)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized => Err("malformed request: frame exceeds the 1 MiB limit"),
            Frame::Line(bytes) => {
                String::from_utf8(bytes).map_err(|_| "malformed request: line is not valid UTF-8")
            }
        };
        let response = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => dispatch(line.trim()),
            Err(reason) => {
                crate::obs::metrics().frames_rejected.inc();
                error_frame(codes::BAD_FRAME, reason)
            }
        };
        output
            .write_all(response.as_bytes())
            .and_then(|()| output.write_all(b"\n"))
            .and_then(|()| output.flush())
            .map_err(|e| e.to_string())?;
        if done() {
            return Ok(());
        }
    }
}

/// TCP server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port 0 picks a free port.
    pub addr: String,
    /// Handler threads (concurrent connections).
    pub threads: usize,
    /// Optional Prometheus scrape endpoint (`GET /metrics` over plain
    /// HTTP/1.1), e.g. `127.0.0.1:9187`. `None` disables it.
    pub metrics_addr: Option<String>,
    /// Directory for durable session checkpoints (written after every
    /// tick; `restore` rebuilds sessions from it). `None` disables
    /// persistence.
    pub checkpoint_dir: Option<String>,
    /// Default crashed-worker restart budget per session before
    /// quarantine. `None` keeps the [`crate::SessionConfig`] default.
    pub max_worker_restarts: Option<usize>,
    /// Directory for per-session write-ahead journals (appended before
    /// every ack; replayed on `restore` past the newest checkpoint).
    /// `None` disables journaling.
    pub journal_dir: Option<String>,
    /// Journal fsync policy (`always` / `interval:<ms>` / `never`).
    pub journal_fsync: crate::journal::FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 4,
            metrics_addr: None,
            checkpoint_dir: None,
            max_worker_restarts: None,
            journal_dir: None,
            journal_fsync: crate::journal::FsyncPolicy::default(),
        }
    }
}

/// A bound, not-yet-running TCP server. Binding is split from serving so
/// callers (tests, the CLI) can learn the actual port before blocking.
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    registry: Arc<Registry>,
    threads: usize,
}

impl Server {
    /// Binds the listen socket (and the metrics socket, if configured).
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => {
                Some(TcpListener::bind(addr).map_err(|e| format!("bind metrics {addr}: {e}"))?)
            }
            None => None,
        };
        Ok(Server {
            listener,
            metrics_listener,
            registry: Arc::new(
                Registry::with_options(
                    config.checkpoint_dir.clone().map(Into::into),
                    config.max_worker_restarts,
                )
                .with_journal(
                    config.journal_dir.clone().map(Into::into),
                    config.journal_fsync,
                ),
            ),
            threads: config.threads.max(1),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// The bound metrics address, if a metrics endpoint is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The shared registry (for in-process inspection in tests).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Accepts and serves connections until a `shutdown` command. Blocks.
    pub fn serve(self) -> Result<(), String> {
        let local = self.local_addr()?;
        rtec_obs::info(
            "service.listening",
            &[
                ("addr", local.to_string().into()),
                ("threads", self.threads.into()),
            ],
        );
        let metrics_local = self.metrics_addr();
        let metrics_handle = self.metrics_listener.map(|listener| {
            let registry = Arc::clone(&self.registry);
            if let Some(addr) = metrics_local {
                rtec_obs::info(
                    "service.metrics_listening",
                    &[("addr", addr.to_string().into())],
                );
            }
            std::thread::spawn(move || serve_metrics(&listener, &registry))
        });
        let (tx, rx) = unbounded::<TcpStream>();
        let mut handlers = Vec::with_capacity(self.threads);
        for _ in 0..self.threads {
            let rx: Receiver<TcpStream> = rx.clone();
            let registry = Arc::clone(&self.registry);
            handlers.push(std::thread::spawn(move || {
                while let Ok(stream) = rx.recv() {
                    // A failed connection must not take the worker down.
                    let _ = handle_connection(stream, &registry, local);
                }
            }));
        }
        for stream in self.listener.incoming() {
            if self.registry.is_shutting_down() {
                break;
            }
            match stream {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for handler in handlers {
            let _ = handler.join();
        }
        // Poke the metrics accept loop awake so it observes the shutdown
        // flag (same trick handle_connection plays on the main listener).
        if let Some(addr) = metrics_local {
            let _ = TcpStream::connect(addr);
        }
        if let Some(handle) = metrics_handle {
            let _ = handle.join();
        }
        rtec_obs::info("service.stopped", &[]);
        Ok(())
    }
}

/// Serves `GET /metrics` (Prometheus text), `GET /healthz` (process
/// liveness) and `GET /readyz` (traffic readiness) over minimal
/// HTTP/1.1, one request per connection, until the registry starts
/// shutting down. Unknown paths fall back to the metrics body for
/// compatibility with pre-route scrapers.
fn serve_metrics(listener: &TcpListener, registry: &Registry) {
    for stream in listener.incoming() {
        if registry.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = serve_one_scrape(stream, registry);
    }
}

fn serve_one_scrape(stream: TcpStream, registry: &Registry) -> Result<(), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    // Capture the request line's path, then drain the headers (up to the
    // blank line).
    let mut path = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 || line.trim().is_empty() {
            break;
        }
        if path.is_empty() {
            // "GET /readyz HTTP/1.1" — the middle token is the path.
            path = line
                .split_whitespace()
                .nth(1)
                .unwrap_or_default()
                .to_string();
        }
    }
    let (status, content_type, body) = match path.as_str() {
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/readyz" => match registry.readiness() {
            Ok(()) => ("200 OK", "text/plain", "ready\n".to_string()),
            Err(reason) => (
                "503 Service Unavailable",
                "text/plain",
                format!("{reason}\n"),
            ),
        },
        _ => (
            "200 OK",
            rtec_obs::expo::CONTENT_TYPE,
            registry.render_metrics(),
        ),
    };
    let mut writer = BufWriter::new(stream);
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .and_then(|()| writer.flush())
    .map_err(|e| e.to_string())
}

/// Serves one connection: reads request lines, writes response lines.
/// Returns when the peer closes or after relaying a `shutdown`.
fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    local: SocketAddr,
) -> Result<(), String> {
    let peer_read = stream.try_clone().map_err(|e| e.to_string())?;
    serve_lines(
        peer_read,
        BufWriter::new(stream),
        |line| registry.dispatch(line),
        || registry.is_shutting_down(),
    )?;
    if registry.is_shutting_down() {
        // Self-connect once so a blocked accept() wakes up and
        // observes the shutdown flag. Best-effort: if it fails, the
        // next real connection unblocks the loop instead.
        let _ = TcpStream::connect(local);
    }
    Ok(())
}

/// Sends `shutdown` to a running server at `addr`. Used by the CLI
/// client and by tests.
pub fn request_shutdown(addr: &str) -> Result<String, String> {
    roundtrip(addr, "{\"cmd\":\"shutdown\"}")
}

/// One-shot request/response against a server at `addr`.
pub fn roundtrip(addr: &str, request_line: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    writer
        .write_all(request_line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if line.is_empty() {
        return Err("server closed the connection".into());
    }
    Ok(line.trim_end().to_string())
}

/// Serves the protocol over arbitrary reader/writer pairs (used for
/// stdio mode: `rtec-cli serve --stdio`). Returns after `shutdown` or
/// end of input.
pub fn serve_stdio(
    registry: &Registry,
    input: impl Read,
    output: impl Write,
) -> Result<(), String> {
    serve_lines(
        input,
        output,
        |line| registry.dispatch(line),
        || registry.is_shutting_down(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                        terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

    #[test]
    fn stdio_round_trip() {
        let registry = Registry::new();
        let open = format!(
            "{{\"cmd\":\"open\",\"session\":\"s\",\"description\":{}}}",
            serde_json::to_string(&Value::from(DESC)).unwrap()
        );
        let script = format!(
            "{open}\n{}\n{}\n{}\n{}\n",
            r#"{"cmd":"event","session":"s","t":5,"event":"up(a)"}"#,
            r#"{"cmd":"tick","session":"s","to":10}"#,
            r#"{"cmd":"query","session":"s"}"#,
            r#"{"cmd":"shutdown"}"#,
        );
        let mut out = Vec::new();
        serve_stdio(&registry, script.as_bytes(), &mut out).unwrap();
        let lines: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|v| v["ok"] == true), "{lines:?}");
        assert_eq!(lines[3]["rows"][0]["fvp"], "on(a)=true");
        assert_eq!(lines[3]["rows"][0]["intervals"], "[[6, 11)]");
        assert!(registry.is_shutting_down());
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let metrics_addr = server.metrics_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve());

        let open = format!(
            "{{\"cmd\":\"open\",\"session\":\"s\",\"description\":{}}}",
            serde_json::to_string(&Value::from(DESC)).unwrap()
        );
        let v: Value = serde_json::from_str(&roundtrip(&addr, &open).unwrap()).unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        let v: Value = serde_json::from_str(
            &roundtrip(
                &addr,
                r#"{"cmd":"event","session":"s","t":5,"event":"up(a)"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        let v: Value = serde_json::from_str(
            &roundtrip(&addr, r#"{"cmd":"tick","session":"s","to":10}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(v["events_processed"], 1i64);

        // The HTTP metrics endpoint returns valid Prometheus text.
        let body = http_get(&metrics_addr);
        rtec_obs::expo::validate(&body).expect("valid exposition over HTTP");
        assert!(body.contains("rtec_service_sessions_open 1"), "{body}");
        assert!(body.contains("rtec_engine_windows_total"), "{body}");

        let v: Value = serde_json::from_str(&request_shutdown(&addr).unwrap()).unwrap();
        assert_eq!(v["closed_sessions"], 1i64);
        handle.join().unwrap().unwrap();
    }

    fn http_get(addr: &str) -> String {
        let (headers, body) = http_request(addr, "/metrics");
        assert!(headers.starts_with("HTTP/1.1 200 OK"), "{headers}");
        assert!(headers.contains("text/plain; version=0.0.4"), "{headers}");
        body
    }

    fn http_request(addr: &str, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (headers, body) = response
            .split_once("\r\n\r\n")
            .expect("HTTP header/body split");
        (headers.to_string(), body.to_string())
    }

    #[test]
    fn health_and_readiness_routes() {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let metrics_addr = server.metrics_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve());

        let (headers, body) = http_request(&metrics_addr, "/healthz");
        assert!(headers.starts_with("HTTP/1.1 200 OK"), "{headers}");
        assert_eq!(body, "ok\n");

        let (headers, body) = http_request(&metrics_addr, "/readyz");
        assert!(headers.starts_with("HTTP/1.1 200 OK"), "{headers}");
        assert_eq!(body, "ready\n");

        // A healthy open session keeps readiness green.
        let open = format!(
            "{{\"cmd\":\"open\",\"session\":\"q\",\"description\":{}}}",
            serde_json::to_string(&Value::from(DESC)).unwrap()
        );
        let v: Value = serde_json::from_str(&roundtrip(&addr, &open).unwrap()).unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        let (headers, _) = http_request(&metrics_addr, "/readyz");
        assert!(headers.starts_with("HTTP/1.1 200 OK"), "{headers}");

        // Unknown paths still serve metrics (scraper compatibility).
        let (headers, body) = http_request(&metrics_addr, "/");
        assert!(headers.starts_with("HTTP/1.1 200 OK"), "{headers}");
        assert!(body.contains("rtec_service_sessions_open"), "{body}");

        let _ = request_shutdown(&addr);
        handle.join().unwrap().unwrap();
    }
}
