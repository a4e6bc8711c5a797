//! Multi-process cluster front-end: a consistent-hashing NDJSON proxy
//! over N backend `rtec-cli serve` processes that share a checkpoint
//! and journal directory.
//!
//! The front-end owns no recognition state. Sessions are placed on a
//! consistent-hash ring (FNV-1a over the session name, virtual nodes
//! per backend), every request line is forwarded to the placed backend,
//! and replies stream back verbatim — a client cannot tell the proxy
//! from a single server. What the proxy adds is failover: when a
//! backend stops answering (or answers `no_such_session` for a session
//! the cluster knows it placed there, i.e. the process was replaced),
//! the front-end marks it dead, re-opens the session on the next alive
//! ring owner with a `restore` — rebuilt from the shared checkpoint +
//! write-ahead journal, so every acked event survives — and retries
//! the original request once. The same restore path drives the two
//! admin operations: `drain` (migrate everything off one backend) and
//! `rebalance` (move every session back to its ring home).
//!
//! Health is observed two ways: a periodic NDJSON `metrics` probe on
//! the data port, plus — when a backend is declared as
//! `ADDR@METRICS_ADDR` — an HTTP `GET /readyz` that must return 200.
//! Probes flip the per-backend alive bit both ways, so a killed
//! backend that is respawned on the same port rejoins automatically.

use rtec_service::protocol::{codes, error_frame};
use serde_json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Error code for a request that failed because no backend could take
/// it (connection refused everywhere, or failover restore failed).
pub const BACKEND_UNAVAILABLE: &str = "backend_unavailable";

/// How long a single backend round-trip may take before the proxy
/// declares the backend unhealthy for this request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One backend process: its NDJSON address plus an optional metrics
/// address whose `/readyz` gates health probes.
#[derive(Debug)]
struct Backend {
    addr: String,
    metrics_addr: Option<String>,
    alive: AtomicBool,
    /// A drained backend stays probed but receives no placements until
    /// explicitly rebalanced onto again (draining clears on restart of
    /// the front-end, not of the backend).
    draining: AtomicBool,
}

/// Consistent-hash ring: `vnodes` pseudo-random points per backend on
/// the FNV-1a u64 circle. Placement walks clockwise from the session's
/// hash to the first point owned by a live, non-draining backend.
#[derive(Debug)]
struct Ring {
    /// Sorted (point, backend index).
    points: Vec<(u64, usize)>,
}

/// FNV-1a pushed through the SplitMix64 finalizer: FNV alone leaves
/// structured keys (near-identical address strings) clustered on the
/// circle; the finalizer spreads them uniformly.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = rtec::json::fnv1a64(bytes);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Ring {
    fn new(backends: &[String], vnodes: usize) -> Ring {
        let mut points = Vec::with_capacity(backends.len() * vnodes);
        for (i, addr) in backends.iter().enumerate() {
            for v in 0..vnodes {
                points.push((ring_hash(format!("{addr}#{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// The ring owner for `session` among backends accepted by `ok`.
    /// Returns `None` when no backend qualifies.
    fn place(&self, session: &str, ok: impl Fn(usize) -> bool) -> Option<usize> {
        let h = ring_hash(session.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        (0..self.points.len())
            .map(|i| self.points[(start + i) % self.points.len()].1)
            .find(|&b| ok(b))
    }
}

/// The shared cluster state; [`Cluster`] is a cheap clone handle.
struct ClusterState {
    backends: Vec<Backend>,
    ring: Ring,
    /// Where each open session currently lives (backend index). Differs
    /// from the ring home after a failover or drain.
    placements: Mutex<HashMap<String, usize>>,
    shutting_down: AtomicBool,
}

/// The cluster front-end. Usable in-process (tests drive [`dispatch`])
/// or as a TCP server via [`Cluster::serve`].
///
/// [`dispatch`]: Cluster::dispatch
#[derive(Clone)]
pub struct Cluster {
    state: Arc<ClusterState>,
}

/// One backend's status row in `cluster stats` output.
fn backend_row(b: &Backend, sessions: usize) -> Value {
    let mut map = std::collections::BTreeMap::new();
    map.insert("addr".to_string(), Value::from(b.addr.as_str()));
    map.insert(
        "alive".to_string(),
        Value::from(b.alive.load(Ordering::SeqCst)),
    );
    map.insert(
        "draining".to_string(),
        Value::from(b.draining.load(Ordering::SeqCst)),
    );
    map.insert("sessions".to_string(), Value::from(sessions as i64));
    Value::Object(map)
}

impl Cluster {
    /// Builds a front-end over `backends`, each `ADDR` or
    /// `ADDR@METRICS_ADDR`. All backends start presumed alive; the
    /// first failed round-trip or probe corrects that.
    pub fn new(backends: &[String], vnodes: usize) -> Result<Cluster, String> {
        if backends.is_empty() {
            return Err("cluster: at least one --backend is required".to_string());
        }
        let parsed: Vec<Backend> = backends
            .iter()
            .map(|spec| {
                let (addr, metrics) = match spec.split_once('@') {
                    Some((a, m)) => (a.to_string(), Some(m.to_string())),
                    None => (spec.clone(), None),
                };
                Backend {
                    addr,
                    metrics_addr: metrics,
                    alive: AtomicBool::new(true),
                    draining: AtomicBool::new(false),
                }
            })
            .collect();
        let addrs: Vec<String> = parsed.iter().map(|b| b.addr.clone()).collect();
        Ok(Cluster {
            state: Arc::new(ClusterState {
                ring: Ring::new(&addrs, vnodes.max(1)),
                backends: parsed,
                placements: Mutex::new(HashMap::new()),
                shutting_down: AtomicBool::new(false),
            }),
        })
    }

    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::SeqCst)
    }

    fn placeable(&self, i: usize) -> bool {
        self.state.backends[i].alive.load(Ordering::SeqCst)
            && !self.state.backends[i].draining.load(Ordering::SeqCst)
    }

    /// One synchronous health sweep: probe every backend and update its
    /// alive bit. Returns the number of live backends. Tests call this
    /// directly; [`Cluster::serve`] calls it on a timer.
    pub fn probe(&self) -> usize {
        let mut live = 0;
        for b in &self.state.backends {
            let mut ok = roundtrip(&b.addr, "{\"cmd\":\"metrics\"}").is_ok();
            if ok {
                if let Some(metrics) = &b.metrics_addr {
                    ok = http_ready(metrics);
                }
            }
            b.alive.store(ok, Ordering::SeqCst);
            live += usize::from(ok);
        }
        live
    }

    /// Handles one request line, proxying to the placed backend with
    /// one failover retry. Always returns a complete reply frame.
    pub fn dispatch(&self, line: &str) -> String {
        let req: Value = match serde_json::from_str(line.trim()) {
            Ok(v) => v,
            Err(e) => return error_frame(codes::BAD_FRAME, &format!("malformed request: {e}")),
        };
        let cmd = req.get("cmd").and_then(Value::as_str).unwrap_or_default();
        match cmd {
            "cluster" => self.admin(&req),
            "shutdown" => self.shutdown(),
            // Sessionless pass-through: any live backend can answer.
            "metrics" => match self.any_alive() {
                Some(i) => self
                    .forward(i, line)
                    .unwrap_or_else(|e| error_frame(BACKEND_UNAVAILABLE, &e)),
                None => error_frame(BACKEND_UNAVAILABLE, "no live backend"),
            },
            _ => {
                let Some(session) = req.get("session").and_then(Value::as_str) else {
                    return error_frame(codes::BAD_REQUEST, "missing required field \"session\"");
                };
                self.proxy_session(session.to_string(), cmd, line)
            }
        }
    }

    fn any_alive(&self) -> Option<usize> {
        (0..self.state.backends.len())
            .find(|&i| self.state.backends[i].alive.load(Ordering::SeqCst))
    }

    /// Where `session` should be served right now: its recorded
    /// placement if that backend is alive, else its ring home among
    /// placeable backends.
    fn target_for(&self, session: &str) -> Result<usize, String> {
        if let Some(&i) = self.state.placements.lock().unwrap().get(session) {
            if self.state.backends[i].alive.load(Ordering::SeqCst) {
                return Ok(i);
            }
        }
        self.state
            .ring
            .place(session, |i| self.placeable(i))
            .ok_or_else(|| "no live backend".to_string())
    }

    /// Forwards a session command, restoring the session on a fresh
    /// backend and retrying once when the placed backend fails.
    fn proxy_session(&self, session: String, cmd: &str, line: &str) -> String {
        let target = match self.target_for(&session) {
            Ok(t) => t,
            Err(e) => return error_frame(BACKEND_UNAVAILABLE, &e),
        };
        match self.forward(target, line) {
            Ok(reply) => {
                // A backend that answers `no_such_session` for a session
                // the cluster placed on it has lost its state (the
                // process was replaced). Recover it in place.
                if reply_code(&reply) == Some(codes::NO_SUCH_SESSION.to_string())
                    && self.knows(&session)
                    && cmd != "restore"
                    && cmd != "open"
                {
                    return self.failover(&session, line, Some(target));
                }
                self.note_placement(&session, cmd, target, &reply);
                reply
            }
            Err(_) => {
                self.state.backends[target]
                    .alive
                    .store(false, Ordering::SeqCst);
                if cmd == "open" {
                    // Nothing durable exists yet; just place elsewhere.
                    return match self.target_for(&session) {
                        Ok(next) => match self.forward(next, line) {
                            Ok(reply) => {
                                self.note_placement(&session, cmd, next, &reply);
                                reply
                            }
                            Err(e) => error_frame(BACKEND_UNAVAILABLE, &e),
                        },
                        Err(e) => error_frame(BACKEND_UNAVAILABLE, &e),
                    };
                }
                self.failover(&session, line, None)
            }
        }
    }

    fn knows(&self, session: &str) -> bool {
        self.state.placements.lock().unwrap().contains_key(session)
    }

    /// Records placement changes implied by a successful reply.
    fn note_placement(&self, session: &str, cmd: &str, target: usize, reply: &str) {
        if reply_code(reply).is_some() {
            return; // errored replies change nothing
        }
        let mut placements = self.state.placements.lock().unwrap();
        match cmd {
            "close" => {
                placements.remove(session);
            }
            _ => {
                placements.insert(session.to_string(), target);
            }
        }
    }

    /// Re-opens `session` from durable state on a live backend
    /// (`on`, or the ring's pick) and retries the original line there.
    fn failover(&self, session: &str, line: &str, on: Option<usize>) -> String {
        let target = match on.map(Ok).unwrap_or_else(|| self.target_for(session)) {
            Ok(t) => t,
            Err(e) => return error_frame(BACKEND_UNAVAILABLE, &e),
        };
        let restore = format!(
            "{{\"cmd\":\"restore\",\"session\":{}}}",
            serde_json::to_string(&Value::from(session)).unwrap()
        );
        match self.forward(target, &restore) {
            Ok(reply) => {
                let code = reply_code(&reply);
                // `session_exists` means another client's failover won
                // the race — the session is there, proceed.
                if let Some(code) = code {
                    if code != codes::SESSION_EXISTS {
                        return error_frame(
                            BACKEND_UNAVAILABLE,
                            &format!(
                                "failover restore failed on {}: {reply}",
                                self.state.backends[target].addr
                            ),
                        );
                    }
                }
            }
            Err(e) => {
                self.state.backends[target]
                    .alive
                    .store(false, Ordering::SeqCst);
                return error_frame(BACKEND_UNAVAILABLE, &format!("failover restore: {e}"));
            }
        }
        self.state
            .placements
            .lock()
            .unwrap()
            .insert(session.to_string(), target);
        rtec_obs::warn(
            "cluster.failover",
            &[
                ("session", session.into()),
                ("to", self.state.backends[target].addr.as_str().into()),
            ],
        );
        match self.forward(target, line) {
            Ok(reply) => reply,
            Err(e) => error_frame(BACKEND_UNAVAILABLE, &format!("retry after failover: {e}")),
        }
    }

    fn forward(&self, backend: usize, line: &str) -> Result<String, String> {
        roundtrip(&self.state.backends[backend].addr, line)
    }

    /// `{"cmd":"cluster","op":...}` admin commands.
    fn admin(&self, req: &Value) -> String {
        match req.get("op").and_then(Value::as_str) {
            Some("stats") => {
                let placements = self.state.placements.lock().unwrap();
                let rows: Vec<Value> = self
                    .state
                    .backends
                    .iter()
                    .enumerate()
                    .map(|(i, b)| backend_row(b, placements.values().filter(|&&p| p == i).count()))
                    .collect();
                let mut map = std::collections::BTreeMap::new();
                map.insert("ok".to_string(), Value::from(true));
                map.insert("backends".to_string(), Value::Array(rows));
                map.insert("sessions".to_string(), Value::from(placements.len() as i64));
                serde_json::to_string(&Value::Object(map)).unwrap_or_default()
            }
            Some("drain") => {
                let Some(addr) = req.get("backend").and_then(Value::as_str) else {
                    return error_frame(codes::BAD_REQUEST, "drain: missing field \"backend\"");
                };
                match self.drain(addr) {
                    Ok(moved) => format!("{{\"ok\":true,\"moved\":{moved}}}"),
                    Err(e) => error_frame(BACKEND_UNAVAILABLE, &e),
                }
            }
            Some("rebalance") => match self.rebalance() {
                Ok(moved) => format!("{{\"ok\":true,\"moved\":{moved}}}"),
                Err(e) => error_frame(BACKEND_UNAVAILABLE, &e),
            },
            Some(other) => error_frame(
                codes::BAD_REQUEST,
                &format!("unknown cluster op \"{other}\" (stats|drain|rebalance)"),
            ),
            None => error_frame(codes::BAD_REQUEST, "cluster: missing field \"op\""),
        }
    }

    /// Migrates one session: graceful close (keeping durable state) at
    /// the source when it still answers, then restore at `to`.
    fn migrate(&self, session: &str, from: usize, to: usize) -> Result<(), String> {
        let name = serde_json::to_string(&Value::from(session)).unwrap();
        if self.state.backends[from].alive.load(Ordering::SeqCst) {
            let close = format!("{{\"cmd\":\"close\",\"session\":{name},\"keep_durable\":true}}");
            match self.forward(from, &close) {
                Ok(reply) => {
                    // A session the source no longer has is fine — the
                    // durable state is what we migrate from.
                    if let Some(code) = reply_code(&reply) {
                        if code != codes::NO_SUCH_SESSION {
                            return Err(format!("drain close failed: {reply}"));
                        }
                    }
                }
                Err(_) => {
                    self.state.backends[from]
                        .alive
                        .store(false, Ordering::SeqCst);
                }
            }
        }
        let restore = format!("{{\"cmd\":\"restore\",\"session\":{name}}}");
        let reply = self.forward(to, &restore)?;
        if let Some(code) = reply_code(&reply) {
            if code != codes::SESSION_EXISTS {
                return Err(format!(
                    "restore on {} failed: {reply}",
                    self.state.backends[to].addr
                ));
            }
        }
        self.state
            .placements
            .lock()
            .unwrap()
            .insert(session.to_string(), to);
        Ok(())
    }

    /// Moves every session off the backend at `addr` (checkpoint-based
    /// migration through the shared durable dirs) and marks it
    /// non-placeable until the next `rebalance`.
    fn drain(&self, addr: &str) -> Result<usize, String> {
        let from = self
            .state
            .backends
            .iter()
            .position(|b| b.addr == addr)
            .ok_or_else(|| format!("unknown backend \"{addr}\""))?;
        self.state.backends[from]
            .draining
            .store(true, Ordering::SeqCst);
        let victims: Vec<String> = {
            let placements = self.state.placements.lock().unwrap();
            placements
                .iter()
                .filter(|&(_, &p)| p == from)
                .map(|(s, _)| s.clone())
                .collect()
        };
        let mut moved = 0;
        for session in victims {
            let to = self
                .state
                .ring
                .place(&session, |i| i != from && self.placeable(i))
                .ok_or_else(|| "no live backend to drain onto".to_string())?;
            self.migrate(&session, from, to)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Moves every session back to its current ring home (e.g. after a
    /// drained backend has been serviced). Clears draining flags first
    /// so serviced backends are placeable again.
    fn rebalance(&self) -> Result<usize, String> {
        for b in &self.state.backends {
            b.draining.store(false, Ordering::SeqCst);
        }
        self.probe();
        let snapshot: Vec<(String, usize)> = self
            .state
            .placements
            .lock()
            .unwrap()
            .iter()
            .map(|(s, &p)| (s.clone(), p))
            .collect();
        let mut moved = 0;
        for (session, at) in snapshot {
            let home = self
                .state
                .ring
                .place(&session, |i| self.placeable(i))
                .ok_or_else(|| "no live backend".to_string())?;
            if home != at {
                self.migrate(&session, at, home)?;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Relays `shutdown` to every live backend, then stops the proxy.
    fn shutdown(&self) -> String {
        let mut closed = 0i64;
        for b in &self.state.backends {
            if !b.alive.load(Ordering::SeqCst) {
                continue;
            }
            if let Ok(reply) = roundtrip(&b.addr, "{\"cmd\":\"shutdown\"}") {
                let v: Result<Value, _> = serde_json::from_str(&reply);
                if let Ok(v) = v {
                    closed += v
                        .get("closed_sessions")
                        .and_then(Value::as_i64)
                        .unwrap_or(0);
                }
            }
        }
        self.state.shutting_down.store(true, Ordering::SeqCst);
        format!("{{\"ok\":true,\"closed_sessions\":{closed}}}")
    }

    /// Serves the NDJSON front-end on `listener`, probing backend
    /// health every `health_interval`. Blocks until `shutdown`.
    pub fn serve(self, listener: TcpListener, health_interval: Duration) -> Result<(), String> {
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        rtec_obs::info(
            "cluster.listening",
            &[
                ("addr", local.to_string().into()),
                ("backends", (self.state.backends.len() as i64).into()),
            ],
        );
        let prober = {
            let cluster = self.clone();
            std::thread::spawn(move || {
                while !cluster.is_shutting_down() {
                    cluster.probe();
                    std::thread::sleep(health_interval);
                }
            })
        };
        for stream in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let cluster = self.clone();
            std::thread::spawn(move || {
                let _ = cluster.handle_connection(stream, local);
            });
        }
        let _ = prober.join();
        rtec_obs::info("cluster.stopped", &[]);
        Ok(())
    }

    /// Serves one client connection with the server's framing (see
    /// [`rtec_service::server::serve_lines`]): lines are capped at
    /// [`rtec_service::MAX_FRAME`], and oversized or non-UTF-8 lines get
    /// a `bad_frame` reply without ending the connection.
    fn handle_connection(&self, stream: TcpStream, local: SocketAddr) -> Result<(), String> {
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        rtec_service::server::serve_lines(
            reader,
            BufWriter::new(stream),
            |line| self.dispatch(line),
            || self.is_shutting_down(),
        )?;
        if self.is_shutting_down() {
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(local);
        }
        Ok(())
    }
}

/// Extracts the error code from a reply frame, `None` for `ok` replies.
fn reply_code(reply: &str) -> Option<String> {
    let v: Value = serde_json::from_str(reply).ok()?;
    if v.get("ok") == Some(&Value::from(true)) {
        return None;
    }
    Some(
        v.get("code")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string(),
    )
}

/// One-shot NDJSON round-trip with connect/read timeouts, so one hung
/// backend cannot wedge the proxy.
fn roundtrip(addr: &str, line: &str) -> Result<String, String> {
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad backend addr {addr}: {e}"))?;
    let stream = TcpStream::connect_timeout(&sock, IO_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    if reply.is_empty() {
        return Err(format!("{addr}: connection closed mid-request"));
    }
    Ok(reply.trim_end().to_string())
}

/// `GET /readyz` against a backend's metrics endpoint; readiness means
/// HTTP 200 (no quarantined sessions, no replay in flight).
fn http_ready(addr: &str) -> bool {
    let Ok(sock) = addr.parse::<SocketAddr>() else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&sock, IO_TIMEOUT) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    if stream
        .write_all(b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut response = String::new();
    if stream.read_to_string(&mut response).is_err() {
        return false;
    }
    response.starts_with("HTTP/1.1 200")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_backends() {
        let backends: Vec<String> = (0..4).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect();
        let ring = Ring::new(&backends, 32);
        let mut hits = vec![0usize; backends.len()];
        for s in 0..200 {
            let session = format!("session-{s}");
            let a = ring.place(&session, |_| true).unwrap();
            let b = ring.place(&session, |_| true).unwrap();
            assert_eq!(a, b, "placement must be deterministic");
            hits[a] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 0),
            "every backend owns some sessions: {hits:?}"
        );
        let pinned: Vec<usize> = (0..8)
            .map(|s| ring.place(&format!("session-{s}"), |_| true).unwrap())
            .collect();
        assert_eq!(
            pinned,
            vec![0, 1, 3, 1, 1, 3, 0, 0],
            "placements are pinned"
        );
        assert_eq!(ring_hash(b"127.0.0.1:7000#0"), 3_801_832_527_789_689_586);
    }

    #[test]
    fn ring_skips_filtered_backends() {
        let backends: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect();
        let ring = Ring::new(&backends, 16);
        for s in 0..50 {
            let session = format!("s{s}");
            let placed = ring.place(&session, |i| i != 1).unwrap();
            assert_ne!(placed, 1, "dead backend must never be placed on");
        }
        assert_eq!(ring.place("x", |_| false), None);
    }

    #[test]
    fn placement_is_stable_under_unrelated_death() {
        // Consistent hashing: killing one backend only moves the
        // sessions that lived there.
        let backends: Vec<String> = (0..4).map(|i| format!("127.0.0.1:{}", 7200 + i)).collect();
        let ring = Ring::new(&backends, 64);
        for s in 0..100 {
            let session = format!("job-{s}");
            let before = ring.place(&session, |_| true).unwrap();
            let after = ring.place(&session, |i| i != 2).unwrap();
            if before != 2 {
                assert_eq!(before, after, "unaffected session must not move");
            } else {
                assert_ne!(after, 2);
            }
        }
    }

    #[test]
    fn cluster_reports_structured_errors_without_backends() {
        // Point at a port nothing listens on: every path must yield a
        // structured error frame, never a panic or empty reply.
        let cluster = Cluster::new(&["127.0.0.1:1".to_string()], 8).unwrap();
        assert_eq!(cluster.probe(), 0);
        let reply = cluster.dispatch(r#"{"cmd":"event","session":"s","t":1,"event":"up(a)"}"#);
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["ok"], false);
        assert_eq!(v["code"], BACKEND_UNAVAILABLE);
        let reply = cluster.dispatch(r#"{"cmd":"cluster","op":"stats"}"#);
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["ok"], true);
        assert_eq!(v["backends"][0]["alive"], false);
        let reply = cluster.dispatch("not json");
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["code"], "bad_frame");
    }

    #[test]
    fn bad_frames_get_bad_frame_and_the_connection_carries_on() {
        // No live backend: nothing listens on port 1.
        let cluster = Cluster::new(&["127.0.0.1:1".to_string()], 8).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
        let served = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            cluster.handle_connection(stream, local)
        });
        let mut client = TcpStream::connect(local).unwrap();
        let mut replies = BufReader::new(client.try_clone().unwrap()).lines();
        let mut oversized = vec![b'x'; rtec_service::MAX_FRAME + 16];
        oversized.push(b'\n');
        client.write_all(&oversized).unwrap();
        client.write_all(b"{\"cmd\":\"\xff\xfe\"}\n").unwrap();
        client
            .write_all(b"{\"cmd\":\"cluster\",\"op\":\"stats\"}\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut next =
            || -> Value { serde_json::from_str(&replies.next().unwrap().unwrap()).unwrap() };
        let too_long = next();
        assert_eq!(too_long["code"], "bad_frame", "{too_long:?}");
        assert!(
            too_long["error"].as_str().unwrap().contains("1 MiB"),
            "{too_long:?}"
        );
        let not_utf8 = next();
        assert_eq!(not_utf8["code"], "bad_frame", "{not_utf8:?}");
        assert!(
            not_utf8["error"].as_str().unwrap().contains("UTF-8"),
            "{not_utf8:?}"
        );
        let stats = next();
        assert_eq!(stats["ok"], true, "{stats:?}");
        assert_eq!(stats["backends"][0]["addr"], "127.0.0.1:1", "{stats:?}");
        served.join().unwrap().unwrap();
    }
}
