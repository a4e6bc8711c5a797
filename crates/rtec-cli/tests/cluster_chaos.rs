//! Process-level chaos: real `rtec-cli serve` backend processes,
//! SIGKILLed mid-stream under a seeded schedule, fronted by the
//! cluster proxy.
//!
//! The invariant under test is the tentpole claim of the write-ahead
//! journal: after any kill, the client-observed recognition output
//! converges **byte-identically** to a fault-free run of the same feed
//! — zero acked-event loss. The client model is explicit: a frame that
//! fails with `backend_unavailable` (or on the wire) is retried after
//! the harness performs recovery (respawn the sole backend, or let the
//! proxy fail the session over to the survivor); an acked frame is
//! never re-sent. Anything the backend acked before dying must
//! therefore come back from checkpoint + journal alone.
//!
//! Seeds come from `RTEC_CLUSTER_SEED` (the CI matrix sweeps several,
//! plus one random seed whose value is logged); without it a small
//! fixed sweep runs so plain `cargo test` exercises both topologies.

use rtec_cli::cluster::Cluster;
use serde_json::Value;
use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DESC: &str = "initiatedAt(on(X)=true, T) :- happensAt(up(X), T).
                    terminatedAt(on(X)=true, T) :- happensAt(down(X), T).";

const TICK_EVERY: i64 = 30;
const TICKS: i64 = 5;

fn events_for_tick(k: i64) -> Vec<(i64, String)> {
    (k * TICK_EVERY..(k + 1) * TICK_EVERY)
        .map(|t| {
            let entity = ["a", "b", "c"][(t % 3) as usize];
            let ev = if t % 10 < 5 { "up" } else { "down" };
            (t, format!("{ev}({entity})"))
        })
        .collect()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A port the OS just considered free. Bound-then-dropped, so a tiny
/// race window exists; fine for a test harness.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// One backend `serve` process. Killed on drop. Its stderr goes to a
/// temp file so that a backend which dies during startup (a lost port
/// race, a bad flag) is reported with its own words at once.
struct Backend {
    child: Child,
    addr: String,
    spec: String,
    stderr: PathBuf,
}

impl Backend {
    fn spawn(port: u16, metrics_port: Option<u16>, cp: &Path, jnl: &Path) -> Backend {
        static SPAWNED: AtomicUsize = AtomicUsize::new(0);
        let addr = format!("127.0.0.1:{port}");
        let stderr = std::env::temp_dir().join(format!(
            "rtec-cluster-backend-{}-{}.stderr",
            std::process::id(),
            SPAWNED.fetch_add(1, Ordering::Relaxed)
        ));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtec-cli"));
        cmd.args([
            "serve",
            "--addr",
            &addr,
            "--threads",
            "2",
            "--checkpoint-dir",
            cp.to_str().unwrap(),
            "--journal-dir",
            jnl.to_str().unwrap(),
            "--journal-fsync",
            "never",
        ])
        .env("RTEC_LOG", "error")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(&stderr).expect("backend stderr file"));
        let spec = match metrics_port {
            Some(mp) => {
                cmd.args(["--metrics-addr", &format!("127.0.0.1:{mp}")]);
                format!("{addr}@127.0.0.1:{mp}")
            }
            None => addr.clone(),
        };
        let child = cmd.spawn().expect("spawn backend");
        let mut backend = Backend {
            child,
            addr,
            spec,
            stderr,
        };
        backend.wait_ready();
        backend
    }

    /// Polls the NDJSON port until the server answers a `metrics`
    /// frame (startup is fast; generous deadline for loaded CI boxes).
    /// Fails at once, with the exit status and stderr, if the process
    /// exits first.
    fn wait_ready(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if ndjson(&self.addr, "{\"cmd\":\"metrics\"}").is_ok() {
                return;
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                panic!(
                    "backend {} exited before becoming ready ({status}); stderr:\n{}",
                    self.addr,
                    self.stderr_text()
                );
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!(
            "backend {} never became ready; stderr:\n{}",
            self.addr,
            self.stderr_text()
        );
    }

    fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_else(|e| format!("(unreadable: {e})"))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_file(&self.stderr);
    }
}

/// Raw one-shot NDJSON round-trip (the harness's own client, separate
/// from the proxy's, so readiness polling doesn't disturb it).
fn ndjson(addr: &str, line: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    if reply.is_empty() {
        return Err("closed".into());
    }
    Ok(reply.trim_end().to_string())
}

fn open_line(session: &str) -> String {
    format!(
        "{{\"cmd\":\"open\",\"session\":\"{session}\",\"description\":{},\"shards\":2,\"window\":{TICK_EVERY}}}",
        serde_json::to_string(&Value::from(DESC)).unwrap()
    )
}

/// The fault-free oracle: the identical feed and tick schedule through
/// one in-process registry.
fn oracle_rows() -> Vec<(String, String)> {
    let registry = rtec_service::Registry::new();
    let ok = |line: &str| {
        let v: Value = serde_json::from_str(&registry.dispatch(line)).unwrap();
        assert_eq!(v["ok"], true, "oracle dispatch failed: {line}");
        v
    };
    ok(&open_line("o"));
    for k in 0..TICKS {
        for (t, ev) in events_for_tick(k) {
            ok(&format!(
                "{{\"cmd\":\"event\",\"session\":\"o\",\"t\":{t},\"event\":\"{ev}\"}}"
            ));
        }
        ok(&format!(
            "{{\"cmd\":\"tick\",\"session\":\"o\",\"to\":{}}}",
            (k + 1) * TICK_EVERY
        ));
    }
    rows_of(&ok("{\"cmd\":\"query\",\"session\":\"o\"}"))
}

fn rows_of(v: &Value) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = v["rows"]
        .as_array()
        .expect("rows")
        .iter()
        .map(|r| {
            (
                r["fvp"].as_str().unwrap_or_default().to_string(),
                r["intervals"].as_str().unwrap_or_default().to_string(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Drives one chaos case: `n_backends` real processes, one SIGKILL at
/// a seeded point mid-feed, then asserts byte-identical convergence.
fn run_case(seed: u64, n_backends: usize) {
    let base = std::env::temp_dir().join(format!(
        "rtec-cluster-chaos-{}-{seed}-{n_backends}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let cp = base.join("checkpoints");
    let jnl = base.join("journal");

    // The 2-backend topology exercises /readyz health probing; the
    // 1-backend topology skips metrics ports so the respawned process
    // can rebind cleanly.
    let mut backends: Vec<Backend> = (0..n_backends)
        .map(|_| {
            let metrics = (n_backends > 1).then(free_port);
            Backend::spawn(free_port(), metrics, &cp, &jnl)
        })
        .collect();
    let specs: Vec<String> = backends.iter().map(|b| b.spec.clone()).collect();
    let cluster = Cluster::new(&specs, 32).unwrap();
    assert_eq!(cluster.probe(), n_backends, "all backends start healthy");

    // Seeded kill point: somewhere in the middle three ticks, so the
    // kill lands after some durable state exists in most schedules.
    let kill_tick = 1 + (splitmix(seed) % (TICKS as u64 - 2)) as i64;
    let kill_offset = (splitmix(seed ^ 0xdead) % TICK_EVERY as u64) as i64;
    let mut killed = false;

    // The client model: dispatch through the proxy; on failure run
    // recovery (respawn the sole backend; multi-backend failover is the
    // proxy's job) and retry the same frame. Acked frames are final.
    let send = |cluster: &Cluster, backends: &mut Vec<Backend>, line: &str| -> Value {
        for attempt in 0..50 {
            let reply = cluster.dispatch(line);
            let v: Value = serde_json::from_str(&reply).expect("reply parses");
            if v["ok"] == true {
                return v;
            }
            assert_eq!(
                v["code"], "backend_unavailable",
                "unexpected error for {line}: {reply}"
            );
            // Recovery: make sure at least one backend lives, then let
            // the proxy's next attempt fail the session over.
            if cluster.probe() == 0 {
                let port = backends[0]
                    .addr
                    .rsplit(':')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                backends[0] = Backend::spawn(port, None, &cp, &jnl);
                cluster.probe();
            }
            std::thread::sleep(Duration::from_millis(10 * (attempt + 1)));
        }
        panic!("frame never succeeded: {line}");
    };

    send(&cluster, &mut backends, &open_line("s"));
    for k in 0..TICKS {
        for (t, ev) in events_for_tick(k) {
            if !killed && k == kill_tick && t % TICK_EVERY == kill_offset {
                // SIGKILL the backend that owns the session (with one
                // backend there is no choice; with two, ask the proxy).
                let owner = owner_index(&cluster, &backends);
                backends[owner].kill();
                killed = true;
            }
            send(
                &cluster,
                &mut backends,
                &format!("{{\"cmd\":\"event\",\"session\":\"s\",\"t\":{t},\"event\":\"{ev}\"}}"),
            );
        }
        send(
            &cluster,
            &mut backends,
            &format!(
                "{{\"cmd\":\"tick\",\"session\":\"s\",\"to\":{}}}",
                (k + 1) * TICK_EVERY
            ),
        );
    }
    assert!(killed, "the kill schedule must fire (seed {seed})");

    let rows = rows_of(&send(
        &cluster,
        &mut backends,
        "{\"cmd\":\"query\",\"session\":\"s\"}",
    ));
    assert_eq!(
        rows,
        oracle_rows(),
        "seed {seed} x {n_backends} backends: output diverged from the fault-free run"
    );

    // Shutdown through the proxy reaches every surviving backend.
    let v: Value = serde_json::from_str(&cluster.dispatch("{\"cmd\":\"shutdown\"}")).unwrap();
    assert_eq!(v["ok"], true, "{v:?}");
    let _ = std::fs::remove_dir_all(&base);
}

/// The backend currently holding session "s", per cluster stats.
fn owner_index(cluster: &Cluster, backends: &[Backend]) -> usize {
    let v: Value =
        serde_json::from_str(&cluster.dispatch("{\"cmd\":\"cluster\",\"op\":\"stats\"}"))
            .expect("stats parse");
    let rows = v["backends"].as_array().expect("backends");
    for (i, row) in rows.iter().enumerate() {
        if row["sessions"].as_i64().unwrap_or(0) > 0 {
            assert_eq!(row["addr"].as_str().unwrap(), backends[i].addr);
            return i;
        }
    }
    0
}

#[test]
fn killed_backends_converge_byte_identically() {
    let seeds: Vec<u64> = match std::env::var("RTEC_CLUSTER_SEED") {
        Ok(v) => vec![v.parse().expect("RTEC_CLUSTER_SEED must be a u64")],
        Err(_) => vec![1, 2],
    };
    for seed in seeds {
        for n_backends in [1usize, 2] {
            eprintln!("cluster chaos: seed={seed} backends={n_backends}");
            run_case(seed, n_backends);
        }
    }
}

/// Drain + rebalance use the same checkpoint/journal migration path as
/// failover — a planned migration must also be output-invariant.
#[test]
fn drain_and_rebalance_migrate_without_output_change() {
    let base = std::env::temp_dir().join(format!("rtec-cluster-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cp = base.join("checkpoints");
    let jnl = base.join("journal");
    let backends: Vec<Backend> = (0..2)
        .map(|_| Backend::spawn(free_port(), None, &cp, &jnl))
        .collect();
    let specs: Vec<String> = backends.iter().map(|b| b.spec.clone()).collect();
    let cluster = Cluster::new(&specs, 32).unwrap();
    assert_eq!(cluster.probe(), 2);

    let ok = |line: &str| -> Value {
        let v: Value = serde_json::from_str(&cluster.dispatch(line)).unwrap();
        assert_eq!(v["ok"], true, "dispatch failed: {line} -> {v:?}");
        v
    };
    ok(&open_line("s"));
    for (t, ev) in events_for_tick(0) {
        ok(&format!(
            "{{\"cmd\":\"event\",\"session\":\"s\",\"t\":{t},\"event\":\"{ev}\"}}"
        ));
    }
    ok(&format!(
        "{{\"cmd\":\"tick\",\"session\":\"s\",\"to\":{TICK_EVERY}}}"
    ));
    // Events past the checkpoint: the migration must carry them in the
    // journal, not lose them with the drained process.
    for (t, ev) in events_for_tick(1) {
        ok(&format!(
            "{{\"cmd\":\"event\",\"session\":\"s\",\"t\":{t},\"event\":\"{ev}\"}}"
        ));
    }

    let owner = owner_index(&cluster, &backends);
    let v = ok(&format!(
        "{{\"cmd\":\"cluster\",\"op\":\"drain\",\"backend\":\"{}\"}}",
        backends[owner].addr
    ));
    assert_eq!(v["moved"], 1i64, "{v:?}");
    let v = ok("{\"cmd\":\"cluster\",\"op\":\"stats\"}");
    assert_eq!(
        v["backends"][owner]["sessions"], 0i64,
        "drained backend must hold nothing: {v:?}"
    );

    // Rebalance sends the session back to its ring home; either way the
    // recognised output must match the fault-free run.
    let v = ok("{\"cmd\":\"cluster\",\"op\":\"rebalance\"}");
    assert!(v["moved"].as_i64().unwrap() <= 1, "{v:?}");
    ok(&format!(
        "{{\"cmd\":\"tick\",\"session\":\"s\",\"to\":{}}}",
        2 * TICK_EVERY
    ));
    for k in 2..TICKS {
        for (t, ev) in events_for_tick(k) {
            ok(&format!(
                "{{\"cmd\":\"event\",\"session\":\"s\",\"t\":{t},\"event\":\"{ev}\"}}"
            ));
        }
        ok(&format!(
            "{{\"cmd\":\"tick\",\"session\":\"s\",\"to\":{}}}",
            (k + 1) * TICK_EVERY
        ));
    }
    let rows = rows_of(&ok("{\"cmd\":\"query\",\"session\":\"s\"}"));
    assert_eq!(rows, oracle_rows(), "migration changed the output");
    let v: Value = serde_json::from_str(&cluster.dispatch("{\"cmd\":\"shutdown\"}")).unwrap();
    assert_eq!(v["ok"], true);
    let _ = std::fs::remove_dir_all(&base);
}
