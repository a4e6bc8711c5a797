//! The system under test, started the way each workload runs it: a
//! `Server` on loopback with one handler thread and one client
//! connection, or an in-process `Registry` driven through `dispatch`.

use rtec_service::{FsyncPolicy, Registry, Server, ServerConfig};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// One request line in, one reply line out.
pub trait Link {
    fn roundtrip(&mut self, line: &str) -> String;
}

impl Link for Registry {
    fn roundtrip(&mut self, line: &str) -> String {
        self.dispatch(line)
    }
}

/// A running loopback server plus the benchmark's one connection to it.
/// The connection hands back raw reply lines, unparsed, because the
/// traced run compares them byte for byte (`client::Client` parses them).
pub struct TcpSystem {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    server: Option<JoinHandle<Result<(), String>>>,
}

/// Durable-state directories of a `serve --checkpoint-dir ...
/// --journal-dir ... --journal-fsync never` configuration.
pub struct Durability {
    pub checkpoint_dir: PathBuf,
    pub journal_dir: PathBuf,
}

impl Durability {
    /// Fresh directories under `root`.
    pub fn under(root: &Path) -> Durability {
        let _ = std::fs::remove_dir_all(root);
        Durability {
            checkpoint_dir: root.join("checkpoints"),
            journal_dir: root.join("journal"),
        }
    }
}

impl TcpSystem {
    /// Binds a server on an ephemeral loopback port, starts it on its own
    /// thread and connects.
    pub fn start(durability: &Durability) -> TcpSystem {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            metrics_addr: None,
            checkpoint_dir: Some(durability.checkpoint_dir.display().to_string()),
            max_worker_restarts: None,
            journal_dir: Some(durability.journal_dir.display().to_string()),
            journal_fsync: FsyncPolicy::Never,
        })
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.serve());
        let stream = TcpStream::connect(addr).expect("connect to the server");
        TcpSystem {
            reader: BufReader::new(stream.try_clone().expect("clone the socket")),
            writer: BufWriter::new(stream),
            server: Some(handle),
        }
    }

    /// Sends `shutdown` and waits for the server thread to finish.
    pub fn stop(mut self) {
        let reply = self.roundtrip(r#"{"cmd":"shutdown"}"#);
        assert!(reply.contains("\"ok\":true"), "shutdown refused: {reply}");
        if let Some(handle) = self.server.take() {
            handle
                .join()
                .expect("server thread panicked")
                .expect("server stopped cleanly");
        }
    }
}

impl Link for TcpSystem {
    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send a frame");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("read a reply");
        assert!(n > 0, "server closed the connection");
        reply.truncate(reply.trim_end().len());
        reply
    }
}

/// Whether a reply is an error frame.
pub fn is_error(reply: &str) -> bool {
    reply.contains("\"ok\":false")
}

/// An integer field of a flat reply frame (`"events":64`).
pub fn int_field(reply: &str, name: &str) -> Option<i64> {
    let key = format!("\"{name}\":");
    let rest = &reply[reply.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
