//! What a result was measured on: the tree (git commit and dirty flag
//! when the checkout is a git work tree, and always a content hash of
//! the measured sources), the machine's parallelism and peak memory —
//! and the pinning of a run to one CPU.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every file of the measured sources, in path order, so a
/// checkout without git history is still identified.
pub fn tree_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "shims",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0u8]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in &files {
        eat(file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn collect(path: &Path, files: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        files.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, files);
        }
    }
}

/// Commit, dirty flag, source hash and parallelism of this run.
pub fn stamp(root: &Path) -> BTreeMap<String, Value> {
    let mut m = BTreeMap::new();
    let in_git = root.join(".git").exists();
    let commit = in_git.then(|| git(&["rev-parse", "HEAD"])).flatten();
    let dirty = in_git
        .then(|| git(&["status", "--porcelain", "--untracked-files=no"]))
        .flatten()
        .map(|s| !s.is_empty());
    m.insert(
        "commit".to_string(),
        commit.map_or(Value::Null, Value::from),
    );
    m.insert("dirty".to_string(), dirty.map_or(Value::Null, Value::Bool));
    m.insert("tree_fnv1a".to_string(), Value::from(tree_hash(root)));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.insert("nproc".to_string(), Value::from(nproc));
    m
}

/// Restricts this process, and every thread it starts afterwards, to the
/// first CPU it may run on (`taskset`, so no unsafe code here). Returns
/// that CPU, or `None` when the process could not be pinned.
///
/// The closed loop hands every frame from the client thread to the
/// server's handler thread and on to the shard workers. On a VM whose
/// few vCPUs share a host, each hand-off to another vCPU waits for the
/// host to run it, and that wait, not the program, set most of the
/// run-to-run spread; on one CPU the hand-offs are plain context switches.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let cpu: usize = allowed.split([',', '-']).next()?.parse().ok()?;
    let pinned = Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
