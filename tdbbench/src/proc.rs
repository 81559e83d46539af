//! The real `tdb-server` as a child process, and what the host says about
//! it: peak RSS from `/proc/<pid>/status`, steal time from `/proc/stat`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A running server. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub data_dir: PathBuf,
}

/// Starts `bin` with the shipped defaults plus `--workers 2`, on a
/// loopback port the OS picks, and waits for its `listening on` line.
pub fn start(bin: &Path, data_dir: &Path) -> Result<ServerProc, String> {
    std::fs::create_dir_all(data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let mut child = Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--quiet",
            "--data-dir",
        ])
        .arg(data_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = match (read, line.trim().strip_prefix("listening on ")) {
        (Ok(n), Some(addr)) if n > 0 => addr.to_string(),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "server did not announce its address (got {line:?})"
            ));
        }
    };
    Ok(ServerProc {
        child,
        _stdout: stdout,
        addr,
        data_dir: data_dir.to_path_buf(),
    })
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// SIGKILL, then reap. Returns the instant the signal was sent.
    pub fn kill(mut self) -> Instant {
        let t = Instant::now();
        let _ = self.child.kill();
        let _ = self.child.wait();
        t
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

pub fn cpu_times() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // (guest time is already counted in user).
    CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// On-CPU nanoseconds of every thread of `pid` (from each task's
/// `schedstat`): time the process ran, not time it waited or was stolen.
pub fn task_cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Host steal share between two readings, in percent.
pub fn steal_pct(a: CpuTimes, b: CpuTimes) -> f64 {
    let total = b.total.saturating_sub(a.total);
    if total == 0 {
        0.0
    } else {
        100.0 * b.steal.saturating_sub(a.steal) as f64 / total as f64
    }
}
