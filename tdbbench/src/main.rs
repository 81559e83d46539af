//! tdbbench: one benchmark for the whole repository.
//!
//! ```text
//! tdbbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the real `tdb-server` binary (path in `TDBBENCH_SERVER_BIN`),
//! drives it over loopback with seeded open- and closed-loop load, kills
//! it with SIGKILL and restarts it on the same data directory, and checks
//! every answer, every pushed firing and the recovered state against the
//! library oracle. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! prints the per-layer metrics from client spans, server scrapes and
//! in-process replays of the same inputs. The last stdout line is one JSON
//! object; a failed check makes it `"correct": false` and the exit code 1.
//! See `README.md` next to this package.

mod load;
mod oracle;
mod proc;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::spec(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workload::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(2),
        trace: trace.unwrap_or(false),
    })
}

fn server_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("TDBBENCH_SERVER_BIN") {
        return PathBuf::from(p);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("release").join("tdb-server")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdbbench: {e}");
            eprintln!("usage: tdbbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let bin = server_bin();
    if !bin.is_file() {
        eprintln!("tdbbench: no server binary at {}", bin.display());
        return ExitCode::from(2);
    }
    let work_dir = PathBuf::from(".tdbbench").join(format!("run-{}", std::process::id()));
    let result = run::run(&args, &bin, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(out) => {
            let correct = out.correct;
            report::print(&args, &out);
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tdbbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
