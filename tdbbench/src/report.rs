//! Printing a result: one `name value unit` line per metric, the context
//! every result carries, and the closing JSON line. The same record is
//! appended to `.tdbbench/results.jsonl` so runs on one host form a
//! trajectory.

use std::io::Write;

use crate::run::{nproc, Outcome};
use crate::Args;

/// The commit under test: `git rev-parse HEAD` when the checkout is a git
/// repository, else `TDBBENCH_COMMIT`, else "unknown".
fn commit_sha() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    match git {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => std::env::var("TDBBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn print(args: &Args, out: &Outcome) {
    let sha = commit_sha();
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "tdbbench workload={} seed={} seconds={} {mode} commit={sha} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        nproc()
    );
    for (k, v) in &out.info {
        println!("  {k}: {v}");
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
        eprintln!("tdbbench: check failed: {f}");
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    let info: Vec<String> = out
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {}, \"info\": {{{}}}, \"result\": {line}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&sha),
        nproc(),
        info.join(", ")
    );
    let _ = std::fs::create_dir_all(".tdbbench");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(".tdbbench/results.jsonl")
    {
        let _ = f.write_all(record.as_bytes());
    }
    println!("{line}");
}
