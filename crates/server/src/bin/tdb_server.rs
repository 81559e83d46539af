//! The tdb-server daemon.
//!
//! ```text
//! tdb-server [--addr HOST:PORT] [--workers N] [--data-dir DIR]
//!            [--lint allow|warn|deny] [--no-sync] [--coalesce-window USEC]
//!            [--max-delay TICKS] [--no-adaptive] [--no-rebalance] [--quiet]
//! ```
//!
//! Prints `listening on <addr>` (the resolved address — port 0 works) once
//! the listener is up and every durable tenant under `--data-dir` has been
//! recovered, then serves until a client sends `Shutdown` (durable tenants
//! are checkpointed on the way out).

use std::process::ExitCode;

use tdb_analysis::LintLevel;
use tdb_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: tdb-server [--addr HOST:PORT] [--workers N] [--data-dir DIR] \
         [--lint allow|warn|deny] [--no-sync] [--coalesce-window USEC] \
         [--max-delay TICKS] [--no-adaptive] [--no-rebalance] [--quiet]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} needs a {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("host:port"),
            "--workers" => match value("count").parse() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => usage(),
            },
            "--data-dir" => cfg.data_dir = Some(value("directory").into()),
            "--lint" => {
                cfg.lint = match value("level").as_str() {
                    "allow" => LintLevel::Allow,
                    "warn" => LintLevel::Warn,
                    "deny" => LintLevel::Deny,
                    _ => usage(),
                }
            }
            "--no-sync" => cfg.checkpoint.sync = tdb_core::SyncPolicy::Never,
            // A fixed window disables the adaptive coalescer (manual
            // override); 0 restores the adaptive default.
            "--coalesce-window" => match value("microseconds").parse() {
                Ok(us) => cfg.coalesce_window_us = us,
                Err(_) => usage(),
            },
            // Default disorder bound Δ for valid-time tenants created
            // without an explicit one (watermark W = now − Δ).
            "--max-delay" => match value("ticks").parse() {
                Ok(d) if d >= 0 => cfg.max_delay = d,
                _ => usage(),
            },
            "--no-adaptive" => cfg.adaptive_coalesce = false,
            "--no-rebalance" => cfg.rebalance = false,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    tdb_obs::set_enabled(true);
    let handle = match Server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tdb-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke script and the crash-recovery test parse this line.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if !quiet {
        eprintln!("tdb-server: ready (send Shutdown to stop)");
    }
    handle.wait();
    handle.stop();
    ExitCode::SUCCESS
}
