//! One benchmark run: set-up, load, SIGKILL, restart, output checks, and
//! the end-to-end metrics (or, traced, the per-layer ones).

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb_server::wire::{decode_response, read_frame, Request, Response};
use tdb_server::Client;

use crate::load::{self, Plan, RecvLog, SendLog};
use crate::oracle::{self, Expect, Pushed};
use crate::proc::{self, ServerProc};
use crate::stats::{self, summarize, Summary};
use crate::workload::{self, catalog, seed_ops, tenant_name, Kind, Spec, Stream, VT_MAX_DELAY};
use crate::Args;

/// Open-loop warm-up before measuring.
const WARM: Duration = Duration::from_millis(1000);
/// Share of `--seconds` spent in the open loop (the rest is closed loop).
const OPEN_SHARE: f64 = 0.75;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context recorded with every result (host, lateness, sample sizes).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
        if !ok {
            self.correct = false;
        }
    }
}

/// Starts a server on a fresh data directory and creates, seeds and
/// registers every tenant. Returns the server and the elapsed time.
fn setup(spec: &Spec, seed: u64, bin: &Path, dir: &Path) -> Result<(ServerProc, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let srv = proc::start(bin, dir)?;
    create_tenants(spec, seed, &srv.addr)?;
    Ok((srv, t0.elapsed().as_secs_f64()))
}

/// Creates, seeds and registers every tenant, every request pipelined on
/// one connection: tenants pinned to different workers set up in
/// parallel, and set-up time is the server's work rather than round trips.
fn create_tenants(spec: &Spec, seed: u64, addr: &str) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("setup connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reqs = Vec::with_capacity(3 * spec.tenants);
    for t in 0..spec.tenants {
        let name = tenant_name(t);
        reqs.push(if spec.kind == Kind::VtStream {
            Request::CreateVtTenant {
                name: name.clone(),
                durable: spec.durable,
                max_delay: VT_MAX_DELAY,
            }
        } else {
            Request::CreateTenant {
                name: name.clone(),
                durable: spec.durable,
            }
        });
        reqs.push(Request::Commit {
            tenant: name.clone(),
            ops: seed_ops(spec),
        });
        reqs.push(Request::RegisterRule {
            tenant: name,
            source: catalog(spec, seed, t),
        });
    }
    let bytes: Vec<u8> = reqs
        .iter()
        .enumerate()
        .flat_map(|(i, r)| workload::frame(i as u64 + 1, r))
        .collect();
    s.write_all(&bytes)
        .map_err(|e| format!("setup write: {e}"))?;
    for _ in 0..reqs.len() {
        let payload = read_frame(&mut s).map_err(|e| format!("setup read: {e}"))?;
        let (id, resp) = decode_response(&payload).map_err(|e| format!("setup decode: {e}"))?;
        let req = usize::try_from(id)
            .ok()
            .and_then(|i| reqs.get(i.checked_sub(1)?));
        let ok = match (req, &resp) {
            (
                Some(Request::CreateTenant { .. } | Request::CreateVtTenant { .. }),
                Response::TenantCreated,
            ) => true,
            (Some(Request::Commit { .. }), Response::Committed { outcomes, .. }) => {
                outcomes.iter().all(Result::is_ok)
            }
            (Some(Request::RegisterRule { .. }), Response::RulesRegistered { .. }) => true,
            _ => false,
        };
        if !ok {
            return Err(format!("set-up request {id} ({req:?}) answered {resp:?}"));
        }
    }
    Ok(())
}

/// Starts a server on `dir` and waits until every tenant answers
/// `TenantStats`. Returns the server, a client, the seconds since `t0`
/// and the server's on-CPU ms.
fn restart(
    spec: &Spec,
    seed: u64,
    bin: &Path,
    dir: &Path,
    t0: Instant,
    out: &mut Outcome,
) -> Result<(ServerProc, Client, f64, f64), String> {
    let srv = proc::start(bin, dir)?;
    let mut c = Client::connect(&srv.addr).map_err(|e| format!("reconnect: {e}"))?;
    if !spec.durable {
        let names = c.list_tenants().map_err(|e| e.to_string())?;
        out.check(names.is_empty(), || {
            format!("volatile tenants survived a restart: {names:?}")
        });
        create_tenants(spec, seed, &srv.addr)?;
    }
    for t in 0..spec.tenants {
        c.tenant_stats(&tenant_name(t))
            .map_err(|e| format!("stats after restart: {e}"))?;
    }
    let secs = t0.elapsed().as_secs_f64();
    let cpu_ms = proc::task_cpu_ns(srv.pid()) as f64 / 1e6;
    Ok((srv, c, secs, cpu_ms))
}

/// Bytes under every tenant directory of a data dir.
fn dir_bytes(dir: &Path) -> u64 {
    fn walk(p: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(p) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir)
}

/// What a restarted server gave back for one tenant.
#[derive(Debug)]
struct Recovered {
    now: tdb_relation::Timestamp,
    n: Option<tdb_relation::Value>,
    log: Vec<tdb_core::rules::FiringRecord>,
}

/// Everything the run observed, handed to the metric code.
pub struct Observed<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub plan: Plan,
    pub stream: &'a Stream,
    pub sent: SendLog,
    pub recv: RecvLog,
    /// Per tenant: the oracle's pushes, tagged with request index.
    pub pushes: Vec<Vec<(usize, Pushed)>>,
    pub data_dir: std::path::PathBuf,
}

pub fn run(args: &Args, bin: &Path, work_dir: &Path) -> Result<Outcome, String> {
    let spec = workload::spec(&args.workload).expect("validated workload");
    let seconds = args.seconds as f64;
    let open_secs = seconds * OPEN_SHARE;
    let plan = Plan {
        warm: (spec.open_rate * WARM.as_secs_f64()) as usize,
        open: (spec.open_rate * open_secs) as usize,
        rate: spec.open_rate,
        closed: spec.closed_requests,
        closed_limit: Duration::from_secs_f64(4.0 * (seconds - open_secs)),
        window: spec.window,
        server_pid: 0,
        traced: args.trace,
    };
    let count = plan.warm + plan.open + plan.closed;
    let mut stream = workload::generate(&spec, args.seed, count);
    let frames = Arc::new(std::mem::take(&mut stream.frames));

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Set-up, several times; the last server carries the load.
    let setups = if args.trace { 1 } else { spec.setups };
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..setups {
        let dir = work_dir.join(format!("data-{k}"));
        let (srv, dt) = setup(&spec, args.seed, bin, &dir)?;
        setup_s.push(dt);
        if k + 1 < setups {
            drop(srv);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some(srv);
        }
    }
    let srv = server.expect("at least one set-up");
    let data_dir = srv.data_dir.clone();

    // Load, then SIGKILL at the end of the closed loop.
    let conns = load::connect(&srv.addr, spec.tenants)?;
    let plan = Plan {
        server_pid: srv.pid(),
        ..plan
    };
    let cpu0 = proc::cpu_times();
    let mut killed: Option<(Instant, f64)> = None;
    let (sent, recv) = load::run(conns, frames, &plan, spec.tenants, || {
        let rss = srv.peak_rss_mb();
        killed = Some((srv.kill(), rss));
    })?;
    let cpu1 = proc::cpu_times();
    let (t_kill, rss_mb) = killed.expect("kill ran");
    let wal_bytes = dir_bytes(&data_dir);

    // Restart on the same data directory; recovery ends when every
    // tenant answers TenantStats (volatile tenants are re-created first:
    // coming back empty is their contract).
    let (srv2, mut c, recovery_s, recovery_cpu_ms) =
        restart(&spec, args.seed, bin, &data_dir, t_kill, &mut out)?;
    let mut recovered = Vec::new();
    if spec.durable {
        for t in 0..spec.tenants {
            let name = tenant_name(t);
            let stats = c.tenant_stats(&name).map_err(|e| e.to_string())?;
            let log = c.firings(&name, 0).map_err(|e| e.to_string())?;
            let n = if spec.kind == Kind::VtStream {
                None
            } else {
                c.query(&name, "item n", Vec::new())
                    .map_err(|e| e.to_string())?
                    .scalar_value()
                    .ok()
            };
            recovered.push(Recovered {
                now: stats.now,
                n,
                log,
            });
        }
    }
    drop(c);
    drop(srv2);

    // The oracle, over exactly what was sent.
    let n_sent = sent.sent.len();
    let reqs = &stream.reqs[..n_sent];
    let (answers, plain) = match &stream.vt_expect {
        Some(vt) => (vt.answers[..n_sent].to_vec(), None),
        None => {
            let p = oracle::replay_plain(&spec, args.seed, reqs);
            (p.answers.iter().cloned().map(Some).collect(), Some(p))
        }
    };
    let pushes = {
        let refs: Vec<Option<&Expect>> = answers.iter().map(Option::as_ref).collect();
        oracle::pushes(spec.tenants, reqs, &refs)
    };

    // Replies.
    let open_total = plan.warm + plan.open;
    let mut unanswered_at_kill = 0u64;
    for (i, expect) in answers.iter().enumerate() {
        match &recv.replies[i] {
            Some((_, Response::Error { code, message })) => {
                out.failed += 1;
                out.check(false, || format!("request {i} failed: {code:?} {message}"));
            }
            Some((_, resp)) => {
                let ok = expect.as_ref().is_some_and(|e| e.matches(resp));
                out.check(ok, || {
                    format!(
                        "request {i} answer differs from the oracle: got {resp:?}, want {expect:?}"
                    )
                });
            }
            None if i >= open_total => unanswered_at_kill += 1,
            None => {
                out.failed += 1;
                out.check(false, || format!("open-loop request {i} never answered"));
            }
        }
    }
    // At most a window's worth of requests is in flight at the kill.
    let excess = unanswered_at_kill.saturating_sub(spec.window as u64);
    out.failed += excess;
    out.check(excess == 0, || {
        format!(
            "{unanswered_at_kill} closed-loop requests unanswered (window {})",
            spec.window
        )
    });
    out.attempted = n_sent as u64 - unanswered_at_kill.min(spec.window as u64);
    out.check(recv.stray.is_empty(), || {
        format!("stray frames: {:?}", recv.stray)
    });
    if sent.timed_out {
        out.info.push((
            "closed_loop".into(),
            "hit its time limit before the last request".into(),
        ));
    }

    // Pushes: each subscriber stream is an exact prefix of the oracle's,
    // and covers everything the open loop produced.
    for (t, (got, want)) in recv.pushes.iter().zip(&pushes).enumerate() {
        let prefix = got.len() <= want.len() && got.iter().zip(want).all(|((_, g), (_, w))| g == w);
        out.check(prefix, || {
            let k = got.iter().zip(want).position(|((_, g), (_, w))| g != w);
            format!(
                "tenant {t}: pushed stream differs from the oracle at item {k:?} (got {}, want {})",
                got.len(),
                want.len()
            )
        });
        let needed = want.iter().filter(|(r, _)| *r < open_total).count();
        out.check(got.len() >= needed, || {
            format!(
                "tenant {t}: {} pushes received, {needed} produced by the open loop",
                got.len()
            )
        });
    }

    // Recovery: every acked commit present, at an op-granular prefix.
    if spec.durable {
        check_recovery(
            &mut out,
            &spec,
            &stream,
            reqs,
            &recv,
            plain.as_ref(),
            &recovered,
        );
    }

    let obs = Observed {
        spec: &spec,
        seed: args.seed,
        plan: plan.clone(),
        stream: &stream,
        sent,
        recv,
        pushes,
        data_dir: data_dir.clone(),
    };

    // End-to-end figures (also recorded, as context, by traced runs).
    let lat = latencies(&obs);
    let closed_ops = closed_throughput(&obs);
    let committed_ops: usize = reqs
        .iter()
        .enumerate()
        .filter(|(i, r)| !r.is_read() && obs.recv.replies[*i].is_some())
        .map(|(_, r)| r.op_count())
        .sum();
    let steal = proc::steal_pct(cpu0, cpu1);
    let late = summarize(
        obs.plan
            .open_range()
            .map(|i| us(obs.sent.sent[i] - obs.sent.due[i]))
            .collect(),
    );
    for (name, s) in [
        ("commit", &lat.commit),
        ("query", &lat.query),
        ("push", &lat.push),
    ] {
        out.check(s.top.is_some_and(|(p, _)| p >= 99.0), || {
            format!("{name}: {} samples cannot support a p99", s.n)
        });
        out.info.push((
            format!("{name}_samples"),
            format!(
                "{} (highest supported percentile and value: {:?})",
                s.n, s.top
            ),
        ));
    }
    out.info.push(("nproc".into(), nproc().to_string()));
    out.info.push(("steal_pct".into(), format!("{steal:.2}")));
    out.info.push((
        "late_us".into(),
        format!(
            "p50 {:.1} p99 {:.1} max-supported {:?}",
            late.p50, late.p99, late.top
        ),
    ));
    out.info
        .push(("setup_runs_s".into(), format!("{setup_s:.4?}")));
    let wal_per_op = if committed_ops > 0 {
        wal_bytes as f64 / committed_ops as f64
    } else {
        0.0
    };
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;

    let e2e = E2e {
        setup_s: stats::median(&setup_s),
        server_rss_mb: rss_mb,
    };
    let unbounded = Unbounded {
        lat,
        peak_ops_per_s: closed_ops,
        server_cpu_us_per_req: cpu_per_request(&obs.sent.open_cpu),
        peak_cpu_us_per_req: cpu_per_request(&obs.sent.closed_cpu),
        recovery_s,
        recovery_cpu_ms,
    };
    out.info.push((
        "cpu_open_segments".into(),
        format!("{:.0?}", cpu_segments(&obs.sent.open_cpu)),
    ));
    out.info.push((
        "cpu_closed_segments".into(),
        format!("{:.0?}", cpu_segments(&obs.sent.closed_cpu)),
    ));
    if !args.trace {
        out.metrics = e2e.metrics();
        out.info
            .push(("wal_bytes_per_op".into(), format!("{wal_per_op:.2}")));
        out.info
            .push(("error_rate".into(), format!("{error_rate}")));
        out.info.extend(unbounded.info());
    } else {
        let ctx = crate::trace::Context {
            obs: &obs,
            work_dir,
            late,
            steal,
            wal_per_op,
            error_rate,
            unbounded: &unbounded,
        };
        let layer = crate::trace::run(&ctx)?;
        out.metrics = layer.metrics;
        out.info.extend(layer.info);
        out.info.extend(
            e2e.metrics()
                .into_iter()
                .map(|(n, v, u)| (n, format!("{v:.4} {u}"))),
        );
    }
    Ok(out)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The end-to-end metrics: what a noisy shared host moves least. The
/// other figures sit in [`Unbounded`] (see README: on a shared 2-vCPU VM
/// their run-to-run spread or their shift between batches of runs reaches
/// the largest bound the benchmark may set).
pub struct E2e {
    pub setup_s: f64,
    pub server_rss_mb: f64,
}

impl E2e {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("server_rss_mb".into(), self.server_rss_mb, "MiB"),
        ]
    }
}

/// Figures of the same run reported without a bound: wall-clock latency
/// and throughput, server CPU per request, and recovery (whose CPU cost
/// depends on where the kill lands relative to the last checkpoint).
pub struct Unbounded {
    pub lat: Latencies,
    pub peak_ops_per_s: f64,
    pub server_cpu_us_per_req: f64,
    pub peak_cpu_us_per_req: f64,
    pub recovery_s: f64,
    pub recovery_cpu_ms: f64,
}

impl Unbounded {
    pub fn metrics(&self) -> Vec<Metric> {
        let l = &self.lat;
        vec![
            ("commit_p50_us".into(), l.commit.p50, "us"),
            ("commit_p99_us".into(), l.commit.p99, "us"),
            ("query_p50_us".into(), l.query.p50, "us"),
            ("query_p99_us".into(), l.query.p99, "us"),
            ("push_p50_us".into(), l.push.p50, "us"),
            ("push_p99_us".into(), l.push.p99, "us"),
            ("peak_ops_per_s".into(), self.peak_ops_per_s, "1/s"),
            (
                "server_cpu_us_per_req".into(),
                self.server_cpu_us_per_req,
                "us",
            ),
            ("peak_cpu_us_per_req".into(), self.peak_cpu_us_per_req, "us"),
            ("recovery_s".into(), self.recovery_s, "s"),
            ("recovery_cpu_ms".into(), self.recovery_cpu_ms, "ms"),
        ]
    }

    fn info(&self) -> Vec<(String, String)> {
        self.metrics()
            .into_iter()
            .map(|(n, v, u)| (n, format!("{v:.2} {u}")))
            .collect()
    }
}

pub struct Latencies {
    pub commit: Summary,
    pub query: Summary,
    pub push: Summary,
}

/// Open-loop latencies, each timed from the request's intended send time.
pub fn latencies(obs: &Observed) -> Latencies {
    latencies_in(obs, obs.plan.open_range())
}

pub fn latencies_in(obs: &Observed, range: std::ops::Range<usize>) -> Latencies {
    let mut commit = Vec::new();
    let mut query = Vec::new();
    for i in range.clone() {
        if let Some((t, _)) = &obs.recv.replies[i] {
            let l = us(*t - obs.sent.due[i]);
            if obs.stream.reqs[i].is_read() {
                query.push(l);
            } else {
                commit.push(l);
            }
        }
    }
    // Pushes arrive per tenant; order them by the commit that fired them.
    let mut push = Vec::new();
    for (t, got) in obs.recv.pushes.iter().enumerate() {
        for ((at, item), (r, _)) in got.iter().zip(&obs.pushes[t]) {
            // On a valid-time stream a firing is final when Confirmed.
            let firing = match item {
                Pushed::Firing(_) => true,
                Pushed::Vt(e) => e.phase == tdb_core::VtPhase::Confirmed,
            };
            if firing && range.contains(r) {
                push.push((*r, us(*at - obs.sent.due[*r])));
            }
        }
    }
    push.sort_by_key(|p| p.0);
    let push = push.into_iter().map(|p| p.1).collect();
    Latencies {
        commit: summarize(commit),
        query: summarize(query),
        push: summarize(push),
    }
}

/// Server on-CPU µs per request: the median over segments between
/// consecutive `(requests, cpu ns)` marks.
fn cpu_per_request(marks: &[(usize, u64)]) -> f64 {
    stats::median(&cpu_segments(marks))
}

fn cpu_segments(marks: &[(usize, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| w[1].1.saturating_sub(w[0].1) as f64 / 1000.0 / (w[1].0 - w[0].0) as f64)
        .collect()
}

/// Requests answered per second inside the closed-loop window.
fn closed_throughput(obs: &Observed) -> f64 {
    let (Some(start), Some(end)) = (obs.sent.closed_start, obs.sent.closed_end) else {
        return 0.0;
    };
    let first = obs.plan.warm + obs.plan.open;
    let done = obs.recv.replies[first..obs.sent.sent.len()]
        .iter()
        .filter(|r| r.as_ref().is_some_and(|(t, _)| *t <= end))
        .count();
    done as f64 / (end - start).as_secs_f64()
}

fn check_recovery(
    out: &mut Outcome,
    spec: &Spec,
    stream: &Stream,
    reqs: &[workload::Req],
    recv: &RecvLog,
    plain: Option<&oracle::PlainExpect>,
    recovered: &[Recovered],
) {
    for (t, rec) in recovered.iter().enumerate() {
        // The tenant's commits, in order, and whether each was acked.
        let commits: Vec<(usize, bool)> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.tenant() == t && !r.is_read())
            .map(|(i, r)| (r.op_count(), recv.replies[i].is_some()))
            .collect();
        match (spec.kind, plain) {
            (Kind::VtStream, _) => {
                let vt = stream.vt_expect.as_ref().expect("vt oracle");
                let acked = commits.iter().rposition(|c| c.1).map_or(0, |k| k + 1);
                let points = &vt.after_commit[t];
                let hit = (acked..=commits.len()).find(|&c| {
                    let (now, confirmed) = if c == 0 {
                        (tdb_relation::Timestamp(0), 0)
                    } else {
                        points[c - 1]
                    };
                    now == rec.now && confirmed == rec.log.len()
                });
                out.check(hit.is_some(), || {
                    format!(
                        "tenant {t}: recovered clock {:?} with {} confirmed matches no prefix at or after the {acked} acked commits",
                        rec.now,
                        rec.log.len()
                    )
                });
                if let Some(c) = hit {
                    // The confirmed log equals the in-order oracle's.
                    let in_order = workload::in_order_confirmed(&vt.events[t][..c], rec.now);
                    out.check(in_order == rec.log, || {
                        format!(
                            "tenant {t}: recovered confirmed log differs from the in-order oracle"
                        )
                    });
                }
            }
            (_, Some(p)) => {
                let mut acked_ops = 0;
                let mut ops = 0;
                for (k, acked) in &commits {
                    ops += k;
                    if *acked {
                        acked_ops = ops;
                    }
                }
                let points = &p.points[t];
                let hit = (acked_ops..=ops.min(points.len() - 1)).find(|&k| {
                    points[k].now == rec.now
                        && points[k].n == rec.n
                        && points[k].firings == rec.log.len()
                });
                out.check(hit.is_some(), || {
                    format!(
                        "tenant {t}: recovered state (clock {:?}, n {:?}, {} firings) is no op prefix at or after the {acked_ops} acked ops",
                        rec.now,
                        rec.n,
                        rec.log.len()
                    )
                });
                let log_ok =
                    rec.log.len() <= p.log[t].len() && rec.log[..] == p.log[t][..rec.log.len()];
                out.check(log_ok, || {
                    format!("tenant {t}: recovered firing log is not an oracle prefix")
                });
            }
            _ => unreachable!("plain workloads carry a plain oracle"),
        }
    }
}
