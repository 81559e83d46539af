//! The traced run's per-layer numbers.
//!
//! Three sources, all recorded from the benchmark's own code (the program
//! carries no tracing of its own for this):
//! - client spans from the traced half of the open loop
//!   (`loadgen.send` → `client.wait` → `client.decode`), and `Metrics`
//!   scrapes of the server taken before, through and after it;
//! - replays of the same seeded requests through each layer's public
//!   entry point, outside in: `Runtime` → `Tenant` → `Shard` (core),
//!   `WalWriter` (storage), `VtActiveDatabase` (vt), plus the wire codec,
//!   the rule-file analysis and `Tenant::query`;
//! - counters of the shared `tdb-obs` registry around the core replay.
//!
//! Spans stay in memory until the end, then go to
//! `.tdbbench/out/<workload>-s<seed>-spans.jsonl` with a per-layer
//! self-time table (`…-selftime.txt`, also printed). A layer's self time
//! is its replay minus the next layer down, per request.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use tdb_core::{LogicalOp, SyncPolicy, VtPhase};
use tdb_obs::histogram::bucket_bound;
use tdb_server::runtime::Runtime;
use tdb_server::tenant::{rules_from_source, Tenant};
use tdb_server::wire::{decode_request, decode_response, encode_request, encode_response};
use tdb_server::ServerConfig;
use tdb_storage::{CheckpointPolicy, WalWriter};

use crate::oracle::{self, server_manager_config};
use crate::run::{latencies_in, us, Metric, Observed};
use crate::stats::{bucket_median, mean, median, Summary};
use crate::workload::{catalog, seed_ops, tenant_name, Kind, Req, VT_MAX_DELAY};

pub struct Context<'a> {
    pub obs: &'a Observed<'a>,
    pub work_dir: &'a Path,
    pub late: Summary,
    pub steal: f64,
    pub wal_per_op: f64,
    pub error_rate: f64,
    pub unbounded: &'a crate::run::Unbounded,
}

pub struct LayerOut {
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, String)>,
}

/// One span: a layer boundary crossed by one request.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    req: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        req: usize,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Runs `f` inside a span.
    fn time<T>(
        &mut self,
        req: usize,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64, f64) {
        let t0 = Instant::now();
        let v = f();
        let t1 = Instant::now();
        let id = self.record(req, parent, name, t0, t1);
        (v, id, us(t1 - t0))
    }
}

/// Per-request durations of one layer's replay, in µs.
type Durations = HashMap<usize, f64>;

fn p50(d: &Durations) -> f64 {
    median(&d.values().copied().collect::<Vec<_>>())
}

/// Replay sizes: enough requests for stable medians, bounded so durable
/// replays (an fsync per op) stay within a few seconds.
fn replay_cap(kind: Kind) -> usize {
    match kind {
        Kind::ManyTenants => 4000,
        Kind::RuleHeavy => 1200,
        Kind::DurableMixed => 400,
        Kind::VtStream => 800,
    }
}

pub fn run(ctx: &Context) -> Result<LayerOut, String> {
    tdb_obs::set_enabled(true);
    let obs = ctx.obs;
    let spec = obs.spec;
    let mut tr = Tracer {
        epoch: obs.sent.due.first().copied().unwrap_or_else(Instant::now),
        spans: Vec::new(),
    };
    let mut m: Vec<Metric> = Vec::new();
    let mut na: Vec<&'static str> = Vec::new();
    let mut table: Vec<(String, f64, f64, usize)> = Vec::new();

    // ---- this run's unbounded end-to-end figures ----
    m.extend(ctx.unbounded.metrics());

    // ---- loadgen ----
    m.push(("loadgen.late_p50_us".into(), ctx.late.p50, "us"));
    m.push(("loadgen.late_p99_us".into(), ctx.late.p99, "us"));
    m.push(("loadgen.steal_pct".into(), ctx.steal, "%"));

    // ---- client spans over the traced half of the open loop ----
    let traced = obs.plan.traced_from()..obs.plan.open_range().end;
    let mut wait = Vec::new();
    for i in traced.clone() {
        let (Some(written), Some((recv, _))) = (obs.sent.written.get(&i), &obs.recv.replies[i])
        else {
            continue;
        };
        let root = tr.record(i, 0, "request", obs.sent.due[i], *recv);
        tr.record(i, root, "loadgen.send", obs.sent.sent[i], *written);
        tr.record(i, root, "client.wait", *written, *recv);
        let dec = Duration::from_nanos(obs.recv.decode_ns.get(&i).copied().unwrap_or(0));
        tr.record(i, root, "client.decode", *recv, *recv + dec);
        if !obs.stream.reqs[i].is_read() {
            wait.push(us(*recv - *written));
        }
    }
    let wait_p50 = median(&wait);
    let untraced = latencies_in(obs, obs.plan.warm..traced.start);
    let traced_lat = latencies_in(obs, traced.clone());
    let overhead = traced_lat.commit.p50 - untraced.commit.p50;

    // ---- wire codec ----
    let wire = wire_replay(obs);
    m.push(("wire.encode_req_ns".into(), wire.encode_req, "ns"));
    m.push(("wire.decode_req_ns".into(), wire.decode_req, "ns"));
    m.push(("wire.encode_resp_ns".into(), wire.encode_resp, "ns"));
    m.push(("wire.decode_resp_ns".into(), wire.decode_resp, "ns"));
    m.push(("wire.req_bytes".into(), wire.req_bytes, "B"));
    m.push(("wire.resp_bytes".into(), wire.resp_bytes, "B"));
    let wire_us =
        (wire.encode_req + wire.decode_req + wire.encode_resp + wire.decode_resp) / 1000.0;

    // ---- server scrapes ----
    let scr = scrapes(obs);
    let commit_kind = if spec.kind == Kind::VtStream {
        "commit_at"
    } else {
        "commit"
    };
    let read_kind = if spec.kind == Kind::VtStream {
        "firings"
    } else {
        "query"
    };
    let server_commit = scr.request_p50_us(commit_kind);
    m.push(("client.wait_p50_us".into(), wait_p50, "us"));
    m.push((
        "server.request_p50_us.commit".into(),
        scr.request_p50_us("commit"),
        "us",
    ));
    m.push((
        "server.request_p50_us.commit_at".into(),
        scr.request_p50_us("commit_at"),
        "us",
    ));
    m.push((
        "server.request_p50_us.query".into(),
        scr.request_p50_us(read_kind),
        "us",
    ));
    na.push(if spec.kind == Kind::VtStream {
        "server.request_p50_us.commit"
    } else {
        "server.request_p50_us.commit_at"
    });
    let residual = wait_p50 - server_commit - wire_us;
    m.push(("conn.residual_p50_us".into(), residual, "us"));
    m.push((
        "conn.backpressure_total".into(),
        scr.counter_delta("tdb_server_conn_backpressure_total"),
        "count",
    ));

    // ---- in-process replays, outside in ----
    let cap = replay_cap(spec.kind).min(obs.sent.sent.len());
    let reqs = &obs.stream.reqs[..cap];
    let dir = ctx.work_dir.join("replay");
    let _ = std::fs::remove_dir_all(&dir);

    let runtime = runtime_replay(&mut tr, obs, reqs, &dir.join("runtime"))?;
    let tenant = tenant_replay(&mut tr, obs, reqs, &dir.join("tenant"))?;
    let runtime_p50 = p50(&runtime);
    let tenant_p50 = p50(&tenant.apply);
    m.push(("runtime.commit_p50_us".into(), runtime_p50, "us"));
    m.push((
        "runtime.queue_p50_us".into(),
        runtime_p50 - tenant_p50,
        "us",
    ));
    m.push((
        "runtime.queue_depth_max".into(),
        scr.queue_depth_max,
        "count",
    ));
    m.push((
        "runtime.busy_permille".into(),
        scr.busy_permille,
        "permille",
    ));
    let groups = scr.counter_delta("tdb_wal_batch_appends_total");
    let grouped = scr.counter_delta("tdb_wal_batched_ops_total");
    m.push((
        "runtime.group_ops_mean".into(),
        if groups > 0.0 { grouped / groups } else { 0.0 },
        "ops",
    ));
    if groups == 0.0 {
        na.push("runtime.group_ops_mean");
    }
    m.push(("tenant.apply_p50_us".into(), tenant_p50, "us"));
    m.push(("tenant.register_ms".into(), tenant.register_ms, "ms"));

    // core (transaction-time tenants) or vt (valid-time tenants)
    let core = if spec.kind == Kind::VtStream {
        None
    } else {
        Some(core_replay(&mut tr, obs, reqs))
    };
    match &core {
        Some(c) => {
            m.push(("core.apply_p50_us".into(), p50(&c.apply), "us"));
            m.push(("core.full_evals_per_commit".into(), c.full_evals, "count"));
            m.push(("core.sparse_advances_per_commit".into(), c.sparse, "count"));
            m.push((
                "core.relevance_skipped_per_commit".into(),
                c.skipped,
                "count",
            ));
            m.push(("core.rule_eval_p50_ns".into(), c.rule_eval_ns, "ns"));
            m.push(("core.retained_residual_nodes".into(), c.retained, "count"));
            m.push(("core.atom_memo_hit_ratio".into(), c.memo_ratio, "ratio"));
        }
        None => {
            for name in [
                "core.apply_p50_us",
                "core.full_evals_per_commit",
                "core.sparse_advances_per_commit",
                "core.relevance_skipped_per_commit",
                "core.rule_eval_p50_ns",
                "core.retained_residual_nodes",
                "core.atom_memo_hit_ratio",
            ] {
                m.push((name.into(), 0.0, core_unit(name)));
                na.push(name);
            }
        }
    }
    if tenant.query.is_empty() || spec.kind == Kind::VtStream {
        m.push(("relation.query_p50_us".into(), 0.0, "us"));
        na.push("relation.query_p50_us");
    } else {
        m.push(("relation.query_p50_us".into(), p50(&tenant.query), "us"));
    }
    m.push(("analysis.lint_ms".into(), analysis_ms(obs), "ms"));

    let storage = storage_replay(&mut tr, reqs, &dir.join("wal"))?;
    m.push(("storage.append_p50_us".into(), p50(&storage.append), "us"));
    m.push(("storage.fsync_p50_us".into(), p50(&storage.fsync), "us"));
    m.push(("storage.bytes_per_op".into(), storage.bytes_per_op, "B"));
    let recover_s = if spec.kind == Kind::DurableMixed {
        storage_recover_s(obs)?
    } else {
        na.push("storage.recover_s");
        0.0
    };
    m.push(("storage.recover_s".into(), recover_s, "s"));

    let vt = if spec.kind == Kind::VtStream {
        Some(vt_replay(&mut tr, reqs, obs)?)
    } else {
        None
    };
    match &vt {
        Some(v) => {
            m.push(("vt.ingest_p50_us".into(), p50(&v.ingest), "us"));
            m.push(("vt.advance_p50_us".into(), p50(&v.advance), "us"));
            m.push(("vt.live_states_max".into(), v.live_max, "count"));
            m.push((
                "vt.retractions_per_event".into(),
                v.retractions_per_event,
                "ratio",
            ));
            m.push(("vt.recover_s".into(), v.recover_s, "s"));
        }
        None => {
            for (name, unit) in [
                ("vt.ingest_p50_us", "us"),
                ("vt.advance_p50_us", "us"),
                ("vt.live_states_max", "count"),
                ("vt.retractions_per_event", "ratio"),
                ("vt.recover_s", "s"),
            ] {
                m.push((name.into(), 0.0, unit));
                na.push(name);
            }
        }
    }
    m.push(("wal_bytes_per_op".into(), ctx.wal_per_op, "B"));
    if !spec.durable {
        na.push("wal_bytes_per_op");
    }
    m.push(("error_rate".into(), ctx.error_rate, "ratio"));
    m.push(("trace.overhead_us".into(), overhead, "us"));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- self-time table ----
    table.push((
        "open-loop commit, traced half (from due time)".into(),
        traced_lat.commit.p50,
        traced_lat.commit.p50 - wait_p50,
        traced_lat.commit.n,
    ));
    table.push((
        "client.wait (written -> reply)".into(),
        wait_p50,
        residual,
        wait.len(),
    ));
    table.push((
        "wire codec (4 calls)".into(),
        wire_us,
        wire_us,
        wire.samples,
    ));
    table.push((
        format!("server.request ({commit_kind}, scraped)"),
        server_commit,
        server_commit - runtime_p50,
        0,
    ));
    let runtime_self = self_times(&runtime, &[&tenant.apply]);
    table.push((
        "runtime.commit (replay)".into(),
        runtime_p50,
        runtime_self,
        runtime.len(),
    ));
    let mut below: Vec<&Durations> = Vec::new();
    if let Some(c) = &core {
        below.push(&c.apply);
    }
    if let Some(v) = &vt {
        below.push(&v.ingest);
        below.push(&v.advance);
    }
    if spec.durable {
        below.push(&storage.append);
        below.push(&storage.fsync);
    }
    let tenant_self = self_times(&tenant.apply, &below);
    table.push((
        "tenant.apply (replay)".into(),
        tenant_p50,
        tenant_self,
        tenant.apply.len(),
    ));
    if let Some(c) = &core {
        table.push((
            "core.apply (Shard replay)".into(),
            p50(&c.apply),
            p50(&c.apply),
            c.apply.len(),
        ));
    }
    if let Some(v) = &vt {
        table.push((
            "vt.advance_to (replay)".into(),
            p50(&v.advance),
            p50(&v.advance),
            v.advance.len(),
        ));
        table.push((
            "vt.ingest (replay)".into(),
            p50(&v.ingest),
            p50(&v.ingest),
            v.ingest.len(),
        ));
    }
    table.push((
        "storage.append (WalWriter replay)".into(),
        p50(&storage.append),
        p50(&storage.append),
        storage.append.len(),
    ));
    table.push((
        "storage.fsync (WalWriter replay)".into(),
        p50(&storage.fsync),
        p50(&storage.fsync),
        storage.fsync.len(),
    ));

    let mut text = String::new();
    let _ = writeln!(
        text,
        "self time per layer, {} seed {} (p50 µs; self = span minus the layer below, per request)",
        spec.name, obs.seed
    );
    let _ = writeln!(
        text,
        "{:<46} {:>12} {:>12} {:>8}",
        "layer", "span_p50", "self_p50", "n"
    );
    for (name, span, own, n) in &table {
        let _ = writeln!(text, "{name:<46} {span:>12.2} {own:>12.2} {n:>8}");
    }
    let _ = writeln!(text, "tracing overhead: commit p50 traced half {:.2} µs - untraced half {:.2} µs = {overhead:.2} µs", traced_lat.commit.p50, untraced.commit.p50);
    let _ = writeln!(text, "not applicable on {}: {}", spec.name, na.join(", "));
    print!("{text}");

    let out_dir = Path::new(".tdbbench").join("out");
    let _ = std::fs::create_dir_all(&out_dir);
    let stem = format!("{}-s{}", spec.name, obs.seed);
    link_replay_parents(&mut tr.spans);
    let mut jsonl = String::with_capacity(tr.spans.len() * 96);
    for s in &tr.spans {
        let _ = writeln!(
            jsonl,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    let _ = std::fs::write(out_dir.join(format!("{stem}-spans.jsonl")), jsonl);
    let _ = std::fs::write(out_dir.join(format!("{stem}-selftime.txt")), &text);

    let info = vec![
        ("spans".into(), tr.spans.len().to_string()),
        ("replayed_requests".into(), cap.to_string()),
        ("not_applicable".into(), na.join(",")),
        ("tracing_overhead_us".into(), format!("{overhead:.2}")),
    ];
    Ok(LayerOut { metrics: m, info })
}

/// Each layer was replayed on its own, so replay spans are recorded
/// without a parent; link each to the span of the layer above for the
/// same request.
fn link_replay_parents(spans: &mut [Span]) {
    let above = |name: &str| match name {
        "tenant.apply" => Some("runtime.commit"),
        "core.apply" | "vt.advance" | "vt.ingest" | "storage.append" | "storage.fsync" => {
            Some("tenant.apply")
        }
        _ => None,
    };
    let ids: HashMap<(&'static str, usize), u64> =
        spans.iter().map(|s| ((s.name, s.req), s.id)).collect();
    for s in spans.iter_mut() {
        if let Some(parent) = above(s.name).and_then(|a| ids.get(&(a, s.req))) {
            s.parent = *parent;
        }
    }
}

fn core_unit(name: &str) -> &'static str {
    match name {
        "core.apply_p50_us" => "us",
        "core.rule_eval_p50_ns" => "ns",
        "core.atom_memo_hit_ratio" => "ratio",
        _ => "count",
    }
}

/// Median over requests of `top − Σ below` (requests present in all).
fn self_times(top: &Durations, below: &[&Durations]) -> f64 {
    let v: Vec<f64> = top
        .iter()
        .filter_map(|(i, d)| {
            let mut rest = 0.0;
            for b in below {
                rest += b.get(i)?;
            }
            Some(d - rest)
        })
        .collect();
    median(&v)
}

struct Wire {
    encode_req: f64,
    decode_req: f64,
    encode_resp: f64,
    decode_resp: f64,
    req_bytes: f64,
    resp_bytes: f64,
    samples: usize,
}

/// Times the wire codec on the run's own requests and replies.
fn wire_replay(obs: &Observed) -> Wire {
    let n = obs.sent.sent.len().min(4000);
    let (mut er, mut dr, mut es, mut ds, mut rb, mut sb) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for i in 0..n {
        let id = i as u64 + 1;
        let req = obs.stream.reqs[i].to_wire();
        let t0 = Instant::now();
        let bytes = std::hint::black_box(encode_request(id, &req));
        let t1 = Instant::now();
        let back = std::hint::black_box(decode_request(&bytes));
        let t2 = Instant::now();
        debug_assert!(back.is_ok());
        er.push((t1 - t0).as_nanos() as f64);
        dr.push((t2 - t1).as_nanos() as f64);
        rb.push(bytes.len() as f64 + 8.0);
        if let Some((_, resp)) = &obs.recv.replies[i] {
            let t0 = Instant::now();
            let bytes = std::hint::black_box(encode_response(id, resp));
            let t1 = Instant::now();
            let back = std::hint::black_box(decode_response(&bytes));
            let t2 = Instant::now();
            debug_assert!(back.is_ok());
            es.push((t1 - t0).as_nanos() as f64);
            ds.push((t2 - t1).as_nanos() as f64);
            sb.push(bytes.len() as f64 + 8.0);
        }
    }
    Wire {
        encode_req: median(&er),
        decode_req: median(&dr),
        encode_resp: median(&es),
        decode_resp: median(&ds),
        req_bytes: mean(&rb),
        resp_bytes: mean(&sb),
        samples: n,
    }
}

/// Rule-file parse + lint + batch-safety certification of one tenant's
/// catalog (`analyze_rule_set` certifies as part of linting); median of
/// three.
fn analysis_ms(obs: &Observed) -> f64 {
    let src = catalog(obs.spec, obs.seed, 0);
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let file = tdb_analysis::parse_rule_file(&src).expect("catalog parses");
            let report = tdb_analysis::analyze_rule_set(&file.rules);
            std::hint::black_box(report);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// In-process `Runtime` (the server's shard pool without sockets), one
/// blocking request at a time.
fn runtime_replay(
    tr: &mut Tracer,
    obs: &Observed,
    reqs: &[Req],
    dir: &Path,
) -> Result<Durations, String> {
    let spec = obs.spec;
    let rt = Runtime::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("runtime start: {e}"))?;
    for t in 0..spec.tenants {
        let name = tenant_name(t);
        if spec.kind == Kind::VtStream {
            rt.create_vt_tenant(&name, spec.durable, VT_MAX_DELAY)
        } else {
            rt.create_tenant(&name, spec.durable)
        }
        .map_err(|e| format!("runtime create: {e}"))?;
        rt.commit(&name, seed_ops(spec))
            .map_err(|e| e.to_string())?;
        rt.register_rules(&name, &catalog(spec, obs.seed, t))
            .map_err(|e| e.to_string())?;
    }
    let mut d = Durations::new();
    for (i, req) in reqs.iter().enumerate() {
        let name = tenant_name(req.tenant());
        let res: Result<(), String> = match req {
            Req::Commit { ops, .. } => {
                let ops = ops.clone();
                let (r, _, dt) = tr.time(i, 0, "runtime.commit", || rt.commit(&name, ops));
                d.insert(i, dt);
                r.map(drop).map_err(|e| e.to_string())
            }
            Req::CommitAt {
                arrival,
                valid,
                ops,
                ..
            } => {
                let ops = ops.clone();
                let (r, _, dt) = tr.time(i, 0, "runtime.commit", || {
                    rt.commit_at(&name, *arrival, *valid, ops)
                });
                d.insert(i, dt);
                r.map(drop).map_err(|e| e.to_string())
            }
            _ => Ok(()),
        };
        res.map_err(|e| format!("runtime replay of request {i}: {e}"))?;
    }
    rt.shutdown();
    Ok(d)
}

struct TenantReplay {
    apply: Durations,
    query: Durations,
    register_ms: f64,
}

/// One `Tenant` per workload tenant, built as the server builds them.
fn tenant_replay(
    tr: &mut Tracer,
    obs: &Observed,
    reqs: &[Req],
    dir: &Path,
) -> Result<TenantReplay, String> {
    let spec = obs.spec;
    let policy = CheckpointPolicy {
        sync: SyncPolicy::Always,
        ..CheckpointPolicy::default()
    };
    let mut tenants = Vec::new();
    let mut register = Vec::new();
    for t in 0..spec.tenants {
        let name = tenant_name(t);
        let tdir = dir.join(&name);
        let mut tenant = match (spec.kind, spec.durable) {
            (Kind::VtStream, true) => {
                Tenant::durable_vt(&name, &tdir, VT_MAX_DELAY, SyncPolicy::Always)
            }
            (Kind::VtStream, false) => Ok(Tenant::volatile_vt(&name, VT_MAX_DELAY)),
            (_, true) => Tenant::durable(&name, &tdir, server_manager_config(), policy),
            (_, false) => Ok(Tenant::volatile(&name, server_manager_config())),
        }
        .map_err(|e| format!("tenant create: {e}"))?;
        for op in seed_ops(spec) {
            tenant.apply(&op).map_err(|e| e.to_string())?;
        }
        let src = catalog(spec, obs.seed, t);
        let t0 = Instant::now();
        tenant.register_rules(&src).map_err(|e| e.to_string())?;
        register.push(t0.elapsed().as_secs_f64() * 1e3);
        tenants.push(tenant);
    }
    let mut apply = Durations::new();
    let mut query = Durations::new();
    for (i, req) in reqs.iter().enumerate() {
        let tenant = &mut tenants[req.tenant()];
        match req {
            Req::Commit { ops, .. } => {
                let (r, _, dt) = tr.time(i, 0, "tenant.apply", || {
                    ops.iter().try_for_each(|op| tenant.apply(op).map(drop))
                });
                r.map_err(|e| e.to_string())?;
                apply.insert(i, dt);
            }
            Req::CommitAt {
                arrival,
                valid,
                ops,
                ..
            } => {
                let ops = ops.clone();
                let (r, _, dt) = tr.time(i, 0, "tenant.apply", || {
                    tenant.commit_at(*arrival, *valid, ops)
                });
                r.map_err(|e| e.to_string())?;
                tenant.drain_vt_events();
                apply.insert(i, dt);
            }
            Req::Query { text, .. } => {
                let (r, _, dt) = tr.time(i, 0, "relation.query", || tenant.query(text, &[]));
                r.map_err(|e| e.to_string())?;
                query.insert(i, dt);
            }
            Req::Firings { from, .. } => {
                std::hint::black_box(tenant.firings_from(*from as usize));
            }
        }
    }
    Ok(TenantReplay {
        apply,
        query,
        register_ms: median(&register),
    })
}

struct CoreReplay {
    apply: Durations,
    full_evals: f64,
    sparse: f64,
    skipped: f64,
    rule_eval_ns: f64,
    retained: f64,
    memo_ratio: f64,
}

/// `Shard::volatile` + `apply`: the core dispatch without a tenant or
/// a log around it, with the registry's dispatch counters around it.
fn core_replay(tr: &mut Tracer, obs: &Observed, reqs: &[Req]) -> CoreReplay {
    let spec = obs.spec;
    let mut shards: Vec<_> = (0..spec.tenants)
        .map(|t| oracle::plain_shard(spec, obs.seed, t))
        .collect();
    let before = tdb_obs::global().snapshot();
    let mut apply = Durations::new();
    for (i, req) in reqs.iter().enumerate() {
        if let Req::Commit { tenant, ops } = req {
            let shard = &mut shards[*tenant];
            let (r, _, dt) = tr.time(i, 0, "core.apply", || {
                ops.iter().try_for_each(|op| shard.apply(op).map(drop))
            });
            r.expect("core replay applies what the oracle applied");
            apply.insert(i, dt);
        }
    }
    let after = tdb_obs::global().snapshot();
    let commits = apply.len().max(1) as f64;
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    let eval_hist =
        |s: &tdb_obs::RegistrySnapshot| s.histogram("tdb_rule_eval_ns").map(|h| h.buckets);
    let rule_eval_ns = match (eval_hist(&before), eval_hist(&after)) {
        (b, Some(a)) => {
            let b = b.unwrap_or([0; tdb_obs::histogram::BUCKETS]);
            let diff: Vec<(u64, u64)> = (0..a.len())
                .map(|i| (bucket_bound(i), a[i].saturating_sub(b[i])))
                .collect();
            bucket_median(&diff)
        }
        _ => 0.0,
    };
    let lookups = delta("tdb_atom_memo_lookups_total");
    let retained: usize = shards.iter().map(|s| s.stats().retained).sum();
    CoreReplay {
        apply,
        full_evals: delta("tdb_dispatch_full_evaluations_total") / commits,
        sparse: delta("tdb_dispatch_sparse_advances_total") / commits,
        skipped: delta("tdb_dispatch_relevance_skipped_rules_total") / commits,
        rule_eval_ns,
        retained: retained as f64,
        memo_ratio: if lookups > 0.0 {
            delta("tdb_atom_memo_hits_total") / lookups
        } else {
            0.0
        },
    }
}

struct StorageReplay {
    append: Durations,
    fsync: Durations,
    bytes_per_op: f64,
}

/// `WalWriter` on the same logical ops: each commit's ops appended as the
/// server logs them, then one `sync`.
fn storage_replay(tr: &mut Tracer, reqs: &[Req], dir: &Path) -> Result<StorageReplay, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(tdb_storage::wal::segment_file_name(1));
    let mut w = WalWriter::create(&path, 1, SyncPolicy::Never).map_err(|e| e.to_string())?;
    let mut append = Durations::new();
    let mut fsync = Durations::new();
    let mut ops_total = 0usize;
    for (i, req) in reqs.iter().enumerate() {
        let (r, _, dt) = match req {
            Req::Commit { ops, .. } => {
                ops_total += ops.len();
                tr.time(i, 0, "storage.append", || {
                    ops.iter().try_for_each(|op| w.append(op).map(drop))
                })
            }
            Req::CommitAt {
                arrival,
                valid,
                ops,
                ..
            } => {
                ops_total += 1;
                let batch = [
                    LogicalOp::AdvanceClockTo { t: *arrival },
                    LogicalOp::CommitAt {
                        valid: *valid,
                        ops: ops.clone(),
                    },
                ];
                tr.time(i, 0, "storage.append", || w.append_batch(&batch).map(drop))
            }
            _ => continue,
        };
        r.map_err(|e| e.to_string())?;
        append.insert(i, dt);
        let (r, _, dt) = tr.time(i, 0, "storage.fsync", || w.sync());
        r.map_err(|e| e.to_string())?;
        fsync.insert(i, dt);
    }
    let bytes = w.len() as f64;
    Ok(StorageReplay {
        append,
        fsync,
        bytes_per_op: bytes / ops_total.max(1) as f64,
    })
}

/// `tdb_storage::recover` on the first tenant directory the run left.
fn storage_recover_s(obs: &Observed) -> Result<f64, String> {
    let name = tenant_name(0);
    let dir = obs.data_dir.join(&name);
    let catalog = rules_from_source(&catalog(obs.spec, obs.seed, 0)).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let r = tdb_storage::recover(&dir, &catalog, server_manager_config())
        .map_err(|e| format!("recover {}: {e}", dir.display()))?;
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(r);
    Ok(dt)
}

struct VtReplay {
    ingest: Durations,
    advance: Durations,
    live_max: f64,
    retractions_per_event: f64,
    recover_s: f64,
}

/// `VtActiveDatabase::new_streaming` + `advance_to`/`ingest`, and a
/// `Tenant::durable_vt` replay of the directory the run left.
fn vt_replay(tr: &mut Tracer, reqs: &[Req], obs: &Observed) -> Result<VtReplay, String> {
    let mut dbs: Vec<_> = (0..obs.spec.tenants)
        .map(|_| oracle::vt_oracle_db())
        .collect();
    let mut ingest = Durations::new();
    let mut advance = Durations::new();
    let mut live_max = 0usize;
    let mut retracted = 0usize;
    let mut events = 0usize;
    for (i, req) in reqs.iter().enumerate() {
        if let Req::CommitAt {
            tenant,
            arrival,
            valid,
            ops,
        } = req
        {
            let vt = &mut dbs[*tenant];
            let to = (*arrival).max(vt.now());
            let (a, _, dt) = tr.time(i, 0, "vt.advance", || vt.advance_to(to));
            advance.insert(i, dt);
            let ops = ops.clone();
            let (b, _, dt) = tr.time(i, 0, "vt.ingest", || vt.ingest(ops, *valid));
            ingest.insert(i, dt);
            for e in a
                .map_err(|e| e.to_string())?
                .iter()
                .chain(b.map_err(|e| e.to_string())?.iter())
            {
                if e.phase == VtPhase::Retracted {
                    retracted += 1;
                }
            }
            events += 1;
            live_max = live_max.max(vt.engine().state_count());
        }
    }
    let name = tenant_name(0);
    let t0 = Instant::now();
    let t = Tenant::durable_vt(
        &name,
        &obs.data_dir.join(&name),
        VT_MAX_DELAY,
        SyncPolicy::Always,
    )
    .map_err(|e| format!("vt replay: {e}"))?;
    let recover_s = t0.elapsed().as_secs_f64();
    drop(t);
    Ok(VtReplay {
        ingest,
        advance,
        live_max: live_max as f64,
        retractions_per_event: retracted as f64 / events.max(1) as f64,
        recover_s,
    })
}

/// Parsed `Metrics` scrapes: the one before the measured open loop, the
/// one after it, and the periodic ones between.
struct Scrapes {
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
    queue_depth_max: f64,
    busy_permille: f64,
}

impl Scrapes {
    fn counter_delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    /// Median of `tdb_server_request_ns{kind}` over the open loop, in µs.
    fn request_p50_us(&self, kind: &str) -> f64 {
        let prefix = format!("tdb_server_request_ns_bucket{{kind=\"{kind}\",le=\"");
        let mut cum: Vec<(u64, f64)> = self
            .after
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le: u64 = le.parse().ok()?;
                Some((le, v - self.before.get(k).copied().unwrap_or(0.0)))
            })
            .collect();
        cum.sort_by_key(|c| c.0);
        let mut prev = 0.0;
        let buckets: Vec<(u64, u64)> = cum
            .into_iter()
            .map(|(le, c)| {
                let n = (c - prev).max(0.0);
                prev = c;
                (le, n as u64)
            })
            .collect();
        bucket_median(&buckets) / 1000.0
    }
}

fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn scrapes(obs: &Observed) -> Scrapes {
    let parsed: Vec<HashMap<String, f64>> = obs
        .sent
        .scrapes
        .iter()
        .filter_map(|(id, _)| obs.recv.scrapes.get(id).map(|t| parse_prometheus(t)))
        .collect();
    let family = |m: &HashMap<String, f64>, name: &str| -> Vec<f64> {
        m.iter()
            .filter(|(k, _)| k.starts_with(name) && k[name.len()..].starts_with('{'))
            .map(|(_, v)| *v)
            .collect()
    };
    let mut depth_max: f64 = 0.0;
    let mut busy = Vec::new();
    for m in &parsed {
        for v in family(m, "tdb_server_worker_queue_depth") {
            depth_max = depth_max.max(v);
        }
        let b = family(m, "tdb_server_worker_busy_permille");
        if !b.is_empty() {
            busy.push(mean(&b));
        }
    }
    Scrapes {
        before: parsed.first().cloned().unwrap_or_default(),
        after: parsed.last().cloned().unwrap_or_default(),
        queue_depth_max: depth_max,
        busy_permille: mean(&busy),
    }
}
