//! The four workloads: their tenants, rule catalogs, seed schemas and the
//! seeded request streams the load generator sends. Everything here is a
//! pure function of the workload and `--seed`.

use tdb_core::{LogicalOp, VtActiveDatabase, VtFiringEvent};
use tdb_engine::WriteOp;
use tdb_relation::{parse_query, tuple, QueryDef, Relation, Schema, Timestamp, Value};
use tdb_server::wire::{encode_request, write_frame, Request};

use crate::oracle::{vt_oracle_db, Expect};
use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ManyTenants,
    RuleHeavy,
    DurableMixed,
    VtStream,
}

/// One workload's shape. Rates are whole requests (commits and reads).
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub tenants: usize,
    pub durable: bool,
    /// Open-loop offered rate, requests per second.
    pub open_rate: f64,
    /// Share of requests that are reads, per mille.
    pub read_permille: u32,
    /// Closed-loop requests in flight.
    pub window: usize,
    /// Consecutive requests sent to one tenant before moving on.
    pub burst: usize,
    /// Requests the closed loop sends (a fixed count, so the history and
    /// log a run leaves behind do not depend on how fast it went).
    pub closed_requests: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

pub const NAMES: [&str; 4] = ["many_tenants", "rule_heavy", "durable_mixed", "vt_stream"];

/// `rule_heavy`: relations per tenant, rules per relation, value domain.
pub const RH_RELATIONS: usize = 3;
pub const RH_RULES_PER_RELATION: usize = 128;
pub const RH_VALUES: u64 = 2 * RH_RULES_PER_RELATION as u64;
/// `vt_stream`: disorder bound Δ and the share of late events.
pub const VT_MAX_DELAY: i64 = 50;
pub const VT_LATE_PERMILLE: u32 = 200;

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        "many_tenants" => Spec {
            kind: Kind::ManyTenants,
            name: "many_tenants",
            tenants: 32,
            durable: false,
            open_rate: 2000.0,
            read_permille: 100,
            window: 16,
            burst: 1,
            closed_requests: 20_000,
            setups: 7,
        },
        "rule_heavy" => Spec {
            kind: Kind::RuleHeavy,
            name: "rule_heavy",
            tenants: 2,
            durable: false,
            open_rate: 750.0,
            read_permille: 200,
            window: 8,
            burst: 1,
            closed_requests: 4_000,
            setups: 3,
        },
        "durable_mixed" => Spec {
            kind: Kind::DurableMixed,
            name: "durable_mixed",
            tenants: 4,
            durable: true,
            open_rate: 800.0,
            read_permille: 250,
            window: 16,
            burst: 4,
            closed_requests: 6_000,
            setups: 7,
        },
        "vt_stream" => Spec {
            kind: Kind::VtStream,
            name: "vt_stream",
            tenants: 2,
            durable: true,
            open_rate: 500.0,
            read_permille: 400,
            window: 8,
            burst: 1,
            closed_requests: 4_000,
            setups: 7,
        },
        _ => return None,
    };
    Some(s)
}

pub fn tenant_name(i: usize) -> String {
    format!("t{i:02}")
}

/// The E17/E20 two-rule catalog: a threshold trigger and a cap constraint.
const WATCH_CAP: &str = "rule watch { when n() >= 100; then notify; }\n\
                         rule cap { when n() <= 1000000; then abort; }\n";
/// The E21 valid-time catalog: a threshold trigger and a rising edge.
const HIGH_RISE: &str = "rule high { when n() >= 60; then notify; }\n\
                         rule rise { when n() >= 60 and lasttime(n() < 60); then notify; }\n";

/// Rule-file text registered on tenant `t`.
pub fn catalog(spec: &Spec, seed: u64, t: usize) -> String {
    match spec.kind {
        Kind::ManyTenants | Kind::DurableMixed => WATCH_CAP.to_string(),
        Kind::VtStream => HIGH_RISE.to_string(),
        Kind::RuleHeavy => {
            // E15 shape: edge-style temporal conditions over single-row
            // relations. Each relation carries RH_RULES_PER_RELATION rules
            // keyed on distinct values, so a commit evaluates that many
            // rules in full and advances the rest sparsely.
            let mut rng = Rng::new(seed ^ ((t as u64 + 1) * 0xA24B_AED4_963E_E407));
            let mut src = String::new();
            for j in 0..RH_RELATIONS {
                for i in 0..RH_RULES_PER_RELATION {
                    let k = 2 * i as u64 + rng.below(2);
                    src.push_str(&format!(
                        "rule e{j}_{i} {{ when r{j}_q() = {k} and previously(r{j}_q() != {k}); \
                         then notify; }}\n"
                    ));
                }
            }
            src
        }
    }
}

/// Schema ops committed on every tenant before its rules register.
pub fn seed_ops(spec: &Spec) -> Vec<LogicalOp> {
    match spec.kind {
        Kind::RuleHeavy => {
            let mut ops = Vec::new();
            for j in 0..RH_RELATIONS {
                ops.push(LogicalOp::CreateRelation {
                    name: format!("W{j}"),
                    relation: Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]])
                        .expect("single seed row"),
                });
                ops.push(LogicalOp::DefineQuery {
                    name: format!("r{j}_q"),
                    def: QueryDef::new(
                        0,
                        parse_query(&format!("select v from W{j}")).expect("static query"),
                    ),
                });
            }
            ops
        }
        _ => vec![
            LogicalOp::SetItem {
                name: "n".into(),
                value: Value::Int(0),
            },
            LogicalOp::DefineQuery {
                name: "n".into(),
                def: QueryDef::new(0, parse_query("item n").expect("static query")),
            },
        ],
    }
}

/// One request of the stream. Reads carry the answer the library oracle
/// expects only for `vt_stream` (computed while generating, since the
/// read's `from` index depends on it); the other workloads get theirs
/// from a replay after the run.
#[derive(Debug, Clone)]
pub enum Req {
    Commit {
        tenant: usize,
        ops: Vec<LogicalOp>,
    },
    CommitAt {
        tenant: usize,
        arrival: Timestamp,
        valid: Timestamp,
        ops: Vec<WriteOp>,
    },
    Query {
        tenant: usize,
        text: String,
    },
    Firings {
        tenant: usize,
        from: u64,
    },
}

impl Req {
    pub fn tenant(&self) -> usize {
        match self {
            Req::Commit { tenant, .. }
            | Req::CommitAt { tenant, .. }
            | Req::Query { tenant, .. }
            | Req::Firings { tenant, .. } => *tenant,
        }
    }

    pub fn is_read(&self) -> bool {
        matches!(self, Req::Query { .. } | Req::Firings { .. })
    }

    /// Logical ops the request commits (a `CommitAt` is one ingest).
    pub fn op_count(&self) -> usize {
        match self {
            Req::Commit { ops, .. } => ops.len(),
            Req::CommitAt { .. } => 1,
            _ => 0,
        }
    }

    pub fn to_wire(&self) -> Request {
        match self {
            Req::Commit { tenant, ops } => Request::Commit {
                tenant: tenant_name(*tenant),
                ops: ops.clone(),
            },
            Req::CommitAt {
                tenant,
                arrival,
                valid,
                ops,
            } => Request::CommitAt {
                tenant: tenant_name(*tenant),
                arrival: *arrival,
                valid: *valid,
                ops: ops.clone(),
            },
            Req::Query { tenant, text } => Request::Query {
                tenant: tenant_name(*tenant),
                text: text.clone(),
                params: Vec::new(),
            },
            Req::Firings { tenant, from } => Request::Firings {
                tenant: tenant_name(*tenant),
                from: *from,
            },
        }
    }
}

/// A whole pre-generated stream: requests, their encoded frames (request
/// id = index + 1) and, for `vt_stream`, the oracle's answers.
#[derive(Debug)]
pub struct Stream {
    pub reqs: Vec<Req>,
    pub frames: Vec<Vec<u8>>,
    pub vt_expect: Option<crate::oracle::VtExpect>,
}

/// One framed request as it goes on the wire.
pub fn frame(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &encode_request(id, req)).expect("writing to a Vec cannot fail");
    out
}

/// Generates `count` requests for `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64, count: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let mut reqs = Vec::with_capacity(count);
    let mut vt = (spec.kind == Kind::VtStream).then(|| VtGen::new(spec, seed, count));
    // rule_heavy: each tenant's current row value per relation.
    let mut rows = vec![vec![0i64; RH_RELATIONS]; spec.tenants];
    for idx in 0..count {
        let tenant = (idx / spec.burst) % spec.tenants;
        let read = rng.chance(spec.read_permille);
        let req = match spec.kind {
            Kind::ManyTenants | Kind::DurableMixed if read => Req::Query {
                tenant,
                text: "item n".into(),
            },
            Kind::ManyTenants => Req::Commit {
                tenant,
                ops: vec![
                    LogicalOp::AdvanceClock { delta: 1 },
                    set_n(rng.below(200) as i64),
                ],
            },
            // Dips below the watch threshold and crosses back: exactly
            // one firing per commit however commits coalesce.
            Kind::DurableMixed => Req::Commit {
                tenant,
                ops: vec![
                    LogicalOp::AdvanceClock { delta: 1 },
                    set_n(-1),
                    set_n(100 + rng.below(1000) as i64),
                ],
            },
            Kind::RuleHeavy if read => Req::Query {
                tenant,
                text: format!("select v from W{}", rng.below(RH_RELATIONS as u64)),
            },
            Kind::RuleHeavy => {
                let j = rng.below(RH_RELATIONS as u64) as usize;
                let value = rng.below(RH_VALUES) as i64;
                let rel = format!("W{j}");
                let old = std::mem::replace(&mut rows[tenant][j], value);
                Req::Commit {
                    tenant,
                    ops: vec![LogicalOp::Update {
                        ops: vec![
                            WriteOp::Delete {
                                relation: rel.clone(),
                                tuple: tuple![old],
                            },
                            WriteOp::Insert {
                                relation: rel,
                                tuple: tuple![value],
                            },
                        ],
                    }],
                }
            }
            Kind::VtStream => vt
                .as_mut()
                .expect("vt generator exists for vt_stream")
                .next(tenant, read),
        };
        reqs.push(req);
    }
    let frames = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| frame(i as u64 + 1, &r.to_wire()))
        .collect();
    Stream {
        reqs,
        frames,
        vt_expect: vt.map(VtGen::finish),
    }
}

fn set_n(v: i64) -> LogicalOp {
    LogicalOp::Update {
        ops: vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }],
    }
}

/// One event of a Δ-bounded out-of-order stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisorderEvent {
    pub seq: usize,
    pub valid: i64,
    pub arrival: i64,
    pub value: i64,
}

/// `n` events with valid times `1..=n`; each is late with probability
/// `late_permille / 1000` by `1..=max_delay` ticks. Returned in arrival
/// order (ties by `seq`), the order an ingest loop feeds them.
pub fn disorder_events(
    n: usize,
    max_delay: i64,
    late_permille: u32,
    seed: u64,
) -> Vec<DisorderEvent> {
    let mut values = Rng::new(seed);
    let mut lateness = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut events: Vec<DisorderEvent> = (0..n)
        .map(|i| {
            let valid = i as i64 + 1;
            let value = values.below(100) as i64;
            let delay = if lateness.chance(late_permille) && max_delay > 0 {
                1 + lateness.below(max_delay as u64) as i64
            } else {
                0
            };
            DisorderEvent {
                seq: i,
                valid,
                arrival: valid + delay,
                value,
            }
        })
        .collect();
    events.sort_by_key(|e| (e.arrival, e.seq));
    events
}

/// Generates `vt_stream` requests and runs the library oracle alongside,
/// so each `Firings` read can ask for the last few confirmed records.
struct VtGen {
    events: Vec<Vec<DisorderEvent>>,
    next: Vec<usize>,
    oracles: Vec<VtActiveDatabase>,
    expect: crate::oracle::VtExpect,
}

impl VtGen {
    fn new(spec: &Spec, seed: u64, count: usize) -> VtGen {
        let per_tenant = count / spec.tenants + 1;
        VtGen {
            events: (0..spec.tenants)
                .map(|t| {
                    disorder_events(
                        per_tenant,
                        VT_MAX_DELAY,
                        VT_LATE_PERMILLE,
                        seed.wrapping_add(t as u64 * 7919),
                    )
                })
                .collect(),
            next: vec![0; spec.tenants],
            oracles: (0..spec.tenants).map(|_| vt_oracle_db()).collect(),
            expect: crate::oracle::VtExpect {
                answers: Vec::new(),
                after_commit: vec![Vec::new(); spec.tenants],
                events: Vec::new(),
            },
        }
    }

    fn next(&mut self, tenant: usize, read: bool) -> Req {
        let vt = &mut self.oracles[tenant];
        if read {
            let confirmed = vt.confirmed_firings();
            let from = confirmed.len().saturating_sub(4);
            self.expect.answers.push(Some(Expect::FiringsList {
                from: from as u64,
                records: confirmed[from..].to_vec(),
            }));
            return Req::Firings {
                tenant,
                from: from as u64,
            };
        }
        let e = self.events[tenant][self.next[tenant]];
        self.next[tenant] += 1;
        let ops = vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(e.value),
        }];
        // Mirrors one wire CommitAt: clock to the arrival (monotone max),
        // then ingest at the valid time.
        let arrival = Timestamp(e.arrival);
        let mut events: Vec<VtFiringEvent> = vt
            .advance_to(arrival.max(vt.now()))
            .expect("oracle advance");
        events.extend(
            vt.ingest(ops.clone(), Timestamp(e.valid))
                .expect("oracle ingest"),
        );
        let watermark = vt.watermark();
        let confirmed_len = vt.confirmed_firings().len();
        self.expect
            .answers
            .push(Some(Expect::VtCommitted { watermark, events }));
        self.expect.after_commit[tenant].push((vt.now(), confirmed_len));
        Req::CommitAt {
            tenant,
            arrival,
            valid: Timestamp(e.valid),
            ops,
        }
    }

    fn finish(mut self) -> crate::oracle::VtExpect {
        self.expect.events = self.events;
        self.expect
    }
}

/// The in-order oracle for one tenant's first `commits` events: the same
/// history ingested with arrival = valid, advanced to `now`.
pub fn in_order_confirmed(
    events: &[DisorderEvent],
    now: Timestamp,
) -> Vec<tdb_core::rules::FiringRecord> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| e.valid);
    let mut vt = vt_oracle_db();
    for e in &sorted {
        vt.advance_to(Timestamp(e.valid).max(vt.now()))
            .expect("advance");
        vt.ingest(
            vec![WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(e.value),
            }],
            Timestamp(e.valid),
        )
        .expect("ingest");
    }
    vt.advance_to(now.max(vt.now())).expect("advance");
    vt.confirmed_firings()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_bytes() {
        for name in NAMES {
            let s = spec(name).unwrap();
            let a = generate(&s, 42, 600);
            let b = generate(&s, 42, 600);
            assert_eq!(a.frames, b.frames, "{name}");
            let c = generate(&s, 43, 600);
            assert_ne!(a.frames, c.frames, "{name}: another seed, other inputs");
            assert_eq!(catalog(&s, 42, 1), catalog(&s, 42, 1));
        }
    }

    #[test]
    fn disorder_is_delta_bounded_and_a_permutation() {
        let ev = disorder_events(2000, VT_MAX_DELAY, VT_LATE_PERMILLE, 9);
        assert!(ev
            .iter()
            .all(|e| (0..=VT_MAX_DELAY).contains(&(e.arrival - e.valid))));
        assert!(ev.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let mut valid: Vec<i64> = ev.iter().map(|e| e.valid).collect();
        valid.sort_unstable();
        assert_eq!(valid, (1..=2000).collect::<Vec<_>>());
        let late = ev.iter().filter(|e| e.arrival > e.valid).count();
        assert!((300..500).contains(&late), "about 20 % late, got {late}");
    }
}
