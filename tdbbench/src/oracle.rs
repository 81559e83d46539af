//! The library oracle: the same seeded inputs replayed in-process through
//! `Shard::volatile` (transaction-time tenants) or
//! `VtActiveDatabase::new_streaming` (valid-time tenants). Every answer the
//! server sends, every pushed firing, and the state a restart recovers are
//! checked against it; a mismatch fails the run.

use tdb_core::rules::FiringRecord;
use tdb_core::{
    CascadeMode, LintLevel, ManagerConfig, RuleKind, Shard, VtActiveDatabase, VtFiringEvent, VtMode,
};
use tdb_relation::{parse_query, Database, QueryDef, Relation, Timestamp, Value};
use tdb_server::tenant::rules_from_source;
use tdb_server::wire::Response;

use crate::workload::{catalog, seed_ops, Kind, Req, Spec, VT_MAX_DELAY};

/// What the oracle says the server must answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Committed {
        outcomes: Vec<Result<(), String>>,
        firings: Vec<FiringRecord>,
    },
    Rows(Relation),
    VtCommitted {
        watermark: Timestamp,
        events: Vec<VtFiringEvent>,
    },
    FiringsList {
        from: u64,
        records: Vec<FiringRecord>,
    },
}

impl Expect {
    pub fn matches(&self, resp: &Response) -> bool {
        match (self, resp) {
            (
                Expect::Committed { outcomes, firings },
                Response::Committed {
                    outcomes: o,
                    firings: f,
                },
            ) => outcomes == o && firings == f,
            (Expect::Rows(r), Response::Rows { relation }) => r == relation,
            (
                Expect::VtCommitted { watermark, events },
                Response::VtCommitted {
                    watermark: w,
                    events: e,
                },
            ) => watermark == w && events == e,
            (
                Expect::FiringsList { from, records },
                Response::FiringsList {
                    from: f,
                    records: r,
                },
            ) => from == f && records == r,
            _ => false,
        }
    }
}

/// One item a subscriber should receive.
#[derive(Debug, Clone, PartialEq)]
pub enum Pushed {
    Firing(FiringRecord),
    Vt(VtFiringEvent),
}

/// `vt_stream` answers, computed while the stream is generated.
#[derive(Debug, Default)]
pub struct VtExpect {
    /// Per request index.
    pub answers: Vec<Option<Expect>>,
    /// Per tenant, after each of its commits: (clock, confirmed count).
    pub after_commit: Vec<Vec<(Timestamp, usize)>>,
    /// Per tenant, its disorder events in arrival (= commit) order.
    pub events: Vec<Vec<crate::workload::DisorderEvent>>,
}

/// Per tenant, the observable state after each logical op: what a restart
/// may legitimately recover (an op-granular prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct OpPoint {
    pub now: Timestamp,
    pub n: Option<Value>,
    pub firings: usize,
}

/// The oracle's verdict on a whole sent prefix of a transaction-time
/// stream.
#[derive(Debug, Default)]
pub struct PlainExpect {
    pub answers: Vec<Expect>,
    /// Per tenant: `points[k]` is the state after the tenant's first `k`
    /// logical ops (index 0 = after seeding and registration).
    pub points: Vec<Vec<OpPoint>>,
    /// Per tenant, the whole firing log.
    pub log: Vec<Vec<FiringRecord>>,
}

/// The manager configuration the server gives every tenant.
pub fn server_manager_config() -> ManagerConfig {
    ManagerConfig {
        lint: LintLevel::Warn,
        cascade: CascadeMode::Eager,
        ..ManagerConfig::default()
    }
}

/// A seeded, rule-loaded library shard for tenant `t`.
pub fn plain_shard(spec: &Spec, seed: u64, t: usize) -> Shard {
    let mut shard = Shard::volatile(Database::new(), server_manager_config());
    for op in seed_ops(spec) {
        assert!(shard.apply(&op).expect("seed op").ok(), "seed op rejected");
    }
    for rule in rules_from_source(&catalog(spec, seed, t)).expect("catalog parses") {
        shard.add_rule(rule).expect("rule registers");
    }
    shard
}

/// A seeded, rule-loaded streaming valid-time database, built exactly as
/// the server builds a valid-time tenant.
pub fn vt_oracle_db() -> VtActiveDatabase {
    let mut vt = VtActiveDatabase::new_streaming(Database::new(), VT_MAX_DELAY);
    vt.set_item("n", Value::Int(0)).expect("seed item");
    vt.define_query(
        "n",
        QueryDef::new(0, parse_query("item n").expect("static")),
    )
    .expect("seed query");
    let spec = crate::workload::spec("vt_stream").expect("vt_stream exists");
    for rule in rules_from_source(&catalog(&spec, 0, 0)).expect("catalog parses") {
        match rule.kind {
            RuleKind::Trigger => vt.add_trigger(rule.name, rule.condition, VtMode::Tentative),
            RuleKind::Constraint => vt.add_constraint(rule.name, rule.condition),
        }
        .expect("rule registers");
    }
    vt
}

fn item_n(shard: &Shard) -> Option<Value> {
    shard.adb().db().item("n").ok()
}

fn point(shard: &Shard) -> OpPoint {
    OpPoint {
        now: shard.adb().now(),
        n: item_n(shard),
        firings: shard.adb().firings().len(),
    }
}

/// One oracle thread's share of a replay: answers by request index, and
/// per tenant its op-prefix points and firing log.
type Part = (
    Vec<(usize, Expect)>,
    Vec<(usize, Vec<OpPoint>, Vec<FiringRecord>)>,
);

/// Replays a transaction-time request stream. Tenants are independent, so
/// two threads split them.
pub fn replay_plain(spec: &Spec, seed: u64, reqs: &[Req]) -> PlainExpect {
    debug_assert!(spec.kind != Kind::VtStream);
    let groups = spec.tenants.min(2);
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..groups)
            .map(|g| s.spawn(move || replay_group(spec, seed, reqs, g, groups)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mut answers: Vec<Option<Expect>> = vec![None; reqs.len()];
    let mut points = vec![Vec::new(); spec.tenants];
    let mut log = vec![Vec::new(); spec.tenants];
    for (ans, tenants) in parts {
        for (i, a) in ans {
            answers[i] = Some(a);
        }
        for (t, p, l) in tenants {
            points[t] = p;
            log[t] = l;
        }
    }
    PlainExpect {
        answers: answers
            .into_iter()
            .map(|a| a.expect("every request replayed"))
            .collect(),
        points,
        log,
    }
}

fn replay_group(spec: &Spec, seed: u64, reqs: &[Req], g: usize, groups: usize) -> Part {
    let mine = |t: usize| t % groups == g;
    let mut shards: Vec<Option<Shard>> = (0..spec.tenants)
        .map(|t| mine(t).then(|| plain_shard(spec, seed, t)))
        .collect();
    let mut points: Vec<Vec<OpPoint>> = shards
        .iter()
        .map(|s| s.as_ref().map(|s| vec![point(s)]).unwrap_or_default())
        .collect();
    let mut answers = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let t = req.tenant();
        let Some(shard) = shards[t].as_mut() else {
            continue;
        };
        let answer = match req {
            Req::Commit { ops, .. } => {
                let mut outcomes = Vec::with_capacity(ops.len());
                let mut firings = Vec::new();
                for op in ops {
                    let o = shard.apply(op).expect("oracle apply");
                    outcomes.push(o.result);
                    firings.extend(o.firings);
                    points[t].push(point(shard));
                }
                Expect::Committed { outcomes, firings }
            }
            Req::Query { text, .. } => Expect::Rows(
                parse_query(text)
                    .expect("static query")
                    .eval(shard.adb().db(), &[])
                    .expect("oracle query"),
            ),
            Req::CommitAt { .. } | Req::Firings { .. } => {
                unreachable!("valid-time requests on a transaction-time workload")
            }
        };
        answers.push((i, answer));
    }
    let tenants = shards
        .into_iter()
        .zip(points)
        .enumerate()
        .filter_map(|(t, (s, p))| s.map(|s| (t, p, s.firings_from(0))))
        .collect();
    (answers, tenants)
}

/// Per tenant, what subscribers must receive for the given answers, each
/// item tagged with the index of the request that produced it.
pub fn pushes(
    tenants: usize,
    reqs: &[Req],
    answers: &[Option<&Expect>],
) -> Vec<Vec<(usize, Pushed)>> {
    let mut out = vec![Vec::new(); tenants];
    for (i, (req, answer)) in reqs.iter().zip(answers).enumerate() {
        match answer {
            Some(Expect::Committed { firings, .. }) => {
                out[req.tenant()].extend(firings.iter().map(|f| (i, Pushed::Firing(f.clone()))))
            }
            Some(Expect::VtCommitted { events, .. }) => {
                out[req.tenant()].extend(events.iter().map(|e| (i, Pushed::Vt(e.clone()))))
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, spec};

    /// A planted firing mismatch must fail the output check.
    #[test]
    fn planted_firing_mismatch_fails_the_check() {
        let s = spec("many_tenants").unwrap();
        let stream = generate(&s, 5, 400);
        let expect = replay_plain(&s, 5, &stream.reqs);
        let (idx, firings) = expect
            .answers
            .iter()
            .enumerate()
            .find_map(|(i, a)| match a {
                Expect::Committed { firings, .. } if !firings.is_empty() => Some((i, firings)),
                _ => None,
            })
            .expect("some commit fires");
        let honest = Response::Committed {
            outcomes: vec![Ok(()); stream.reqs[idx].op_count()],
            firings: firings.clone(),
        };
        assert!(expect.answers[idx].matches(&honest));
        let mut planted = firings.clone();
        planted[0].time = Timestamp(planted[0].time.0 + 1);
        let wrong = Response::Committed {
            outcomes: vec![Ok(()); stream.reqs[idx].op_count()],
            firings: planted,
        };
        assert!(!expect.answers[idx].matches(&wrong));
        let dropped = Response::Committed {
            outcomes: vec![Ok(()); stream.reqs[idx].op_count()],
            firings: Vec::new(),
        };
        assert!(!expect.answers[idx].matches(&dropped));
    }

    #[test]
    fn every_workload_fires() {
        for name in ["many_tenants", "rule_heavy", "durable_mixed"] {
            let s = spec(name).unwrap();
            let stream = generate(&s, 11, 300);
            let e = replay_plain(&s, 11, &stream.reqs);
            let fired: usize = e.log.iter().map(Vec::len).sum();
            assert!(fired > 10, "{name}: {fired} firings");
        }
        let s = spec("vt_stream").unwrap();
        let stream = generate(&s, 11, 300);
        let vt = stream.vt_expect.unwrap();
        assert!(vt
            .answers
            .iter()
            .flatten()
            .any(|a| matches!(a, Expect::VtCommitted { events, .. } if !events.is_empty())));
    }
}
