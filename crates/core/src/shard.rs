//! [`Shard`] — one tenant's active database as a self-contained unit of
//! ownership.
//!
//! The multi-tenant server hosts many independent active databases, each
//! pinned to a worker thread. What a worker needs per tenant is exactly the
//! trio the facade APIs otherwise leave to the caller: the
//! [`ActiveDatabase`] itself (config, storage sink and dispatch state
//! included), the rule *catalog* that recovery resolves `AddRule` records
//! against, and a cursor over the firing log so every new firing is
//! reported (streamed to subscribers) exactly once. [`Shard`] bundles the
//! three and exposes one uniform entry point, [`Shard::apply`], that maps a
//! [`LogicalOp`] onto the corresponding facade method — the same vocabulary
//! the WAL records, so a network `Commit` batch, a recovery replay, and a
//! library call all drive identical code paths.
//!
//! A shard keeps only the history suffix its dispatcher has not consumed
//! yet, plus the newest state ([`ActiveDatabase::forget_dispatched`] after
//! every op and batch). By Theorem 1 nothing a shard does reads an older
//! state, so a tenant's memory is O(live data + firing log), not one
//! database snapshot per state ever committed. The library
//! `ActiveDatabase` keeps its full history for callers (naive oracles,
//! offline checks) that read it. A shard whose rules put a temporal
//! aggregate in an action term keeps its history too: actions evaluate
//! such terms by their Section 6 definition, over past states.
//!
//! Shards share nothing mutable with each other: cross-shard state is
//! limited to the process-wide read-only caches (residual interning arena,
//! compiled-program cache — see `DESIGN.md` §12 for why that sharing is
//! sound and bounded) and the optional global metrics registry.

use tdb_relation::{Database, Timestamp};

use crate::error::{CoreError, Result};
use crate::facade::ActiveDatabase;
use crate::manager::ManagerConfig;
use crate::rules::{FiringRecord, Rule};
use crate::storage::{LogicalOp, WalSink};

/// What applying one logical op produced. Op-level failures (constraint
/// vetoes, cascade limits) are part of normal operation — the shard stays
/// usable — so they are data here, not `Err`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// `Err(message)` when the op itself was rejected (e.g. an update
    /// vetoed by an integrity constraint).
    pub result: std::result::Result<(), String>,
    /// Firings appended to the log by this op (actions cascaded included),
    /// in dispatch order.
    pub firings: Vec<FiringRecord>,
}

impl ApplyOutcome {
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Point-in-time shard statistics (per-tenant gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Length of the logical history (system states appended so far).
    pub states: usize,
    /// System states currently held in memory (the undispatched suffix
    /// plus the newest state; the live window on valid-time tenants).
    pub retained_states: usize,
    /// User-registered rules.
    pub rules: usize,
    /// Firings recorded since the shard was opened.
    pub firings: usize,
    /// Retained formula-state size across all rules.
    pub retained: usize,
    /// The shard's logical clock.
    pub now: Timestamp,
    /// Batch-safety certificate for the registered rule set (what group
    /// commits may fuse without diverging from the per-op schedule).
    pub batch_safety: tdb_analysis::BatchCertificate,
}

/// One tenant: an active database plus its rule catalog and a firing
/// cursor. See the module docs.
#[derive(Debug)]
pub struct Shard {
    adb: ActiveDatabase,
    catalog: Vec<Rule>,
    /// Firings at indices `< reported` have been handed out by
    /// [`Shard::apply`] outcomes already. The facade's firing log is never
    /// drained, so it doubles as the stable catch-up history
    /// ([`Shard::firings_from`]); a recovered shard resumes with the log
    /// the checkpoint + WAL replay rebuilt.
    reported: usize,
}

impl Shard {
    /// Wraps an existing system. `catalog` must contain every rule already
    /// registered on `adb` (recovery passes the catalog it replayed with);
    /// firings already in the log count as reported.
    pub fn new(mut adb: ActiveDatabase, catalog: Vec<Rule>) -> Shard {
        adb.forget_dispatched();
        let reported = adb.firings().len();
        Shard {
            adb,
            catalog,
            reported,
        }
    }

    /// A fresh volatile shard over `db`.
    pub fn volatile(db: Database, cfg: ManagerConfig) -> Shard {
        Shard::new(ActiveDatabase::with_config(db, cfg), Vec::new())
    }

    /// A fresh durable shard: every op is write-ahead logged to `sink`.
    pub fn durable(db: Database, cfg: ManagerConfig, sink: Box<dyn WalSink>) -> Result<Shard> {
        Ok(Shard::new(
            ActiveDatabase::with_storage(db, cfg, sink)?,
            Vec::new(),
        ))
    }

    pub fn adb(&self) -> &ActiveDatabase {
        &self.adb
    }

    pub fn adb_mut(&mut self) -> &mut ActiveDatabase {
        &mut self.adb
    }

    pub fn catalog(&self) -> &[Rule] {
        &self.catalog
    }

    /// Registers a rule and records it in the catalog so later recovery
    /// (and `AddRule` replay) can resolve it by name. Re-registering a name
    /// is a typed error from the manager; the catalog stays consistent.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        self.add_rules(vec![rule])
    }

    /// Registers a rule file's rules in order: one logged `AddRule` each,
    /// stopping at the first failure, registered rules joining the
    /// catalog, and a single batch-safety recertification at the end —
    /// see [`ActiveDatabase::add_rules`].
    pub fn add_rules(&mut self, rules: Vec<Rule>) -> Result<()> {
        let (added, r) = self.adb.add_rules(rules.iter().cloned());
        self.catalog.extend(rules.into_iter().take(added));
        r
    }

    /// Applies one externally driven op through the typed facade API (so a
    /// WAL-attached shard logs it exactly as a direct call would) and
    /// reports the op-level outcome plus every firing it produced.
    /// Structural errors — an `AddRule` naming a rule missing from the
    /// catalog — surface as `Err`; op-level rejections are absorbed into
    /// the outcome.
    pub fn apply(&mut self, op: &LogicalOp) -> Result<ApplyOutcome> {
        let applied = self.apply_inner(op);
        self.adb.forget_dispatched();
        let result = match applied {
            Ok(()) => Ok(()),
            // Deterministic op-level failures leave the shard usable.
            Err(e) if e.is_deterministic() => Err(e.to_string()),
            Err(e) => return Err(e),
        };
        Ok(ApplyOutcome {
            result,
            firings: self.drain_new_firings(),
        })
    }

    /// Applies a whole group-committed batch through
    /// [`ActiveDatabase::commit_batch`] — one WAL record, one fsync, one
    /// closing dispatch pass — and buckets the pooled firings back onto
    /// the member ops by their `states_end` watermarks (a firing belongs
    /// to the first op whose watermark covers its state). Firings from the
    /// closing dispatch's own action cascades attach to the last op, which
    /// is where §8's "delayed, not unrecognized" guarantee lands them.
    pub fn apply_batch(&mut self, ops: &[LogicalOp]) -> Result<Vec<ApplyOutcome>> {
        let outcomes = self.adb.commit_batch(ops, &self.catalog);
        self.adb.forget_dispatched();
        let outcomes = outcomes?;
        let firings = self.drain_new_firings();
        let mut out = Vec::with_capacity(outcomes.len());
        let mut cursor = 0usize;
        for (k, o) in outcomes.iter().enumerate() {
            // Firing state indices are non-decreasing in the log, so each
            // op's bucket is the next contiguous run under its watermark.
            let end = if k + 1 == outcomes.len() {
                firings.len()
            } else {
                let mut end = cursor;
                while end < firings.len() && firings[end].state_index < o.states_end {
                    end += 1;
                }
                end
            };
            out.push(ApplyOutcome {
                result: o.result.clone(),
                firings: firings[cursor..end].to_vec(),
            });
            cursor = end;
        }
        Ok(out)
    }

    fn apply_inner(&mut self, op: &LogicalOp) -> Result<()> {
        match op {
            LogicalOp::CreateRelation { name, relation } => {
                self.adb.create_relation(name.clone(), relation.clone())
            }
            LogicalOp::DefineQuery { name, def } => {
                self.adb.define_query(name.clone(), def.clone())
            }
            LogicalOp::SetItem { name, value } => self.adb.set_item(name.clone(), value.clone()),
            LogicalOp::AddRule { name } => {
                let rule = self
                    .catalog
                    .iter()
                    .find(|r| r.name == *name)
                    .cloned()
                    .ok_or_else(|| CoreError::NoSuchRule(name.clone()))?;
                self.adb.add_rule(rule)
            }
            LogicalOp::SetBatch { n } => self.adb.set_batch(*n),
            LogicalOp::SetCascadeLimit { n } => self.adb.set_cascade_limit(*n),
            LogicalOp::AdvanceClock { delta } => self.adb.advance_clock(*delta).map(|_| ()),
            LogicalOp::AdvanceClockTo { t } => self.adb.advance_clock_to(*t).map(|_| ()),
            LogicalOp::Tick => self.adb.tick(),
            LogicalOp::Emit { events } => self.adb.emit_all(events.clone()).map(|_| ()),
            LogicalOp::Update { ops } => self.adb.update(ops.clone()).map(|_| ()),
            LogicalOp::Begin => self.adb.begin().map(|_| ()),
            LogicalOp::Write { txn, op } => self.adb.write(*txn, op.clone()),
            LogicalOp::Commit { txn } => self.adb.commit(*txn).map(|_| ()),
            LogicalOp::Abort { txn } => self.adb.abort(*txn).map(|_| ()),
            LogicalOp::Flush => self.adb.flush(),
            // Audit records are outputs, not inputs.
            LogicalOp::Firing { .. } => Ok(()),
            LogicalOp::Batch { ops } => self.adb.commit_batch(ops, &self.catalog).map(|_| ()),
            LogicalOp::CommitAt { .. } => Err(CoreError::Storage(
                "CommitAt (valid-time ingest) requires a valid-time tenant".into(),
            )),
        }
    }

    /// Firings appended since the last drain, in order.
    fn drain_new_firings(&mut self) -> Vec<FiringRecord> {
        let log = self.adb.firings();
        let new: Vec<FiringRecord> = log[self.reported.min(log.len())..].to_vec();
        self.reported = log.len();
        new
    }

    /// The full firing history from index `from` (for catch-up reads and
    /// oracle comparisons). Indices are stable across the shard's lifetime.
    pub fn firings_from(&self, from: usize) -> Vec<FiringRecord> {
        let log = self.adb.firings();
        log[from.min(log.len())..].to_vec()
    }

    /// Per-tenant gauges.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            states: self.adb.history().len(),
            retained_states: self.adb.history().retained(),
            rules: self.catalog.len(),
            firings: self.adb.firings().len(),
            retained: self.adb.retained_size(),
            now: self.adb.now(),
            batch_safety: self.adb.batch_certificate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{executed_relation_name, CascadeMode};
    use crate::rules::{Action, ActionOp};
    use crate::storage::SharedMemorySink;
    use tdb_engine::WriteOp;
    use tdb_ptl::{parse_formula, parse_term};
    use tdb_relation::{parse_query, QueryDef, Value};

    fn item_db() -> Database {
        let mut db = Database::new();
        db.set_item("n", Value::Int(0));
        db.define_query("n", QueryDef::new(0, parse_query("item n").unwrap()));
        db
    }

    /// Shards must be movable onto worker threads.
    #[test]
    fn shard_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard>();
    }

    #[test]
    fn apply_reports_per_op_firings_and_absorbs_vetoes() {
        let mut shard = Shard::volatile(item_db(), ManagerConfig::default());
        shard
            .add_rule(Rule::trigger(
                "watch",
                parse_formula("n() >= 5").unwrap(),
                Action::Notify,
            ))
            .unwrap();
        shard
            .add_rule(Rule::constraint("cap", parse_formula("n() <= 10").unwrap()))
            .unwrap();

        let set = |v: i64| LogicalOp::Update {
            ops: vec![WriteOp::SetItem {
                item: "n".into(),
                value: Value::Int(v),
            }],
        };
        let quiet = shard.apply(&set(3)).unwrap();
        assert!(quiet.ok() && quiet.firings.is_empty());

        shard.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
        let fired = shard.apply(&set(7)).unwrap();
        assert!(fired.ok());
        assert_eq!(fired.firings.len(), 1);
        assert_eq!(fired.firings[0].rule, "watch");

        shard.apply(&LogicalOp::AdvanceClock { delta: 1 }).unwrap();
        let vetoed = shard.apply(&set(50)).unwrap();
        assert!(!vetoed.ok(), "constraint veto is an op-level outcome");
        assert!(vetoed.firings.iter().any(|f| f.rule == "cap"));
        assert_eq!(shard.adb().db().item("n").unwrap(), Value::Int(7));

        // Firing history is stable and complete.
        let all = shard.firings_from(0);
        assert_eq!(all.len(), shard.adb().firings().len());
        assert_eq!(shard.firings_from(all.len()), Vec::new());
        assert_eq!(shard.firings_from(1), all[1..].to_vec());
    }

    #[test]
    fn add_rule_extends_catalog_for_replay() {
        let mut shard = Shard::volatile(item_db(), ManagerConfig::default());
        shard
            .add_rule(Rule::trigger(
                "watch",
                parse_formula("n() >= 5").unwrap(),
                Action::Notify,
            ))
            .unwrap();
        assert_eq!(shard.catalog().len(), 1);
        // An AddRule op for an unknown name is a structural error.
        let err = shard.apply(&LogicalOp::AddRule {
            name: "ghost".into(),
        });
        assert!(matches!(err, Err(CoreError::NoSuchRule(_))));
    }

    /// The server's dispatch configuration: eager cascades, so group
    /// commits reproduce the per-op firing schedule.
    fn eager() -> ManagerConfig {
        ManagerConfig {
            cascade: CascadeMode::Eager,
            ..ManagerConfig::default()
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

    /// A recording trigger that fires at every commit to `n` — each firing
    /// grows its `executed` relation by one row, the shape that made a
    /// full history O(firings²).
    fn ping_rule() -> Rule {
        Rule::trigger(
            "ping",
            parse_formula("@update(\"n\")").unwrap(),
            Action::Notify,
        )
        .recording_executed()
    }

    fn executed_rows(shard: &Shard, rule: &str) -> usize {
        shard
            .adb()
            .db()
            .relation(&executed_relation_name(rule))
            .unwrap()
            .len()
    }

    fn assert_suffix_only(shard: &Shard) {
        let adb = shard.adb();
        assert!(
            adb.history().retained() <= adb.pending_states() + 1,
            "retained {} states with {} pending",
            adb.history().retained(),
            adb.pending_states()
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "thousands of commits; too slow under Miri")]
    fn recording_trigger_retains_only_the_undispatched_suffix() {
        for batch in [1usize, 4] {
            let mut shard = Shard::volatile(item_db(), eager());
            assert_suffix_only(&shard);
            shard.add_rule(ping_rule()).unwrap();
            shard.apply(&LogicalOp::SetBatch { n: batch }).unwrap();
            for i in 0..5000 {
                assert!(shard.apply(&set_n(i)).unwrap().ok());
                assert_suffix_only(&shard);
            }
            shard.apply(&LogicalOp::Flush).unwrap();
            assert_suffix_only(&shard);
            // Each dispatched window of `batch` commit states is one rising
            // edge of `@update("n")`, so the edge-triggered rule fires once
            // per window (§8: delayed, not lost).
            assert_eq!(shard.adb().firings().len(), 5000 / batch);
            assert_eq!(executed_rows(&shard, "ping"), 5000 / batch);
            // The logical history still counts every state.
            assert!(shard.stats().states > 5000);
            assert_eq!(shard.stats().retained_states, 1);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "thousands of commits; too slow under Miri")]
    fn group_commits_retain_only_the_undispatched_suffix() {
        let mut batched = Shard::volatile(item_db(), eager());
        let mut per_op = Shard::volatile(item_db(), eager());
        batched.add_rule(ping_rule()).unwrap();
        per_op.add_rule(ping_rule()).unwrap();
        let ops: Vec<LogicalOp> = (0..5000).map(set_n).collect();
        for chunk in ops.chunks(7) {
            let outs = batched.apply_batch(chunk).unwrap();
            assert!(outs.iter().all(ApplyOutcome::ok));
            assert_suffix_only(&batched);
            for op in chunk {
                per_op.apply(op).unwrap();
            }
        }
        assert_eq!(batched.adb().firings().len(), 5000);
        assert_eq!(batched.adb().firings(), per_op.adb().firings());
        assert_eq!(batched.adb().db(), per_op.adb().db());
        assert_eq!(executed_rows(&batched, "ping"), 5000);
    }

    #[test]
    #[cfg_attr(miri, ignore = "thousands of commits; too slow under Miri")]
    fn recovered_durable_shard_retains_the_live_suffix() {
        let sink = SharedMemorySink::new(40);
        let mut live = Shard::durable(item_db(), eager(), Box::new(sink.clone())).unwrap();
        live.add_rule(ping_rule()).unwrap();
        live.apply(&LogicalOp::SetBatch { n: 3 }).unwrap();
        for i in 0..301 {
            live.apply(&set_n(i)).unwrap();
        }
        assert!(
            live.adb().pending_states() > 0,
            "a partial batch is pending"
        );

        let (snap, tail) = sink.latest().expect("checkpoints were taken");
        assert!(
            !tail.is_empty(),
            "the run continued past the last checkpoint"
        );
        let catalog = live.catalog().to_vec();
        let recovered = ActiveDatabase::recover(snap, &tail, &catalog, eager()).unwrap();
        let mut recovered = Shard::new(recovered, catalog);

        let suffix = |s: &Shard| -> Vec<(usize, tdb_engine::SystemState)> {
            s.adb()
                .history()
                .iter()
                .map(|(i, st)| (i, st.clone()))
                .collect()
        };
        assert_eq!(suffix(&recovered), suffix(&live));
        assert_eq!(recovered.stats(), live.stats());
        assert_eq!(recovered.adb().db(), live.adb().db());
        assert_eq!(recovered.adb().firings(), live.adb().firings());

        // Both keep going identically.
        for i in 0..20 {
            let a = live.apply(&set_n(1000 + i)).unwrap();
            let b = recovered.apply(&set_n(1000 + i)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(suffix(&recovered), suffix(&live));
    }

    /// The terms the action-aggregate rules below write, by column.
    const ACC_TERMS: [&str; 3] = [
        "n()",
        "sum(n(); @reset; @update(\"n\"))",
        "max(n(); @reset; @update(\"n\")) + 0",
    ];
    const KEYED_SUM: &str = "sum(n() * x; @reset; @update(\"n\"))";

    /// A database with `n`, the key set `keys` = {1, 2, 3} and the two
    /// empty logs the action-aggregate rules insert into.
    fn aggregate_db() -> Database {
        use tdb_relation::{tuple, Relation, Schema};
        let mut db = item_db();
        let keys = Relation::from_rows(
            Schema::untyped(&["k"]),
            vec![tuple![1i64], tuple![2i64], tuple![3i64]],
        )
        .unwrap();
        db.create_relation("keys", keys).unwrap();
        db.define_query(
            "keys",
            QueryDef::new(0, parse_query("select k from keys").unwrap()),
        );
        for (name, cols) in [("alog", &["n", "total", "peak"][..]), ("klog", &["x", "s"])] {
            db.create_relation(name, Relation::empty(Schema::untyped(cols)))
                .unwrap();
        }
        db
    }

    /// Two rules with temporal aggregates in their action terms: `acc`
    /// logs the running sum and maximum of `n` since the last `@reset`;
    /// `keyed` logs a per-key sum whose query reads `x`, a variable bound
    /// by the condition.
    fn aggregate_rules() -> Vec<Rule> {
        let terms = |ts: &[&str]| -> Vec<tdb_ptl::Term> {
            ts.iter().map(|t| parse_term(t).unwrap()).collect()
        };
        vec![
            Rule::trigger(
                "acc",
                parse_formula("@update(\"n\")").unwrap(),
                Action::DbOps(vec![ActionOp::Insert {
                    relation: "alog".into(),
                    tuple: terms(&ACC_TERMS),
                }]),
            ),
            Rule::trigger(
                "keyed",
                parse_formula("x in keys() and @update(\"n\")").unwrap(),
                Action::DbOps(vec![ActionOp::Insert {
                    relation: "klog".into(),
                    tuple: terms(&["x", KEYED_SUM]),
                }]),
            ),
        ]
    }

    /// Checks every row an action added to `relation` against the naive
    /// Section 6 evaluation of `expected(row)` over the full history `h`.
    /// An action materializes its terms at the newest state and its write
    /// appends the next one, so a row new at state `k` was computed at
    /// `k - 1`. Returns how many rows were checked.
    fn check_rows_naively(
        h: &tdb_engine::History,
        relation: &str,
        expected: impl Fn(&[Value]) -> (Vec<tdb_ptl::Term>, tdb_ptl::Env),
    ) -> usize {
        let rows_at = |k: usize| -> Vec<Vec<Value>> {
            h.get(k)
                .unwrap()
                .db()
                .relation(relation)
                .unwrap()
                .iter()
                .map(|t| t.values().to_vec())
                .collect()
        };
        let mut checked = 0;
        for k in 1..h.len() {
            let before = rows_at(k - 1);
            for row in rows_at(k).into_iter().filter(|r| !before.contains(r)) {
                let (terms, env) = expected(&row);
                let naive: Vec<Value> = terms
                    .iter()
                    .map(|t| tdb_ptl::eval_term(t, h, k - 1, &env).unwrap())
                    .collect();
                assert_eq!(row, naive, "{relation} row new at state {k}");
                checked += 1;
            }
        }
        checked
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of commits; too slow under Miri")]
    fn action_aggregates_match_naive_evaluation_over_the_full_history() {
        let reset = || LogicalOp::Emit {
            events: tdb_engine::EventSet::of([tdb_engine::Event::new("reset", vec![])]),
        };
        let mut ops = vec![reset()];
        for i in 0..120i64 {
            ops.push(set_n((i * 37) % 101));
            if i % 40 == 39 {
                ops.push(reset());
            }
        }
        ops.push(LogicalOp::Flush);

        for batch in [1usize, 4] {
            let mut shard = Shard::volatile(aggregate_db(), eager());
            let mut library = ActiveDatabase::with_config(aggregate_db(), eager());
            for rule in aggregate_rules() {
                shard.add_rule(rule.clone()).unwrap();
                library.add_rule(rule).unwrap();
            }
            assert!(shard.apply(&LogicalOp::SetBatch { n: batch }).unwrap().ok());
            library.set_batch(batch).unwrap();
            for op in &ops {
                let outcome = shard.apply(op).unwrap();
                assert!(outcome.ok(), "{outcome:?}");
                library.replay(op, &[]).unwrap();
            }
            assert_eq!(shard.adb().db(), library.db());
            assert_eq!(shard.adb().firings(), library.firings());
            // The shard keeps every state since registration, so actions
            // never reach an evicted one.
            assert_eq!(shard.stats().retained_states, shard.stats().states);

            let h = shard.adb().history();
            let acc = check_rows_naively(h, "alog", |_| {
                let terms = ACC_TERMS.iter().map(|t| parse_term(t).unwrap()).collect();
                (terms, tdb_ptl::Env::new())
            });
            let keyed = check_rows_naively(h, "klog", |row| {
                let env = tdb_ptl::Env::from([("x".to_string(), row[0].clone())]);
                let terms = vec![parse_term("x").unwrap(), parse_term(KEYED_SUM).unwrap()];
                (terms, env)
            });
            assert!(acc >= 120 / batch, "batch {batch}: {acc} acc rows checked");
            assert!(keyed > acc, "batch {batch}: {keyed} keyed rows checked");
        }
    }

    /// Rules that put no aggregate in an action leave retention alone.
    #[test]
    fn condition_aggregates_keep_the_suffix_only_retention() {
        let mut shard = Shard::volatile(item_db(), eager());
        shard
            .add_rule(Rule::trigger(
                "avg",
                parse_formula("avg(n(); @reset; @update(\"n\")) > 50").unwrap(),
                Action::Notify,
            ))
            .unwrap();
        for i in 0..50 {
            assert!(shard.apply(&set_n(i * 3)).unwrap().ok());
            assert_suffix_only(&shard);
        }
        assert_eq!(shard.stats().retained_states, 1);
    }

    /// Registers `rules` over `db` once in one batch and once rule by
    /// rule, and checks both end with the same certificate, fences, lint
    /// findings, database and catalog.
    fn assert_batch_registration_matches(db: Database, rules: Vec<Rule>) {
        let cfg = || ManagerConfig {
            lint: tdb_analysis::LintLevel::Warn,
            ..eager()
        };
        let mut per_rule = Shard::volatile(db.clone(), cfg());
        for rule in rules.clone() {
            per_rule.add_rule(rule).unwrap();
        }
        let mut batch = Shard::volatile(db, cfg());
        batch.add_rules(rules).unwrap();
        assert_eq!(batch.adb().batch_safety(), per_rule.adb().batch_safety());
        assert_eq!(batch.adb().writer_fences(), per_rule.adb().writer_fences());
        assert_eq!(batch.adb().lint_findings(), per_rule.adb().lint_findings());
        assert_eq!(batch.adb().db(), per_rule.adb().db());
        assert_eq!(batch.catalog(), per_rule.catalog());
        assert!(batch.adb().writer_fences().any, "recording rules write");
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of rules; too slow under Miri")]
    fn batch_registration_equals_per_rule_registration_on_a_rule_heavy_catalog() {
        use tdb_relation::{tuple, Relation, Schema};
        // The benchmark's rule_heavy shape: three single-row relations,
        // 128 recording edge rules each.
        let mut db = Database::new();
        let mut rules = Vec::new();
        for j in 0..3 {
            let w = Relation::from_rows(Schema::untyped(&["v"]), vec![tuple![0i64]]).unwrap();
            db.create_relation(format!("W{j}"), w).unwrap();
            db.define_query(
                format!("r{j}_q"),
                QueryDef::new(0, parse_query(&format!("select v from W{j}")).unwrap()),
            );
            for i in 0..128 {
                let k = 2 * i + (i * 7 + j) % 2;
                let cond = format!("r{j}_q() = {k} and previously(r{j}_q() != {k})");
                rules.push(
                    Rule::trigger(
                        format!("e{j}_{i}"),
                        parse_formula(&cond).unwrap(),
                        Action::Notify,
                    )
                    .recording_executed(),
                );
            }
        }
        assert_batch_registration_matches(db, rules);
    }

    #[test]
    fn batch_registration_equals_per_rule_registration_on_a_writer_catalog() {
        use tdb_relation::{Relation, Schema};
        let mut db = Database::new();
        for item in [
            "pressure",
            "alarm_level",
            "seen",
            "ping_count",
            "pong_count",
        ] {
            db.set_item(item, Value::Int(0));
            db.define_query(
                item,
                QueryDef::new(0, parse_query(&format!("item {item}")).unwrap()),
            );
        }
        db.create_relation("log", Relation::empty(Schema::untyped(&["v"])))
            .unwrap();
        let set = |item: &str, term: &str| ActionOp::SetItem {
            item: item.into(),
            value: parse_term(term).unwrap(),
        };
        let rule = |name: &str, cond: &str, ops: Vec<ActionOp>| {
            let action = if ops.is_empty() {
                Action::Notify
            } else {
                Action::DbOps(ops)
            };
            Rule::trigger(name, parse_formula(cond).unwrap(), action).recording_executed()
        };
        let rules = vec![
            rule(
                "breach",
                "pressure() > 120 and previously(pressure() <= 120)",
                vec![
                    set("alarm_level", "2"),
                    ActionOp::Insert {
                        relation: "log".into(),
                        tuple: vec![parse_term("pressure()").unwrap()],
                    },
                ],
            ),
            rule("escalate", "alarm_level() >= 2", vec![]),
            // Reading `breach`'s executions makes it a fenced writer.
            rule("follow", "executed(breach, t)", vec![set("seen", "t")]),
            // A write cycle.
            rule("ping", "pong_count() > 0", vec![set("ping_count", "1")]),
            rule("pong", "ping_count() > 0", vec![set("pong_count", "1")]),
        ];
        assert_batch_registration_matches(db, rules);
    }

    #[test]
    fn batch_registration_equals_per_rule_registration_on_failure() {
        use tdb_analysis::LintLevel;
        let cfg = || ManagerConfig {
            lint: LintLevel::Deny,
            ..eager()
        };
        let rules = vec![
            Rule::trigger(
                "bump",
                parse_formula("n() > 3").unwrap(),
                Action::DbOps(vec![ActionOp::SetItem {
                    item: "n".into(),
                    value: parse_term("n() + 1").unwrap(),
                }]),
            ),
            // TDB001: an unguarded `once` retains every login forever.
            Rule::trigger(
                "denied",
                parse_formula("@pulse and once @login(u)").unwrap(),
                Action::Notify,
            ),
            Rule::trigger("never", parse_formula("n() < 0").unwrap(), Action::Notify),
        ];

        let per_rule_sink = SharedMemorySink::new(0);
        let mut per_rule =
            Shard::durable(item_db(), cfg(), Box::new(per_rule_sink.clone())).unwrap();
        let mut per_rule_err = None;
        for r in rules.clone() {
            if let Err(e) = per_rule.add_rule(r) {
                per_rule_err = Some(e);
                break;
            }
        }
        let batch_sink = SharedMemorySink::new(0);
        let mut batch = Shard::durable(item_db(), cfg(), Box::new(batch_sink.clone())).unwrap();
        let batch_err = batch.add_rules(rules).unwrap_err();

        assert!(matches!(batch_err, CoreError::LintDenied { .. }));
        assert_eq!(
            Some(batch_err.to_string()),
            per_rule_err.map(|e| e.to_string())
        );
        assert_eq!(batch.catalog(), per_rule.catalog());
        assert_eq!(batch.catalog().len(), 1);
        assert_eq!(batch.adb().batch_safety(), per_rule.adb().batch_safety());
        assert_eq!(batch.adb().writer_fences(), per_rule.adb().writer_fences());
        assert!(batch.adb().writer_fences().any, "`bump` is a writer");
        // The log still carries one `AddRule` per attempted rule.
        let add_rules = |sink: &SharedMemorySink| -> Vec<LogicalOp> {
            sink.inner()
                .tail
                .iter()
                .filter(|op| matches!(op, LogicalOp::AddRule { .. }))
                .cloned()
                .collect()
        };
        assert_eq!(add_rules(&batch_sink), add_rules(&per_rule_sink));
        assert_eq!(add_rules(&batch_sink).len(), 2);
    }
}
