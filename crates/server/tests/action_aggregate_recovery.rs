//! Durable tenant directories holding rules with temporal aggregates in
//! their action terms must recover exactly as the server that wrote them
//! left them, and keep going the same way.
//!
//! `tests/data/action_aggregates/` holds two directories written by the
//! server before tenants dropped their dispatched history states (the
//! on-disk formats are unchanged since): `wal_only` replays every op,
//! rule registrations included, from the initial checkpoint;
//! `checkpointed` restores the rules' states from a checkpoint cut after
//! registration and replays the tail. `expected.txt` is the transcript
//! that server produced on reopening either directory: the recovered
//! firing log, the logged rows, the checkpoint bytes, then the outcomes of
//! more commits. Both directories were written by `build` below.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use std::path::Path;

use tdb_core::manager::{CascadeMode, ManagerConfig};
use tdb_core::storage::LogicalOp;
use tdb_engine::{Event, EventSet, WriteOp};
use tdb_relation::{parse_query, tuple, QueryDef, Relation, Schema, Value};
use tdb_server::tenant::Tenant;
use tdb_storage::CheckpointPolicy;

/// Two recording wire rules with temporal aggregates in their action
/// terms; `keyed`'s aggregate reads `x`, a variable its condition binds.
const RULES: &str = "rule acc { when @update(\"n\"); then insert alog(n(), sum(n(); @reset; @update(\"n\")), max(n(); @reset; @update(\"n\")) + 0); }\n\
rule keyed { when x in keys() and @update(\"n\"); then insert klog(x, sum(n() * x; @reset; @update(\"n\"))); }\n";

/// The server's manager configuration.
fn cfg() -> ManagerConfig {
    ManagerConfig {
        lint: tdb_analysis::LintLevel::Warn,
        cascade: CascadeMode::Eager,
        ..ManagerConfig::default()
    }
}

/// No automatic checkpoints: the directories hold exactly the
/// checkpoints their writer cut.
fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_ops: 100_000,
        every_bytes: u64::MAX,
        ..CheckpointPolicy::default()
    }
}

fn seed_ops() -> Vec<LogicalOp> {
    let query = |name: &str, text: &str| LogicalOp::DefineQuery {
        name: name.into(),
        def: QueryDef::new(0, parse_query(text).unwrap()),
    };
    vec![
        LogicalOp::SetItem {
            name: "n".into(),
            value: Value::Int(0),
        },
        query("n", "item n"),
        LogicalOp::CreateRelation {
            name: "keys".into(),
            relation: Relation::from_rows(
                Schema::untyped(&["k"]),
                vec![tuple![1i64], tuple![2i64], tuple![3i64]],
            )
            .unwrap(),
        },
        query("keys", "select k from keys"),
        LogicalOp::CreateRelation {
            name: "alog".into(),
            relation: Relation::empty(Schema::untyped(&["n", "total", "peak"])),
        },
        LogicalOp::CreateRelation {
            name: "klog".into(),
            relation: Relation::empty(Schema::untyped(&["x", "s"])),
        },
    ]
}

fn set_n(v: i64) -> LogicalOp {
    LogicalOp::Update {
        ops: vec![WriteOp::SetItem {
            item: "n".into(),
            value: Value::Int(v),
        }],
    }
}

/// A `@reset`, then `count` clock-advancing commits to `n`.
fn run_ops(from: i64, count: i64) -> Vec<LogicalOp> {
    let mut ops = vec![LogicalOp::Emit {
        events: EventSet::of([Event::new("reset", vec![])]),
    }];
    for i in from..from + count {
        ops.push(LogicalOp::AdvanceClock { delta: 1 });
        ops.push(set_n((i * 37) % 101));
    }
    ops
}

fn batch_ops(from: i64) -> Vec<LogicalOp> {
    (from..from + 6).map(|i| set_n((i * 53) % 97)).collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn snapshot_line(t: &Tenant) -> String {
    let bytes = tdb_storage::codec::encode_snapshot(&t.shard().adb().snapshot().unwrap());
    format!(
        "snapshot {} bytes crc {:08x}",
        bytes.len(),
        tdb_storage::crc::crc32(&bytes)
    )
}

fn rows(t: &Tenant, relation: &str) -> String {
    let mut rows: Vec<String> = t
        .shard()
        .adb()
        .db()
        .relation(relation)
        .unwrap()
        .iter()
        .map(|r| format!("{:?}", r.values()))
        .collect();
    rows.sort();
    format!("{relation}: {}", rows.join(" "))
}

fn firings_line(t: &Tenant) -> String {
    let log: Vec<String> = t
        .shard()
        .firings_from(0)
        .iter()
        .map(|f| format!("{f:?}"))
        .collect();
    let text = log.join("\n");
    format!(
        "firings {} crc {:08x}",
        log.len(),
        tdb_storage::crc::crc32(text.as_bytes())
    )
}

fn outcome_line(o: &tdb_core::shard::ApplyOutcome) -> String {
    let result = match &o.result {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err {e}"),
    };
    let fired: Vec<&str> = o.firings.iter().map(|f| f.rule.as_str()).collect();
    format!("{result} fired [{}]", fired.join(" "))
}

/// Reopens the tenant in `dir`, records what recovery rebuilt, keeps
/// committing, and records every outcome.
fn transcript(dir: &Path) -> Vec<String> {
    let mut t = Tenant::durable("agg", dir, cfg(), policy()).unwrap();
    let mut lines = vec!["recovered".to_string(), firings_line(&t)];
    lines.push(rows(&t, "alog"));
    lines.push(rows(&t, "klog"));
    lines.push(snapshot_line(&t));
    lines.push("continued".to_string());
    for op in run_ops(200, 15) {
        lines.push(outcome_line(&t.apply(&op).unwrap()));
    }
    for o in t.apply_batch(&batch_ops(400)).unwrap() {
        lines.push(outcome_line(&o));
    }
    lines.push(firings_line(&t));
    lines.push(rows(&t, "alog"));
    lines.push(rows(&t, "klog"));
    lines.push(snapshot_line(&t));
    lines
}

/// How the directories were written: seed, register [`RULES`], commit,
/// optionally cut a checkpoint, commit more (a group commit last).
fn build(dir: &Path, checkpoint: bool) {
    let _ = std::fs::remove_dir_all(dir);
    let mut t = Tenant::durable("agg", dir, cfg(), policy()).unwrap();
    for op in seed_ops() {
        assert!(t.apply(&op).unwrap().ok());
    }
    t.register_rules(RULES).unwrap();
    for op in run_ops(0, 30) {
        assert!(t.apply(&op).unwrap().ok());
    }
    if checkpoint {
        t.checkpoint_now().unwrap();
    }
    for op in run_ops(100, 20) {
        assert!(t.apply(&op).unwrap().ok());
    }
    let outs = t.apply_batch(&batch_ops(300)).unwrap();
    assert!(outs.iter().all(|o| o.ok()));
}

fn check(name: &str) {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/action_aggregates");
    // Reopening appends to the WAL, so work on a copy.
    let dir = std::env::temp_dir().join(format!("tdb-action-agg-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&data.join(name), &dir);
    let got = transcript(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let want = std::fs::read_to_string(data.join("expected.txt")).unwrap();
    let want: Vec<&str> = want.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{name}: transcript line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{name}: transcript length");
}

#[test]
fn wal_only_directory_recovers_and_continues_as_written() {
    check("wal_only");
}

#[test]
fn checkpointed_directory_recovers_and_continues_as_written() {
    check("checkpointed");
}

/// The same run on today's server writes the same bytes.
#[test]
fn writing_the_directories_again_yields_the_same_bytes() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/action_aggregates");
    for (name, checkpoint) in [("wal_only", false), ("checkpointed", true)] {
        let dir =
            std::env::temp_dir().join(format!("tdb-action-agg-new-{name}-{}", std::process::id()));
        build(&dir, checkpoint);
        let files = |d: &Path| -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (e.file_name(), std::fs::read(e.path()).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let (got, want) = (files(&dir), files(&data.join(name)));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(got, want, "{name}");
    }
}
