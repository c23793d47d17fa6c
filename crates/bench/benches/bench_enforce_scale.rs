//! EXP-F3 (§3): enforcement wall-time vs model size for both engines,
//! and the warm-session repair cycle on the same workload.
//!
//! * `search/n`, `sat/n` — a cold `enforce` of the paper's `F = MF ∧ OF`
//!   (k = 2) with one new mandatory feature injected, repaired into the
//!   configurations (`Shape::of(&[0, 1])`, cost 2). Search runs up to
//!   n = 1 000, SAT up to n = 100.
//! * `session/n` — one `SyncSession` over the consistent tuple; each
//!   iteration adds a fresh mandatory feature to the feature model
//!   (three edits), repairs it warm under the same shape, and rolls the
//!   journal back, so every iteration starts from the same tuple.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::{broken_workload, consistent_workload, paper_transformation};
use mmt_core::{Shape, SyncSession};
use mmt_deps::DomIdx;
use mmt_dist::EditOp;
use mmt_enforce::{RepairEngine, SatEngine, SearchEngine};
use mmt_gen::Injection;
use mmt_model::{ObjId, Sym, Value};

/// One session cycle: a new mandatory feature in the feature model, a
/// warm repair into the configurations, and a rollback of both.
fn new_mandatory_cycle(session: &mut SyncSession) -> u64 {
    let fm = DomIdx(2);
    let meta = session.models()[2].metamodel().clone();
    let feature = meta.class_named("Feature").expect("static class");
    let name = meta
        .attr_of(feature, Sym::new("name"))
        .expect("static attr");
    let mandatory = meta
        .attr_of(feature, Sym::new("mandatory"))
        .expect("static attr");
    let id = ObjId(session.models()[2].id_bound() as u32);
    let mut edit = |op| session.apply(fm, op).expect("drift applies");
    edit(EditOp::AddObj { id, class: feature });
    edit(EditOp::SetAttr {
        id,
        attr: name,
        value: Value::str("brakes"),
        old: Value::str(""),
    });
    edit(EditOp::SetAttr {
        id,
        attr: mandatory,
        value: Value::Bool(true),
        old: Value::Bool(false),
    });
    let cost = session
        .repair(Shape::of(&[0, 1]))
        .expect("search runs")
        .expect("a new mandatory feature is repairable")
        .cost;
    session
        .rollback_all()
        .expect("rollback replays exact inverses");
    cost
}

fn bench_enforce(c: &mut Criterion) {
    let mut group = c.benchmark_group("enforce");
    group.sample_size(10);
    let t = paper_transformation(2);
    let targets = Shape::of(&[0, 1]).targets();
    for n in [3usize, 5, 7, 30, 100, 300, 1000] {
        let w = broken_workload(n, 2, 53, Injection::NewMandatoryInFm);
        group.bench_with_input(BenchmarkId::new("search", n), &w, |b, w| {
            let engine = SearchEngine::default();
            b.iter(|| engine.repair(t.hir_arc(), &w.models, targets).unwrap())
        });
    }
    for n in [3usize, 5, 7, 30, 100] {
        let w = broken_workload(n, 2, 53, Injection::NewMandatoryInFm);
        group.bench_with_input(BenchmarkId::new("sat", n), &w, |b, w| {
            let engine = SatEngine::default();
            b.iter(|| engine.repair(t.hir_arc(), &w.models, targets).unwrap())
        });
    }
    for n in [30usize, 100, 1000] {
        let w = consistent_workload(n, 2, 53);
        let mut session = t.session(&w.models).expect("consistent tuples open");
        assert_eq!(new_mandatory_cycle(&mut session), 2, "cost-2 repair");
        group.bench_function(BenchmarkId::new("session", n), |b| {
            b.iter(|| new_mandatory_cycle(&mut session))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_enforce);
criterion_main!(benches);
