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
//!   journal back, so every iteration starts from the same tuple. It
//!   runs up to n = 10 000: the search walks the session's own checker,
//!   so a cycle costs in proportion to the repair, not the tuple.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::{broken_workload, consistent_workload, drift_new_mandatory, paper_transformation};
use mmt_core::{Shape, SyncSession};
use mmt_enforce::{RepairEngine, SatEngine, SearchEngine};
use mmt_gen::Injection;

/// One session cycle: a new mandatory feature in the feature model, a
/// warm repair into the configurations, and a rollback of both.
fn new_mandatory_cycle(session: &mut SyncSession) -> u64 {
    drift_new_mandatory(session);
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
    for n in [30usize, 100, 1000, 10_000] {
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
