//! EXP-I1: incremental re-checking under point edits vs re-running the
//! whole checkonly evaluation, as the model scale grows. The
//! incremental path should be roughly flat in model size (the edit
//! touches one object), while the full recheck grows with `n`.
//! `tests/work_counts.rs` pins the exact work of the same edit and
//! recheck at the same sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::consistent_workload;
use mmt_check::{Checker, DeltaChecker};
use mmt_deps::DomIdx;
use mmt_dist::EditOp;
use mmt_model::{ObjId, Sym, Value};

/// `MMT_BENCH_XL=1` extends the grid to n = 10⁶ (minutes of workload
/// construction — measured once per PR and recorded in CHANGES.md, not
/// run in CI).
fn xl() -> bool {
    std::env::var_os("MMT_BENCH_XL").is_some_and(|v| v != "0" && !v.is_empty())
}

fn bench_check_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_incremental");
    group.sample_size(10);
    let mut sizes = vec![32usize, 128, 512, 10_000, 100_000];
    if xl() {
        sizes.push(1_000_000);
    }
    for n in sizes {
        let w = consistent_workload(n, 2, 7);
        let fm_feature = w.fm.class_named("Feature").unwrap();
        let mand = w.fm.attr_of(fm_feature, Sym::new("mandatory")).unwrap();
        let fm_idx = w.models.len() - 1;
        let toggle = |flag: bool| EditOp::SetAttr {
            id: ObjId(0),
            attr: mand,
            value: Value::Bool(flag),
            old: Value::Bool(!flag),
        };
        // Baseline: apply the edit, then run a full from-scratch check.
        // Capped at n = 10⁴ — the point of the baseline is the O(n)
        // growth curve, and one six-figure full recheck costs more than
        // the whole incremental grid.
        if n <= 10_000 {
            group.bench_with_input(BenchmarkId::new("full_recheck", n), &w, |b, w| {
                let mut models = w.models.clone();
                let mut flag = false;
                b.iter(|| {
                    flag = !flag;
                    models[fm_idx]
                        .set_attr(ObjId(0), mand, Value::Bool(flag))
                        .unwrap();
                    Checker::new(&w.hir, &models).unwrap().check().unwrap()
                })
            });
        }
        // Incremental: one DeltaChecker absorbs the edit and reports.
        // Built (and warmed with one toggle cycle) OUTSIDE the sample
        // loop: constructing per sample would re-measure first-touch
        // costs — cold caches and the initial slab growth — on every
        // sample, reporting a fresh-checker artifact instead of the
        // steady-state per-edit cost this benchmark is about.
        let mut checker = DeltaChecker::new(&w.hir, &w.models).unwrap();
        checker.apply(DomIdx(fm_idx as u8), &toggle(true)).unwrap();
        checker.apply(DomIdx(fm_idx as u8), &toggle(false)).unwrap();
        group.bench_with_input(BenchmarkId::new("incremental", n), &w, |b, _w| {
            let mut flag = false;
            b.iter(|| {
                flag = !flag;
                checker.apply(DomIdx(fm_idx as u8), &toggle(flag)).unwrap();
                checker.report()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_check_incremental);
criterion_main!(benches);
