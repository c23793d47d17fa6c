//! EXP-I1: incremental re-checking under point edits vs re-running the
//! whole checkonly evaluation, as the model scale grows. The
//! incremental path should be roughly flat in model size (the edit
//! touches one object), while the full recheck grows with `n`.
//! `tests/work_counts.rs` pins the exact work of the same edit and
//! recheck at the same sizes. The `check_incremental_c2t` group does
//! the same for nested templates: an attribute unlink and an attribute
//! rename on the class↔RDBMS tuple, each with its undo, at 10³–10⁵
//! objects per side (the work-count pin's `edit/c2t*` rows count them
//! at 10³ and 10⁴).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::{c2t_edit, c2t_sources, consistent_workload, edit_and_undo, parse_c2t, C2T_ATTRS};
use mmt_check::{Checker, DeltaChecker};
use mmt_deps::DomIdx;
use mmt_dist::{Delta, EditOp};
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

/// One servebench cycle without the session: a nested-template edit on
/// the middle class of the C2T tuple, then its undo, through a warm
/// checker.
fn bench_check_incremental_c2t(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_incremental_c2t");
    group.sample_size(10);
    for classes in [100usize, 1000, 10_000] {
        let objects = classes * (C2T_ATTRS + 1);
        let (t, sources) = c2t_sources(classes);
        let mut checker = DeltaChecker::new(t.hir_arc(), &parse_c2t(&t, &sources)).unwrap();
        let mut landed = Delta::new();
        for kind in ["attr_unlink", "attr_rename"] {
            let (m, op) = c2t_edit(checker.models(), kind, classes / 2, C2T_ATTRS / 2);
            edit_and_undo(&mut checker, m, &op, &mut landed);
            group.bench_with_input(BenchmarkId::new(kind, objects), &op, |b, op| {
                b.iter(|| edit_and_undo(&mut checker, m, op, &mut landed))
            });
            assert!(
                checker.consistent(),
                "{kind} and its undo restore the tuple"
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_check_incremental,
    bench_check_incremental_c2t
);
criterion_main!(benches);
