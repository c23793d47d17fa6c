//! EXP-F4 (§2): checking wall-time vs workload size, with the
//! dependency-direction ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::{c2t_sources, consistent_workload, paper_transformation, parse_c2t, C2T_ATTRS};
use mmt_check::DeltaChecker;
use mmt_core::Transformation;
use mmt_gen::scenario::all_scenarios;

fn bench_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("check");
    group.sample_size(20);
    for (k, n) in [(2usize, 32usize), (2, 128), (3, 32), (4, 32)] {
        let t = paper_transformation(k);
        let std_t = t.standardized();
        let w = consistent_workload(n, k, 13);
        group.bench_with_input(
            BenchmarkId::new("extended", format!("k{k}_n{n}")),
            &w,
            |b, w| b.iter(|| t.check(&w.models).unwrap().consistent()),
        );
        group.bench_with_input(
            BenchmarkId::new("standard", format!("k{k}_n{n}")),
            &w,
            |b, w| b.iter(|| std_t.check(&w.models).unwrap().consistent()),
        );
    }
    group.finish();
}

/// Six-figure models (ISSUE 9): full-check wall time at n = 10⁴ and
/// 10⁵ (k = 2), tracking that building and holding a big tuple stays
/// cheap — the per-edit incremental figures live in
/// `bench_check_incremental`. `MMT_BENCH_XL=1` adds n = 10⁶ (measured
/// once per PR and recorded in CHANGES.md, not run in CI).
fn bench_check_scale_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_scale_large");
    group.sample_size(10);
    let mut sizes = vec![10_000usize, 100_000];
    let xl = std::env::var_os("MMT_BENCH_XL").is_some_and(|v| v != "0" && !v.is_empty());
    if xl {
        sizes.push(1_000_000);
    }
    let t = paper_transformation(2);
    for n in sizes {
        let w = consistent_workload(n, 2, 13);
        group.bench_with_input(
            BenchmarkId::new("extended", format!("k2_n{n}")),
            &w,
            |b, w| b.iter(|| t.check(&w.models).unwrap().consistent()),
        );
    }
    group.finish();
}

/// Checking wall-time per corpus scenario (ISSUE 7): the same
/// full-check measurement over every `Scenario`'s seeded consistent
/// tuple, so a checker regression localized to one metamodel shape
/// (reference-heavy class↔RDBMS vs attribute-only Company HR) shows up
/// by name.
fn bench_check_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_scenarios");
    group.sample_size(20);
    for sc in all_scenarios() {
        let w = sc.workload(13);
        let t = Transformation::from_hir(w.hir.clone());
        assert!(t.check(&w.models).unwrap().consistent(), "{}", sc.name());
        group.bench_with_input(BenchmarkId::new("check", sc.name()), &w, |b, w| {
            b.iter(|| t.check(&w.models).unwrap().consistent())
        });
    }
    group.finish();
}

/// A cold open, as `mmt sync`, `mmt serve` `open` and store recovery
/// pay it before their first edit: parse servebench's class↔RDBMS tuple
/// from text (`parse`), then build the incremental checker over it
/// (`check`), at 10⁴ and 10⁵ objects per side. The work-count gate pins
/// the allocations of both at 10³ and 10⁴.
fn bench_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("open");
    group.sample_size(10);
    for classes in [1_000usize, 10_000] {
        let (t, sources) = c2t_sources(classes);
        let label = format!("c2t_{}", classes * (C2T_ATTRS + 1));
        group.bench_with_input(BenchmarkId::new("parse", &label), &sources, |b, s| {
            b.iter(|| parse_c2t(&t, s))
        });
        let models = parse_c2t(&t, &sources);
        group.bench_with_input(BenchmarkId::new("check", &label), &models, |b, m| {
            b.iter(|| DeltaChecker::new(t.hir_arc(), m).unwrap().consistent())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_check,
    bench_check_scale_large,
    bench_check_scenarios,
    bench_open
);
criterion_main!(benches);
