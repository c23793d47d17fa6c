//! EXP-P1: the parallel repair layer — `repair_batch` over a 32-request
//! batch with a 1/2/4-worker ablation. Results are bit-identical across
//! every worker count (asserted by `tests/parallel_differential.rs`);
//! this bench measures only wall-clock. On a single-core container the
//! ablation degenerates to ~1×, so quote the numbers together with the
//! machine's core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::{broken_workload, paper_transformation};
use mmt_core::Shape;
use mmt_enforce::{RepairEngine, RepairRequest, SearchEngine};
use mmt_gen::Injection;

fn requests_32() -> Vec<RepairRequest> {
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 1 },
    ];
    (0..32u64)
        .map(|i| {
            let injection = injections[(i % 4) as usize];
            let w = broken_workload(4 + (i as usize % 3), 2, i * 7 + 1, injection);
            RepairRequest {
                models: w.models,
                targets: Shape::all(3).targets(),
            }
        })
        .collect()
}

fn bench_repair_parallel(c: &mut Criterion) {
    let t = paper_transformation(2);
    let requests = requests_32();
    let mut group = c.benchmark_group("repair_parallel");
    group.sample_size(10);
    // Batch fan-out: 32 independent requests across 1/2/4 workers.
    let engine = SearchEngine::default();
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("batch32", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let outs = engine.repair_batch(t.hir_arc(), &requests, jobs);
                assert!(outs.iter().all(|o| o.is_ok()));
                outs.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair_parallel);
criterion_main!(benches);
