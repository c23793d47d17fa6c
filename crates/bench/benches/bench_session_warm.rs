//! EXP-S1 (ISSUE 4): warm sessions vs cold enforcement over an
//! edit→check→repair loop.
//!
//! Both drivers execute the *same* deterministic 16-step script (5
//! drift actions interleaved with 11 repair checkpoints) on the n=3
//! and n=7 scenario tuples (the consistent `(n, k=2, seed=53)`
//! workloads the enforce benches inject into):
//!
//! * `cold` — the stateless loop: drift lands on a plain model tuple
//!   and every checkpoint calls `Transformation::enforce_with`, which
//!   rebuilds the full checking state from scratch;
//! * `warm` — one `SyncSession`: the cold start happens once (inside
//!   the measured iteration), then every edit is an O(|edit|)
//!   incremental update and every checkpoint lends the warm checker
//!   to the engine (`RepairEngine::repair_in_place`), which repairs it
//!   where it stands.
//!
//! The 16 steps are 5 drift actions and 11 repair checkpoints,
//! modelling synchronization *traffic* rather than catastrophe: every
//! request that touches the tuple re-establishes consistency before
//! committing, so most checkpoints hit an already-consistent tuple
//! (cost-0 repair — the warm session answers from its cache, the cold
//! loop rebuilds the world to learn nothing changed). Three drifts are
//! benign (the feature model gains/renames an optional feature nothing
//! selects), two are breaking (a configuration selects a feature
//! unknown to the feature model; least-change repair deletes it,
//! cost 1). Repair searches are byte-identical in both loops (the
//! differential suite proves it; the bench asserts equal outcomes up
//! front), so the measured gap is exactly the per-checkpoint cold
//! start the session amortizes away. The ISSUE 4 bar: warm beats cold
//! by ≥ 2× amortized per repair on the n=7 scenario.
//!
//! The script and both loops live in `mmt_bench`, so
//! `tests/work_counts.rs` replays exactly these steps when it pins
//! their allocation counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmt_bench::{
    consistent_workload, paper_transformation, run_cold, run_cold_scenario, run_warm,
    run_warm_scenario,
};
use mmt_core::Transformation;
use mmt_gen::scenario::all_scenarios;

/// EXP-S1 per corpus scenario (ISSUE 7): the warm-vs-cold gap on every
/// `Scenario`'s seeded tuple under a generated drift script. Both
/// loops must agree on the summed repair cost before either is timed.
fn bench_session_warm_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_warm_scenarios");
    group.sample_size(10);
    for sc in all_scenarios() {
        let w = sc.workload(9);
        let t = Transformation::from_hir(w.hir.clone());
        let targets = sc.repair_targets();
        let (warm, _) = run_warm_scenario(&t, &w.models, targets, 9);
        let cold = run_cold_scenario(&t, &w.models, targets, 9);
        assert_eq!(warm, cold, "{}: warm and cold loops diverged", sc.name());
        group.bench_with_input(BenchmarkId::new("warm", sc.name()), &w, |b, w| {
            b.iter(|| run_warm_scenario(&t, &w.models, targets, 9))
        });
        group.bench_with_input(BenchmarkId::new("cold", sc.name()), &w, |b, w| {
            b.iter(|| run_cold_scenario(&t, &w.models, targets, 9))
        });
    }
    group.finish();
}

fn bench_session_warm(c: &mut Criterion) {
    let t = paper_transformation(2);
    let mut group = c.benchmark_group("session_warm");
    group.sample_size(10);
    for n in [3usize, 7] {
        let w = consistent_workload(n, 2, 53);
        // The two loops must agree before either is worth timing: two
        // breaking drifts, each repaired at cost 1.
        assert_eq!(run_warm(&t, &w.models).0, 2);
        assert_eq!(run_cold(&t, &w.models), 2);
        group.bench_with_input(BenchmarkId::new("warm", n), &w, |b, w| {
            b.iter(|| run_warm(&t, &w.models))
        });
        group.bench_with_input(BenchmarkId::new("cold", n), &w, |b, w| {
            b.iter(|| run_cold(&t, &w.models))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_session_warm, bench_session_warm_scenarios);
criterion_main!(benches);
