//! The work-count gate: exact allocation counts and engine statistics
//! of the benched workloads, pinned in `tests/pins/work_counts.txt`.
//!
//! Wall time on a shared host moves by tens of percent between runs of
//! the same binary; allocation counts and checker statistics repeat
//! exactly, in debug and release alike. So every benched path is
//! replayed here and counted, one line per row, and the rendered text
//! must equal the pin byte for byte. Any increase fails, and so does
//! any decrease until the pin is re-recorded: paste the text the
//! failing test prints into the pin file and give the reason in
//! CHANGES.md.
//!
//! Each row is counted after one warm-up pass of the same work, so
//! first-touch costs (string interning, scratch-buffer growth) do not
//! count. Allocations are counted per thread, so the tests of this
//! binary may run in parallel. The allocator also keeps each thread's
//! live requested bytes, so a row can pin the heap a result holds
//! (`bytes=` on the `open/check` rows: a bigger match state fails the
//! gate by count, as more allocations do).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};

use mmt_bench::{
    broken_workload, c2t_edit, c2t_sources, consistent_workload, drift_new_mandatory,
    edit_and_undo, paper_transformation, parse_c2t, run_cold, run_cold_scenario, run_warm,
    run_warm_scenario, C2T_ATTRS, C2T_EDITS,
};
use mmtf::check::{Checker, DeltaChecker, DeltaStats, EvalStats};
use mmtf::core::{EngineKind, SessionOptions, Shape, SyncSession, Transformation};
use mmtf::deps::DomIdx;
use mmtf::dist::{Delta, EditOp};
use mmtf::enforce::RepairOptions;
use mmtf::gen::scenario::all_scenarios;
use mmtf::gen::{feature_workload, FeatureSpec, Injection, CF_METAMODEL, FM_METAMODEL};
use mmtf::ground::{GroundOptions, GroundProblem};
use mmtf::model::{ObjId, Sym, Value};
use mmtf::store::PersistentSession;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// without a destructor, so bumping it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread requested minus those it freed (a block
    /// freed by another thread than the one that allocated it moves
    /// bytes between their counts). Like `ALLOCS`, never allocates.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `grown` more live bytes.
fn bump(grown: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    track(grown);
}

/// Moves the current thread's live bytes by `grown`.
fn track(grown: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

/// A request size as a byte delta: a block never exceeds `isize::MAX`
/// bytes, so the conversion is exact.
fn bytes(size: usize) -> i64 {
    size as i64
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local integers and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(bytes(layout.size()));
        // SAFETY: the caller's layout requirements pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(bytes(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-bytes(layout.size()));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocs, _, r) = counted_held(f);
    (allocs, r)
}

/// As [`counted`], with the bytes that `f`'s allocations on this thread
/// still hold when it returns: the heap of its result, when `f` frees
/// everything else.
fn counted_held<R>(f: impl FnOnce() -> R) -> (u64, i64, R) {
    let before = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let r = f();
    let after = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    (after.0 - before.0, after.1 - before.1, r)
}

fn delta_fields(d: DeltaStats) -> String {
    format!(
        "edits={} skipped={} partial={} full={}",
        d.edits, d.checks_skipped, d.partial_updates, d.full_reevals
    )
}

fn eval_fields(e: EvalStats) -> String {
    format!(
        "bindings={} probes={} call_hits={} candidates={}",
        e.universal_bindings, e.existential_probes, e.call_hits, e.candidates
    )
}

fn delta_diff(after: DeltaStats, before: DeltaStats) -> DeltaStats {
    DeltaStats {
        edits: after.edits - before.edits,
        checks_skipped: after.checks_skipped - before.checks_skipped,
        partial_updates: after.partial_updates - before.partial_updates,
        full_reevals: after.full_reevals - before.full_reevals,
    }
}

fn eval_diff(after: EvalStats, before: EvalStats) -> EvalStats {
    EvalStats {
        universal_bindings: after.universal_bindings - before.universal_bindings,
        existential_probes: after.existential_probes - before.existential_probes,
        call_hits: after.call_hits - before.call_hits,
        candidates: after.candidates - before.candidates,
    }
}

/// `bench_check_incremental`'s sizes and workload (fm2cfs, k = 2,
/// seed 7); its full re-check stops at 10⁴.
const INCREMENTAL_SIZES: [usize; 5] = [32, 128, 512, 10_000, 100_000];
const FULL_RECHECK_MAX: usize = 10_000;

/// One size of `check_incremental`: the edit pair's allocations and
/// statistics, and the `full_recheck` row if that size is benched.
struct IncrementalSize {
    n: usize,
    allocs: u64,
    delta: DeltaStats,
    eval: EvalStats,
    full_recheck: Option<String>,
}

impl IncrementalSize {
    /// The work the edit pair did, apart from allocating and from the
    /// candidates its witness probes were offered: what must not depend
    /// on `n`. The candidates are the toggled feature's namesakes in the
    /// configurations, which the seeded tuple of each size decides.
    fn work(&self) -> String {
        let e = self.eval;
        format!(
            "{} bindings={} probes={} call_hits={}",
            delta_fields(self.delta),
            e.universal_bindings,
            e.existential_probes,
            e.call_hits
        )
    }
}

/// The bench's edit: toggle `mandatory` on FM feature `@0`, on and
/// off, each followed by a report. Counted on a checker warmed by one
/// such pair, as the bench warms it.
fn measure_incremental(n: usize) -> IncrementalSize {
    let w = consistent_workload(n, 2, 7);
    let feature = w.fm.class_named("Feature").unwrap();
    let mand = w.fm.attr_of(feature, Sym::new("mandatory")).unwrap();
    let fm = DomIdx((w.models.len() - 1) as u8);
    let toggle = |flag: bool| EditOp::SetAttr {
        id: ObjId(0),
        attr: mand,
        value: Value::Bool(flag),
        old: Value::Bool(!flag),
    };
    let pair = |checker: &mut DeltaChecker| {
        for flag in [true, false] {
            checker.apply(fm, &toggle(flag)).unwrap();
            black_box(checker.report());
        }
    };
    let mut checker = DeltaChecker::new(&w.hir, &w.models).unwrap();
    pair(&mut checker);
    let (d0, e0) = (checker.delta_stats(), checker.report().stats);
    let (allocs, ()) = counted(|| pair(&mut checker));
    let delta = delta_diff(checker.delta_stats(), d0);
    let eval = eval_diff(checker.report().stats, e0);
    let full_recheck = (n <= FULL_RECHECK_MAX).then(|| {
        let check = || Checker::new(&w.hir, &w.models).unwrap().check().unwrap();
        check();
        let (allocs, report) = counted(check);
        format!(
            "check_incremental/full_recheck/{n} allocs={allocs} {}",
            eval_fields(report.stats)
        )
    });
    IncrementalSize {
        n,
        allocs,
        delta,
        eval,
        full_recheck,
    }
}

/// Every size, measured once per test binary run.
fn incremental_sizes() -> &'static [IncrementalSize] {
    static SIZES: OnceLock<Vec<IncrementalSize>> = OnceLock::new();
    SIZES.get_or_init(|| INCREMENTAL_SIZES.map(measure_incremental).into())
}

/// The `session_warm` bench: its 16-step script over the consistent
/// `(n, k = 2, seed 53)` tuples, through one warm session and through
/// cold `enforce_with` calls.
fn session_warm_rows(out: &mut String) {
    let t = paper_transformation(2);
    for n in [3usize, 7] {
        let w = consistent_workload(n, 2, 53);
        run_warm(&t, &w.models);
        let (allocs, (cost, session)) = counted(|| run_warm(&t, &w.models));
        let stats = delta_fields(session.checker().delta_stats());
        writeln!(
            out,
            "session_warm/warm/{n} allocs={allocs} cost={cost} {stats}"
        )
        .unwrap();
        run_cold(&t, &w.models);
        let (allocs, cost) = counted(|| run_cold(&t, &w.models));
        writeln!(out, "session_warm/cold/{n} allocs={allocs} cost={cost}").unwrap();
    }
}

/// The `session_warm_scenarios` bench: a generated script (seed 9) over
/// every corpus scenario, warm and cold, plus one `status()` on the
/// warm session it leaves.
fn session_warm_scenario_rows(out: &mut String) {
    for sc in all_scenarios() {
        let name = sc.name();
        let w = sc.workload(9);
        let t = Transformation::from_hir(w.hir.clone());
        let targets = sc.repair_targets();
        run_warm_scenario(&t, &w.models, targets, 9);
        let (allocs, (cost, session)) = counted(|| run_warm_scenario(&t, &w.models, targets, 9));
        let (status_allocs, _) = counted(|| session.status());
        let stats = delta_fields(session.checker().delta_stats());
        writeln!(
            out,
            "session_warm_scenarios/warm/{name} allocs={allocs} cost={cost} \
             status_allocs={status_allocs} {stats}"
        )
        .unwrap();
        run_cold_scenario(&t, &w.models, targets, 9);
        let (allocs, cost) = counted(|| run_cold_scenario(&t, &w.models, targets, 9));
        writeln!(
            out,
            "session_warm_scenarios/cold/{name} allocs={allocs} cost={cost}"
        )
        .unwrap();
    }
}

/// A cost-2 repair of a new mandatory feature (fm2cfs, k = 2, seed 53)
/// into both configurations, through `enforce_with`; the SAT rows add
/// the grounding statistics of the same problem after `solve_min_cost`
/// (the cost-counter columns its rounds built included) and the
/// solver's path through it (its `SolverStats`), so a change to how the
/// CNF is stored must keep both the CNF and the path.
fn repair_rows(out: &mut String) {
    let t = paper_transformation(2);
    let shape = Shape::of(&[0, 1]);
    for (engine, label, n) in [
        (EngineKind::Search, "search", 30usize),
        (EngineKind::Search, "search", 100),
        (EngineKind::Search, "search", 300),
        (EngineKind::Search, "search", 1000),
        (EngineKind::Sat, "sat", 10),
        (EngineKind::Sat, "sat", 30),
        (EngineKind::Sat, "sat", 100),
    ] {
        let w = broken_workload(n, 2, 53, Injection::NewMandatoryInFm);
        let repair = || {
            t.enforce_with(&w.models, shape, engine, RepairOptions::default())
                .unwrap()
                .expect("repairable")
        };
        repair();
        let (allocs, repaired) = counted(repair);
        write!(
            out,
            "repair/{label}/fm{n} allocs={allocs} cost={}",
            repaired.cost
        )
        .unwrap();
        if engine == EngineKind::Sat {
            let targets = shape.checked_targets(w.models.len()).unwrap();
            let mut problem =
                GroundProblem::build(t.hir(), &w.models, targets, GroundOptions::default())
                    .unwrap();
            problem.solve_min_cost().expect("repairable");
            let (g, s) = (problem.stats(), problem.solver_stats());
            write!(
                out,
                " vars={} clauses={} instantiations={} cost_items={} \
                 decisions={} propagations={} conflicts={} restarts={}",
                g.vars,
                g.clauses,
                g.universal_instantiations,
                g.cost_items,
                s.decisions,
                s.propagations,
                s.conflicts,
                s.restarts
            )
            .unwrap();
        }
        out.push('\n');
    }
}

/// One warm repair at scale: the model size, its allocations and cost.
struct WarmRepair {
    n: usize,
    allocs: u64,
    cost: u64,
}

/// One warm cost-2 repair of a new mandatory feature (fm2cfs, k = 2,
/// seed 53, `n` features) by `engine` through a `SyncSession`, counted
/// after a warm-up repair and its rollback.
fn warm_repair(t: &Transformation, engine: EngineKind, n: usize) -> WarmRepair {
    let repair = |session: &mut SyncSession| {
        let out = session.repair(Shape::of(&[0, 1])).unwrap();
        out.expect("repairable").cost
    };
    let w = consistent_workload(n, 2, 53);
    let opts = SessionOptions {
        engine,
        ..SessionOptions::default()
    };
    let mut session = t.session_with(&w.models, opts).unwrap();
    drift_new_mandatory(&mut session);
    repair(&mut session);
    session.rollback(1).unwrap();
    let (allocs, cost) = counted(|| repair(&mut session));
    WarmRepair { n, allocs, cost }
}

/// `bench_enforce_scale`'s `session/n` at scale: [`warm_repair`] by the
/// search; measured once per test binary run.
fn warm_repairs() -> &'static [WarmRepair] {
    static ROWS: OnceLock<Vec<WarmRepair>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let t = paper_transformation(2);
        [1000, 10_000]
            .map(|n| warm_repair(&t, EngineKind::Search, n))
            .into()
    })
}

/// One cold open of `bench_check_scale`'s `open` group: both sides of
/// the class↔RDBMS tuple parsed from text (`mmt_bench::c2t_sources`),
/// then a `DeltaChecker` built over them.
struct Open {
    classes: usize,
    /// Objects per side.
    objects: usize,
    parse_allocs: u64,
    check_allocs: u64,
    /// The heap the opened checker holds: its copy of the tuple, the
    /// model indexes and every check's match state.
    check_bytes: i64,
    eval: EvalStats,
}

fn measure_open(classes: usize) -> Open {
    let (t, sources) = c2t_sources(classes);
    parse_c2t(&t, &sources);
    let (parse_allocs, models) = counted(|| parse_c2t(&t, &sources));
    let open = || DeltaChecker::new(t.hir_arc(), &models).unwrap();
    open();
    let (check_allocs, check_bytes, checker) = counted_held(open);
    Open {
        classes,
        objects: classes * (C2T_ATTRS + 1),
        parse_allocs,
        check_allocs,
        check_bytes,
        eval: checker.report().stats,
    }
}

/// `open` at 10³ and 10⁴ objects per side; measured once per test
/// binary run.
fn opens() -> &'static [Open] {
    static ROWS: OnceLock<Vec<Open>> = OnceLock::new();
    ROWS.get_or_init(|| [100, 1000].map(measure_open).into())
}

/// One C2T edit kind at one size: an edit and its undo through a warm
/// `DeltaChecker`, counted after one warm-up cycle of the same pair.
struct C2tEdit {
    classes: usize,
    kind: &'static str,
    allocs: u64,
    eval: EvalStats,
}

impl C2tEdit {
    /// The counts that must not depend on the model's size.
    fn work(&self) -> (u64, u64, u64) {
        let e = self.eval;
        (e.universal_bindings, e.existential_probes, e.candidates)
    }
}

/// Every [`C2T_EDITS`] kind on the middle class of the C2T tuple over
/// `classes` classes (`mmt_bench::c2t_sources`).
fn measure_c2t_edits(classes: usize) -> Vec<C2tEdit> {
    let (t, sources) = c2t_sources(classes);
    let models = parse_c2t(&t, &sources);
    let mut checker = DeltaChecker::new(t.hir_arc(), &models).unwrap();
    let mut landed = Delta::new();
    C2T_EDITS
        .iter()
        .map(|&kind| {
            let (m, op) = c2t_edit(checker.models(), kind, classes / 2, C2T_ATTRS / 2);
            edit_and_undo(&mut checker, m, &op, &mut landed);
            let before = checker.report().stats;
            let (allocs, ()) = counted(|| edit_and_undo(&mut checker, m, &op, &mut landed));
            assert!(
                checker.consistent(),
                "{kind} and its undo restore the tuple"
            );
            C2tEdit {
                classes,
                kind,
                allocs,
                eval: eval_diff(checker.report().stats, before),
            }
        })
        .collect()
}

/// The C2T edit rows at 10³ and 10⁴ objects per side; measured once per
/// test binary run.
fn c2t_edits() -> &'static [Vec<C2tEdit>] {
    static ROWS: OnceLock<Vec<Vec<C2tEdit>>> = OnceLock::new();
    ROWS.get_or_init(|| [100, 1000].map(measure_c2t_edits).into())
}

/// What rendering a status from the warm checker costs: the report
/// visitor over the C2T tuple of 1 000 classes, consistent and after a
/// class rename (which fails four checks with 20 violations), every
/// field visited and written into a reused buffer, as `mmt serve`
/// renders a status, counted after one warm-up visit. A visitor that
/// renders a field into a `String` of its own fails the pin by count.
struct ReportCost {
    state: &'static str,
    allocs: u64,
    failing_checks: usize,
}

fn measure_reports() -> Vec<ReportCost> {
    let (t, sources) = c2t_sources(1000);
    let models = parse_c2t(&t, &sources);
    let mut session = SyncSession::new(t, &models).unwrap();
    let mut out = String::new();
    let mut measure = |session: &SyncSession, state| {
        let checker = session.checker();
        let mut visit = || {
            out.clear();
            checker.visit_report(|check| {
                write!(out, "{}{}{}", check.relation_name, check.dep, check.holds).unwrap();
                for vars in check.violations() {
                    for (var, value) in vars {
                        write!(out, "{var}{value}").unwrap();
                    }
                }
            });
        };
        visit();
        ReportCost {
            state,
            allocs: counted(visit).0,
            failing_checks: checker.failing_checks().count(),
        }
    };
    let consistent = measure(&session, "consistent");
    let (m, op) = c2t_edit(session.models(), "class_rename", 500, C2T_ATTRS / 2);
    session.apply(m, op).unwrap();
    assert_eq!(session.status().violations, 2 * (C2T_ATTRS + 1));
    vec![consistent, measure(&session, "class_rename")]
}

/// The report rows; measured once per test binary run.
fn report_costs() -> &'static [ReportCost] {
    static ROWS: OnceLock<Vec<ReportCost>> = OnceLock::new();
    ROWS.get_or_init(measure_reports)
}

/// The whole pin text, in a fixed row order.
fn render_work_counts() -> String {
    let mut out = String::new();
    for s in incremental_sizes() {
        writeln!(
            out,
            "check_incremental/incremental/{} allocs={} {} candidates={}",
            s.n,
            s.allocs,
            s.work(),
            s.eval.candidates
        )
        .unwrap();
    }
    for row in incremental_sizes()
        .iter()
        .filter_map(|s| s.full_recheck.as_ref())
    {
        writeln!(out, "{row}").unwrap();
    }
    session_warm_rows(&mut out);
    session_warm_scenario_rows(&mut out);
    repair_rows(&mut out);
    for r in warm_repairs() {
        writeln!(
            out,
            "repair/warm/fm{} allocs={} cost={}",
            r.n, r.allocs, r.cost
        )
        .unwrap();
    }
    // The same repair through a SAT session, which no row above takes.
    let t = paper_transformation(2);
    for n in [10, 30] {
        let r = warm_repair(&t, EngineKind::Sat, n);
        writeln!(
            out,
            "repair/warm_sat/fm{} allocs={} cost={}",
            r.n, r.allocs, r.cost
        )
        .unwrap();
    }
    for o in opens() {
        writeln!(out, "open/parse/c2t{} allocs={}", o.classes, o.parse_allocs).unwrap();
        writeln!(
            out,
            "open/check/c2t{} allocs={} bytes={} {}",
            o.classes,
            o.check_allocs,
            o.check_bytes,
            eval_fields(o.eval)
        )
        .unwrap();
    }
    for e in c2t_edits().iter().flatten() {
        writeln!(
            out,
            "edit/c2t{}/{} allocs={} {}",
            e.classes,
            e.kind,
            e.allocs,
            eval_fields(e.eval)
        )
        .unwrap();
    }
    for r in report_costs() {
        writeln!(out, "report/c2t1000/{} allocs={}", r.state, r.allocs).unwrap();
    }
    for (entries, allocs) in journal_answers() {
        writeln!(out, "journal/answer/{entries} allocs={allocs}").unwrap();
    }
    out
}

#[test]
fn work_counts_match_the_pin() {
    let got = render_work_counts();
    let want = include_str!("pins/work_counts.txt");
    if got != want {
        let mut changed = String::new();
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                writeln!(changed, "  pinned: {w}\n  now:    {g}").unwrap();
            }
        }
        panic!(
            "work counts differ from tests/pins/work_counts.txt\n{changed}\
             If the change is intended, replace the pin with this text and \
             give the reason in CHANGES.md:\n{got}"
        );
    }
}

/// The status an answer renders costs no allocation on a consistent
/// tuple and at most one per failing check (the list its violations
/// are sorted in), however many violations and fields it lists.
#[test]
fn report_allocations_are_at_most_one_per_failing_check() {
    for r in report_costs() {
        assert!(
            r.allocs as usize <= r.failing_checks,
            "{}: {} allocations for {} failing checks",
            r.state,
            r.allocs,
            r.failing_checks
        );
    }
    assert_eq!(report_costs()[0].failing_checks, 0);
    assert_eq!(report_costs()[1].failing_checks, 4);
}

/// O(|edit|) as an assertion: the toggle pair touches the same checks
/// and enumerates the same bindings and probes at every model size, so
/// no re-pin can accept an edit path that grows with the model.
/// (Allocations are held exactly by the pin instead: they grow slowly
/// with `n`.)
#[test]
fn incremental_edit_work_is_flat_in_n() {
    let sizes = incremental_sizes();
    for s in sizes {
        assert_eq!(
            s.work(),
            sizes[0].work(),
            "an edit at n = {} does other work than at n = {}",
            s.n,
            sizes[0].n
        );
    }
    // Flat at zero would prove nothing: the update must count the
    // bindings it re-enumerates and the witnesses it probes.
    let eval = sizes[0].eval;
    assert!(
        eval.universal_bindings > 0 && eval.existential_probes > 0,
        "{}",
        sizes[0].work()
    );
    // Each probe looks the feature's name up in the two configurations,
    // whose features have distinct names.
    for s in sizes {
        assert!(
            s.eval.candidates <= 2 * s.eval.existential_probes,
            "an edit at n = {} is offered {} candidates",
            s.n,
            s.eval.candidates
        );
    }
}

/// O(|edit|) on nested templates, by count: every C2T edit kind and its
/// undo enumerate the same bindings, run the same probes and are offered
/// the same candidates at 10⁴ objects per side as at 10³. An extent
/// scan offers a whole extent, so a pattern matched from its inner end
/// by scanning its outer class fails here, whatever the host's speed.
#[test]
fn c2t_edit_work_is_flat_in_n() {
    let [small, large] = c2t_edits() else {
        unreachable!("two sizes")
    };
    for (s, l) in small.iter().zip(large) {
        assert_eq!(
            s.work(),
            l.work(),
            "{} does other work at {} classes than at {} (bindings, probes, candidates)",
            s.kind,
            l.classes,
            s.classes
        );
        assert!(s.eval.existential_probes > 0, "{} probes nothing", s.kind);
    }
}

/// A warm repair copies nothing of the tuple: the session lends its
/// checker to the search, which journals its path and diffs only the
/// objects the path touched. Ten times the features may cost at most
/// half as many allocations again.
#[test]
fn warm_repair_allocations_do_not_grow_with_n() {
    let [small, large] = warm_repairs() else {
        unreachable!("two sizes")
    };
    assert!(
        large.allocs * 2 <= small.allocs * 3,
        "a warm repair allocates {} times at fm{} but {} times at fm{}",
        small.allocs,
        small.n,
        large.allocs,
        large.n
    );
}

/// A parse allocates per object, not per model: ten times the objects
/// may not cost more allocations per object.
#[test]
fn parse_allocations_per_object_do_not_grow() {
    let [small, large] = opens() else {
        unreachable!("two sizes")
    };
    let per_object = |o: &Open| o.parse_allocs as f64 / (2 * o.objects) as f64;
    assert!(
        per_object(large) <= per_object(small),
        "a parse allocates {:.3} times per object at {} objects per side \
         but {:.3} at {}",
        per_object(small),
        small.objects,
        per_object(large),
        large.objects
    );
}

/// The paper's transformation at k = 2, over the default feature
/// workload's metamodels.
fn feature_transformation() -> Arc<Transformation> {
    Arc::new(
        Transformation::from_sources(
            &mmtf::gen::transformation_source(2),
            &[CF_METAMODEL, FM_METAMODEL],
        )
        .unwrap(),
    )
}

/// A session over the default feature workload, and a function that
/// journals its `i`-th one-attribute edit: a rename of feature `@0`,
/// alternating two names of equal length, so every entry has the same
/// size. Feature `@0` starts under neither name, so the first edit
/// counts.
fn rename_session(t: &Arc<Transformation>) -> (SyncSession, impl Fn(&mut SyncSession, usize)) {
    let w = feature_workload(FeatureSpec::default());
    let feature = w.fm.class_named("Feature").unwrap();
    let name = w.fm.attr_of(feature, Sym::new("name")).unwrap();
    let (a, b) = (Value::str("alpha"), Value::str("omega"));
    let session = SyncSession::new(Arc::clone(t), &w.models).unwrap();
    let rename = move |session: &mut SyncSession, i: usize| {
        let (value, old) = if i.is_multiple_of(2) { (a, b) } else { (b, a) };
        session
            .apply(
                DomIdx(2),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name,
                    value,
                    old,
                },
            )
            .unwrap();
    };
    (session, rename)
}

/// Allocations of one `journal` answer written into a reused buffer, as
/// the CLI's `write_journal` writes it: every model's replay script, op
/// by op from the journal. The journal holds `entries` renames and the
/// three entries of a drift that adds an object and sets two of its
/// attributes.
fn journal_answer_allocs(entries: usize) -> u64 {
    let (mut session, rename) = rename_session(&feature_transformation());
    for i in 0..entries {
        rename(&mut session, i);
    }
    drift_new_mandatory(&mut session);
    assert_eq!(session.journal().len(), entries + 3);
    let mut out = String::new();
    let mut answer = || {
        out.clear();
        let entries = session.journal().len();
        write!(out, "{{\"entries\":{entries},\"script\":[").unwrap();
        for (i, script) in session.replay_scripts().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{script}\"").unwrap();
        }
        out.push_str("]}");
    };
    answer();
    counted(answer).0
}

/// The journal rows; measured once per test binary run.
fn journal_answers() -> &'static [(usize, u64)] {
    static ROWS: OnceLock<Vec<(usize, u64)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        [100, 1000]
            .into_iter()
            .map(|n| (n, journal_answer_allocs(n)))
            .collect()
    })
}

/// A journal answer allocates nothing per entry: it is written from the
/// journal itself, with no per-model copy of its ops.
#[test]
fn journal_answers_allocate_nothing_per_entry() {
    for &(entries, allocs) in journal_answers() {
        assert_eq!(allocs, 0, "a journal answer over {entries} entries");
    }
}

/// Mean allocations of a one-entry commit over a journal of `journal`
/// one-attribute edits, all of one size.
fn allocs_per_commit(t: &Arc<Transformation>, journal: usize, tag: &str) -> f64 {
    /// Commits measured at each journal length.
    const COMMITS: usize = 100;
    let (mut session, rename) = rename_session(t);
    for i in 0..journal {
        rename(&mut session, i);
    }
    assert_eq!(session.journal().len(), journal);

    let dir = std::env::temp_dir().join(format!(
        "mmt-store-commit-cost-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = PersistentSession::create(&dir, &session).unwrap();
    let mut total = 0;
    for i in journal..journal + COMMITS {
        rename(&mut session, i);
        total += counted(|| store.commit(&session).unwrap()).0;
    }
    assert_eq!(session.journal().len(), journal + COMMITS);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    total as f64 / COMMITS as f64
}

/// A one-entry `PersistentSession::commit` costs the same whatever the
/// length of the journal behind it.
#[test]
fn commit_allocations_do_not_grow_with_the_journal() {
    let t = feature_transformation();
    let short = allocs_per_commit(&t, 20, "short");
    let long = allocs_per_commit(&t, 2000, "long");
    assert!(
        (short - long).abs() < 1.0,
        "a one-entry commit allocates {short} times over 20 entries \
         but {long} times over 2000"
    );
}
