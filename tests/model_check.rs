//! Exhaustive interleaving exploration of the sync stack (ISSUE 10).
//!
//! Compiled only under `--features model-check`, which swaps the hub's,
//! interner's, and fan-out's primitives for loomlite's instrumented ones
//! (see `mmt_model::mmt_sync`).  Each test explores *every* schedule
//! reachable with the default preemption bound and asserts an invariant in
//! all of them; `seeded_*` tests plant a known bug in a local replica of the
//! pattern and assert the checker reports it (failing-before evidence that
//! the exploration has teeth).
//!
//! Run with `cargo test --features model-check --test model_check --
//! --nocapture` to see per-test interleaving counts.
#![cfg(feature = "model-check")]

use std::sync::Arc;

use loomlite::sync::atomic::{AtomicUsize, Ordering};
use loomlite::sync::{Mutex, RwLock};
use loomlite::thread;
use mmtf::core::{HubError, SyncHub, SyncSession, Transformation};
use mmtf::gen::{feature_workload, FeatureSpec, SessionScriptGen, SessionStep};
use mmtf::model::{Model, Sym};
use mmtf::prelude::{DomIdx, DomSet};

/// Tiny shared fixture, built *outside* the model closures so parsing and
/// interning (hundreds of uninteresting lock ops) stay off-model.
fn fixture() -> (Arc<Transformation>, Arc<Vec<Model>>) {
    let t = Transformation::from_sources(
        &mmtf::gen::transformation_source(2),
        &[mmtf::gen::CF_METAMODEL, mmtf::gen::FM_METAMODEL],
    )
    .expect("fixture spec parses");
    let w = feature_workload(FeatureSpec {
        n_features: 2,
        ..FeatureSpec::default()
    });
    (Arc::new(t), Arc::new(w.models))
}

/// A copy of a session's tuple. Compared with [`same_tuple`], by object
/// graph and id bound: unlike printing, that reads no interned string,
/// so it adds no schedule points.
fn tuple(s: &mut SyncSession) -> Vec<Model> {
    s.models().to_vec()
}

fn same_tuple(a: &[Model], b: &[Model]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.graph_eq(y) && x.id_bound() == y.id_bound())
}

#[test]
fn racing_opens_resolve_to_one_winner() {
    let (t, models) = fixture();
    let iters = loomlite::explore(move || {
        let hub = Arc::new(SyncHub::new());
        hub.register("t", Arc::clone(&t)).expect("fresh registry");
        let mut handles = Vec::new();
        for _ in 0..2 {
            let hub = Arc::clone(&hub);
            let models = Arc::clone(&models);
            handles.push(thread::spawn(move || hub.open("s", "t", &models).is_ok()));
        }
        let wins: Vec<bool> = handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect();
        if wins.iter().filter(|&&w| w).count() != 1 {
            loomlite::fail("racing opens must produce exactly one winner");
        }
        if hub.len() != 1 {
            loomlite::fail("exactly one session registered after the race");
        }
    });
    println!("racing_opens_resolve_to_one_winner: {iters} interleavings");
}

#[test]
fn close_while_with_keeps_the_session_usable() {
    let (t, models) = fixture();
    let iters = loomlite::explore(move || {
        let hub = Arc::new(SyncHub::new());
        hub.register("t", Arc::clone(&t)).expect("fresh registry");
        let handle = hub.open("s", "t", &models).expect("open");
        let reference = handle.with(tuple);
        let hub2 = Arc::clone(&hub);
        let closer = thread::spawn(move || hub2.close("s").is_ok());
        // The client keeps using its handle while the hub drops the slot.
        let seen = handle.with(tuple);
        let closed = closer.join().expect("no panics");
        if !closed {
            loomlite::fail("close must find the open session");
        }
        if !same_tuple(&seen, &reference) {
            loomlite::fail("session state corrupted by a concurrent close");
        }
        if hub.get("s").is_ok() {
            loomlite::fail("closed session still resolvable by name");
        }
    });
    println!("close_while_with_keeps_the_session_usable: {iters} interleavings");
}

#[test]
fn registration_is_atomic() {
    let (t, _) = fixture();
    let iters = loomlite::explore(move || {
        let hub = Arc::new(SyncHub::new());
        let hub2 = Arc::clone(&hub);
        let t2 = Arc::clone(&t);
        let writer = thread::spawn(move || {
            hub2.register("t", t2).expect("fresh registry");
        });
        // register() publishes the transformation and its lint report as
        // one registry entry: a reader sees both or neither, in either
        // read order.
        let report_seen = hub.lint_report("t").is_ok();
        let t_seen = hub.transformation("t").is_ok();
        if report_seen && !t_seen {
            loomlite::fail("lint report visible before its transformation");
        }
        let t_seen = hub.transformation("t").is_ok();
        let report_seen = hub.lint_report("t").is_ok();
        if t_seen && !report_seen {
            loomlite::fail("transformation visible without its lint report");
        }
        writer.join().expect("no panics");
        if hub.lint_report("t").is_err() || hub.transformation("t").is_err() {
            loomlite::fail("registration must be complete after join");
        }
    });
    println!("registration_is_atomic: {iters} interleavings");
}

#[test]
fn snapshot_enumeration_vs_live_edit_sees_consistent_states() {
    let (t, models) = fixture();
    let iters = loomlite::explore(move || {
        let hub = Arc::new(SyncHub::new());
        hub.register("t", Arc::clone(&t)).expect("fresh registry");
        let handle = hub.open("s", "t", &models).expect("open");
        let before = handle.with(tuple);
        let editor_handle = Arc::clone(&handle);
        let editor = thread::spawn(move || {
            editor_handle.with(|s| {
                let targets = DomSet::from_iter([DomIdx(0), DomIdx(1)]);
                let mut gen = SessionScriptGen::new(targets, 3, 42);
                loop {
                    match gen.next_step(s.models()) {
                        SessionStep::Edit { model, op } => {
                            s.apply(model, op).expect("edit applies");
                            break;
                        }
                        SessionStep::Repair { .. } => continue,
                    }
                }
                tuple(s)
            })
        });
        // A registry walk: list the names, then look up and lock each;
        // a name closed between the two calls is gone.
        let mut snapshot = Vec::new();
        for name in hub.list() {
            if let Ok(h) = hub.get(&name) {
                snapshot.push(h.with(tuple));
            }
        }
        let after = editor.join().expect("no panics");
        // Each snapshotted tuple is the pre- or post-edit state, never a
        // torn intermediate.
        for seen in snapshot {
            if !same_tuple(&seen, &before) && !same_tuple(&seen, &after) {
                loomlite::fail("snapshot observed a torn session state");
            }
        }
    });
    println!("snapshot_enumeration_vs_live_edit_sees_consistent_states: {iters} interleavings");
}

#[test]
fn snapshot_enumeration_vs_concurrent_open() {
    let (t, models) = fixture();
    let iters = loomlite::explore(move || {
        let hub = Arc::new(SyncHub::new());
        hub.register("t", Arc::clone(&t)).expect("fresh registry");
        hub.open("s1", "t", &models).expect("open s1");
        let hub2 = Arc::clone(&hub);
        let models2 = Arc::clone(&models);
        let opener = thread::spawn(move || {
            hub2.open("s2", "t", &models2).expect("open s2");
        });
        // A registry walk racing the open: the walk must see a
        // clean prefix of the registry (1 or 2 sessions), look up and
        // lock each listed handle without deadlock, and never observe a
        // half-inserted slot. Nothing closes here, so every listed name
        // is still there when it is looked up.
        let seen = hub.list();
        if seen.is_empty() || seen.len() > 2 {
            loomlite::fail("enumeration saw an impossible session count");
        }
        for name in &seen {
            match hub.get(name) {
                Ok(h) => {
                    let _ = h.with(|s| s.status());
                }
                Err(_) => loomlite::fail("a listed session vanished"),
            }
        }
        opener.join().expect("no panics");
        if hub.len() != 2 {
            loomlite::fail("both sessions must exist after join");
        }
    });
    println!("snapshot_enumeration_vs_concurrent_open: {iters} interleavings");
}

#[test]
fn pooled_map_fan_out_fills_every_slot_in_order() {
    let iters = loomlite::explore(|| {
        let items = [10usize, 20, 30];
        let out = mmtf::enforce::pooled_map_modeled(&items, 2, |i, &x| (i, x * 2));
        if out != vec![(0, 20), (1, 40), (2, 60)] {
            loomlite::fail("fan-out lost or reordered a slot write");
        }
    });
    println!("pooled_map_fan_out_fills_every_slot_in_order: {iters} interleavings");
}

#[test]
fn interner_races_yield_one_symbol_per_string() {
    let iters = loomlite::explore(|| {
        let mut handles = Vec::new();
        for _ in 0..2 {
            handles.push(thread::spawn(|| Sym::new("model-check-race-probe")));
        }
        let syms: Vec<Sym> = handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect();
        if syms[0] != syms[1] {
            loomlite::fail("racing interns of one string produced distinct symbols");
        }
        if Sym::new("model-check-race-probe") != syms[0] {
            loomlite::fail("later intern disagrees with the raced winner");
        }
    });
    println!("interner_races_yield_one_symbol_per_string: {iters} interleavings");
}

/// A lookup racing the first intern of its string sees the string
/// either absent or under the one symbol the intern returns, never a
/// second one, and a lookup never inserts.
#[test]
fn lookup_racing_intern_sees_none_or_the_winner() {
    let iters = loomlite::explore(|| {
        let looker = thread::spawn(|| Sym::lookup("model-check-lookup-probe"));
        let interned = Sym::new("model-check-lookup-probe");
        let seen = looker.join().expect("no panics");
        if seen.is_some_and(|s| s != interned) {
            loomlite::fail("a lookup saw a symbol the intern did not return");
        }
        if Sym::lookup("model-check-lookup-probe") != Some(interned) {
            loomlite::fail("a later lookup misses the interned string");
        }
        if Sym::lookup("model-check-lookup-never-interned").is_some() {
            loomlite::fail("a lookup inserted its string");
        }
    });
    println!("lookup_racing_intern_sees_none_or_the_winner: {iters} interleavings");
}

// ---------------------------------------------------------------------------
// Seeded-bug selftests: plant the bug the discipline forbids in a local
// replica of the hub pattern and assert the checker *reports* it.  These are
// the failing-before tests: delete the discipline and this is what the
// model checker would say about the real hub.
// ---------------------------------------------------------------------------

/// A hub replica with the lock-order inversion LC1 forbids: `close` takes
/// the registry write lock and *then* the session mutex, while clients take
/// the session mutex and then the registry read lock.
struct BuggyHub {
    registry: RwLock<Vec<&'static str>>,
    session: Mutex<u32>,
}

#[test]
fn seeded_lock_order_inversion_is_caught() {
    let res = loomlite::check(|| {
        let hub = Arc::new(BuggyHub {
            registry: RwLock::new(vec!["s"]),
            session: Mutex::new(0),
        });
        let hub2 = Arc::clone(&hub);
        let closer = thread::spawn(move || {
            // BUG: registry write guard spans the session lock (LC1/LC2).
            let mut reg = hub2.registry.write().expect("registry");
            let mut s = hub2.session.lock().expect("session");
            *s += 1;
            reg.pop();
        });
        {
            // Client order: session first, then registry — the inversion.
            let s = hub.session.lock().expect("session");
            let reg = hub.registry.read().expect("registry");
            let _ = (*s, reg.len());
        }
        closer.join().expect("no panics");
    });
    let msg = res.expect_err("the seeded inversion must deadlock some schedule");
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn seeded_lost_violation_count_is_caught() {
    // The S1 regression fix keeps per-check violation counters; this is the
    // buggy version of that bookkeeping (unsynchronised read-modify-write).
    // The checker must find the schedule where one increment is lost.
    let res = loomlite::check(|| {
        let violations = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let v = Arc::clone(&violations);
            handles.push(thread::spawn(move || {
                let seen = v.load(Ordering::SeqCst);
                v.store(seen + 1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        if violations.load(Ordering::SeqCst) != 2 {
            loomlite::fail("violation count lost an update");
        }
    });
    let msg = res.expect_err("the seeded lost update must be found");
    assert!(msg.contains("lost an update"), "unexpected failure: {msg}");
}

/// Duplicate-session errors must come out of the race loser, exercised via
/// the typed error (not just `is_ok`), pinning the public contract.
#[test]
fn race_loser_gets_duplicate_session_error() {
    let (t, models) = fixture();
    let iters = loomlite::explore(move || {
        let hub = Arc::new(SyncHub::new());
        hub.register("t", Arc::clone(&t)).expect("fresh registry");
        let hub2 = Arc::clone(&hub);
        let models2 = Arc::clone(&models);
        let racer = thread::spawn(move || hub2.open("s", "t", &models2));
        let mine = hub.open("s", "t", &models);
        let theirs = racer.join().expect("no panics");
        match (&mine, &theirs) {
            (Ok(_), Err(HubError::DuplicateSession(name)))
            | (Err(HubError::DuplicateSession(name)), Ok(_)) => {
                if name != "s" {
                    loomlite::fail("duplicate-session error names the wrong session");
                }
            }
            _ => loomlite::fail("expected exactly one winner and one DuplicateSession"),
        }
    });
    println!("race_loser_gets_duplicate_session_error: {iters} interleavings");
}
