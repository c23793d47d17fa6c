//! Work-count gate for durable commits: a one-entry
//! `PersistentSession::commit` must cost the same whatever the length
//! of the journal behind it. A counting global allocator measures the
//! work; allocation counts repeat exactly from run to run, where wall
//! time on a shared host does not.
//!
//! The counter is process-wide, so this binary holds a single test: a
//! second one running on another test thread would add its allocations
//! to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use mmtf::core::{SyncSession, Transformation};
use mmtf::deps::DomIdx;
use mmtf::dist::EditOp;
use mmtf::gen::{feature_workload, FeatureSpec, CF_METAMODEL, FM_METAMODEL};
use mmtf::model::{ObjId, Sym, Value};
use mmtf::store::PersistentSession;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout requirements pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Commits measured at each journal length.
const COMMITS: usize = 100;

/// Mean allocations of a one-entry commit over a journal of `journal`
/// one-attribute edits. The edits alternate two names of equal length,
/// so every WAL record has the same size.
fn allocs_per_commit(t: &Arc<Transformation>, journal: usize, tag: &str) -> f64 {
    let w = feature_workload(FeatureSpec::default());
    let feature = w.fm.class_named("Feature").unwrap();
    let name = w.fm.attr_of(feature, Sym::new("name")).unwrap();
    let (a, b) = (Value::str("alpha"), Value::str("omega"));
    let mut session = SyncSession::new(Arc::clone(t), &w.models).unwrap();
    let rename = |session: &mut SyncSession, i: usize| {
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
    // Feature @0 starts under neither name, so the first edit counts.
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
    let mut counted = 0;
    for i in journal..journal + COMMITS {
        rename(&mut session, i);
        let before = ALLOCS.load(Relaxed);
        store.commit(&session).unwrap();
        counted += ALLOCS.load(Relaxed) - before;
    }
    assert_eq!(session.journal().len(), journal + COMMITS);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    counted as f64 / COMMITS as f64
}

#[test]
fn commit_allocations_do_not_grow_with_the_journal() {
    let t = Arc::new(
        Transformation::from_sources(
            &mmtf::gen::transformation_source(2),
            &[CF_METAMODEL, FM_METAMODEL],
        )
        .unwrap(),
    );
    let short = allocs_per_commit(&t, 20, "short");
    let long = allocs_per_commit(&t, 2000, "long");
    assert!(
        (short - long).abs() < 1.0,
        "a one-entry commit allocates {short} times over 20 entries \
         but {long} times over 2000"
    );
}
