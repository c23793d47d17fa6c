//! The workspace's one sync-primitive shim: the interner's `RwLock`, the
//! hub's `Mutex`/`RwLock`, and the `mmt_enforce` fan-out's atomics,
//! mutexes and scoped threads all come from here.
//!
//! Production builds re-export `std` unchanged. Under the `model-check`
//! feature the same names resolve to `loomlite`'s instrumented
//! primitives, so the interleaving model checker (`tests/model_check.rs`
//! at the workspace root) can explore every schedule of the sync stack.
//! Off-model the loomlite types delegate to `std` with identical
//! semantics — including lock poisoning — so the feature is
//! behaviour-preserving for every non-model test.

#[cfg(feature = "model-check")]
pub use loomlite::sync::{atomic, Mutex, MutexGuard, RwLock};
#[cfg(feature = "model-check")]
pub use loomlite::thread;
#[cfg(not(feature = "model-check"))]
pub use std::sync::{atomic, Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "model-check"))]
pub use std::thread;
