//! # mmt-store — durable sessions: write-ahead journal and crash recovery
//!
//! A [`mmt_core::SyncSession`] already keeps the one artifact worth
//! persisting: its **journal** of expanded, exactly invertible entries,
//! whose replay over the seed tuple reproduces the live tuple byte for
//! byte. This crate turns that invariant into a storage subsystem:
//!
//! * [`PersistentSession`] — one session on disk: the tuple it was
//!   opened over as model text (`seed/<i>.model`, which keeps object
//!   ids and the id bound), each file's FNV-1a checksum in the
//!   `mmt-store 2` manifest, plus a **write-ahead log** with one
//!   length-prefixed, CRC-checksummed record per journal entry, fsynced
//!   at every commit point;
//! * [`PersistentSession::open`] — crash recovery: the seed is checked
//!   against its checksums and reloaded with
//!   [`mmt_model::text::parse_model`], the committed WAL prefix is
//!   replayed into a warm
//!   [`DeltaChecker`](mmt_core::SyncSession::checker) via
//!   [`mmt_core::SyncSession::replay_entry`], and the recovered session's
//!   tuple, status and journal are identical to the session that
//!   crashed (a torn tail — a record cut mid-write — is dropped, because
//!   it was never acknowledged as committed);
//! * [`HubStore`] — whole-hub snapshot/restore for
//!   [`mmt_core::SyncHub`]: seed tuples + journals per session, plus a
//!   registry manifest mapping session names to transformation ids.
//!
//! ## Recovery ≡ replay, and the "no third outcome" contract
//!
//! Journal entries are fixpoints of the session's own edit expansion
//! (`SetAttr` old-values normalized, deletions pre-expanded), so
//! replaying them verbatim drives the incremental checker through
//! *exactly* the states the original session went through. Recovery therefore has only two outcomes:
//!
//! 1. the longest committed WAL prefix replays cleanly and the session
//!    is byte-identical to an uninterrupted session at that prefix, or
//! 2. a typed [`StoreError`] (corruption, short read, version or spec
//!    mismatch) — never a silently diverged session. A seed file whose
//!    checksum differs from the manifest's is corruption too, and a
//!    store of another format version (such as `mmt-store 1`, whose
//!    seeds were op scripts) is [`StoreError::Version`].
//!
//! The fault-injection harness (`tests/store_crash.rs` at the workspace
//! root) pins this down by cutting the WAL at every record boundary and
//! at mid-record offsets, and by flipping bytes of the WAL and of a
//! seed file.

mod codec;
mod hub;
mod session;
mod wal;

pub use codec::{parse_entry, render_entry};
pub use hub::{read_hub_manifest, write_hub_manifest, HubStore};
pub use session::PersistentSession;

use mmt_core::{CoreError, HubError, Transformation};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Typed errors of the durable-store layer, chained via
/// [`std::error::Error::source`] where an underlying error exists.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure on `path`.
    Io {
        /// File or directory the operation touched.
        path: PathBuf,
        /// The underlying I/O error (chained via `source()`).
        source: io::Error,
    },
    /// A store file too short to even carry its format header.
    ShortRead {
        /// The truncated file.
        path: PathBuf,
        /// Its actual length in bytes.
        len: u64,
    },
    /// A store file whose format header names a different (or no)
    /// version of the on-disk format.
    Version {
        /// The offending file.
        path: PathBuf,
        /// What its header said.
        found: String,
    },
    /// A committed record (or store file body) that fails its checksum
    /// or does not parse — evidence of mid-file corruption, as opposed
    /// to a torn tail (which recovery drops silently by design).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the corrupt record or line.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// The store was written against a different transformation (spec
    /// hash or arity mismatch) than the one it is being opened with.
    SpecMismatch {
        /// The manifest that recorded the original spec.
        path: PathBuf,
        /// Spec fingerprint of the transformation supplied at open.
        expected: String,
        /// Spec fingerprint the store recorded.
        found: String,
    },
    /// A session name unusable as a store directory component.
    InvalidName(String),
    /// The in-memory session layer failed (e.g. the cold-start check
    /// while reopening a seed tuple).
    Core(CoreError),
    /// A committed WAL record refused to replay over the recovered
    /// state — the store is internally inconsistent.
    Replay {
        /// Zero-based index of the record that failed.
        record: usize,
        /// The session-layer error it failed with.
        source: CoreError,
    },
    /// The hub registry rejected a restore (unknown transformation id,
    /// duplicate session name).
    Hub(HubError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::ShortRead { path, len } => write!(
                f,
                "{}: short read: {len} bytes is too short for a store header",
                path.display()
            ),
            StoreError::Version { path, found } => write!(
                f,
                "{}: unsupported store format (found {found:?})",
                path.display()
            ),
            StoreError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "{}: corrupt record at byte {offset}: {detail}",
                path.display()
            ),
            StoreError::SpecMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: store was written for spec {found}, but the supplied transformation is {expected}",
                path.display()
            ),
            StoreError::InvalidName(name) => write!(
                f,
                "invalid session name {name:?}: must be non-empty and contain no path separators"
            ),
            StoreError::Core(e) => write!(f, "session layer: {e}"),
            StoreError::Replay { record, source } => {
                write!(f, "WAL record {record} refused to replay: {source}")
            }
            StoreError::Hub(e) => write!(f, "hub registry: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Core(e) => Some(e),
            StoreError::Replay { source, .. } => Some(source),
            StoreError::Hub(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<HubError> for StoreError {
    fn from(e: HubError) -> Self {
        StoreError::Hub(e)
    }
}

pub(crate) fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// FNV-1a 64-bit — the same dependency-free hash family the rest of the
/// workspace uses for fingerprints.
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A stable fingerprint of a transformation's *specification*: the
/// printed resolved HIR plus every parameter metamodel. A store records
/// it at creation and refuses to recover under a transformation whose
/// fingerprint differs ([`StoreError::SpecMismatch`]) — replaying a
/// journal against a different spec would not be recovery but silent
/// divergence.
pub fn spec_fingerprint(t: &Transformation) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, mmt_qvtr::print_hir(t.hir()).as_bytes());
    for meta in t.metamodels() {
        fnv1a(&mut h, &[0]);
        fnv1a(&mut h, mmt_model::text::print_metamodel(meta).as_bytes());
    }
    format!("{h:016x}")
}

/// Best-effort directory fsync (so a freshly created store survives a
/// crash of the *directory* metadata, not just the file contents).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    match std::fs::File::open(dir) {
        Ok(f) => f.sync_all().map_err(|e| io_err(dir, e)),
        Err(e) => Err(io_err(dir, e)),
    }
}
