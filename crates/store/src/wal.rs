//! The write-ahead log file format.
//!
//! ```text
//! MMTWAL1\n                      8-byte magic + format version
//! [u32 len][u32 crc32][payload]  one record per journal entry
//! ...
//! ```
//!
//! Integers are little-endian; `crc32` (IEEE) covers the payload bytes;
//! payloads are UTF-8 journal-entry texts ([`crate::render_entry`]).
//! A record becomes *committed* when the file is fsynced past it — the
//! commit points are [`Wal::sync`] calls, one per
//! [`crate::PersistentSession::commit`].
//!
//! Recovery semantics ([`Wal::open`]):
//!
//! * a clean end (file ends exactly at a record boundary) — all records
//!   are returned;
//! * a **torn tail** (fewer bytes than a record header, or a payload
//!   shorter than its declared length) — the tail is dropped and the
//!   file truncated back to the last boundary: the longest committed
//!   prefix, by the crash model (appends only ever grow the file, and
//!   the final fsync of the previous commit covered everything before);
//! * a record that is *complete* but fails its checksum or does not
//!   decode — [`StoreError::Corrupt`]: mid-file damage is never
//!   silently skipped or truncated away.
//! * a missing/short/foreign magic — [`StoreError::ShortRead`] /
//!   [`StoreError::Version`].

use crate::{io_err, StoreError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MMTWAL1\n";
const HEADER: u64 = 8;

/// CRC-32 (IEEE 802.3), bitwise — no tables, no dependencies; WAL
/// records are small and rare enough that throughput is irrelevant.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// An open WAL file and where each of its committed records ends. The
/// payloads themselves are not kept: [`Wal::open`] hands them out once,
/// for replay, and [`crate::PersistentSession`] knows which journal
/// entry each record holds.
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    file: File,
    /// File offset just past each record, in order. The last one (or
    /// the header's end, with no records) is the committed file length.
    ends: Vec<u64>,
}

impl Wal {
    /// Creates a fresh WAL (magic only), truncating any previous file.
    pub fn create(path: &Path) -> Result<Wal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.write_all(MAGIC).map_err(|e| io_err(path, e))?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            ends: Vec::new(),
        })
    }

    /// Opens an existing WAL, scanning every record, and returns it with
    /// the decoded record payloads in commit order. Drops (and
    /// truncates away) a torn tail; errors on mid-record corruption.
    pub fn open(path: &Path) -> Result<(Wal, Vec<String>), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err(path, e))?;
        if bytes.len() < MAGIC.len() {
            return Err(StoreError::ShortRead {
                path: path.to_path_buf(),
                len: bytes.len() as u64,
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::Version {
                path: path.to_path_buf(),
                found: String::from_utf8_lossy(&bytes[..MAGIC.len()])
                    .trim_end()
                    .to_string(),
            });
        }
        let mut payloads = Vec::new();
        let mut ends = Vec::new();
        let mut off = HEADER as usize;
        while off < bytes.len() {
            if bytes.len() - off < 8 {
                break; // torn header: uncommitted tail
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            let Some(payload) = bytes.get(off + 8..off + 8 + len) else {
                break; // torn payload: uncommitted tail
            };
            if crc32(payload) != crc {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: off as u64,
                    detail: format!(
                        "checksum mismatch (stored {crc:08x}, computed {:08x})",
                        crc32(payload)
                    ),
                });
            }
            let text = std::str::from_utf8(payload).map_err(|e| StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: off as u64,
                detail: format!("payload is not UTF-8: {e}"),
            })?;
            payloads.push(text.to_string());
            off += 8 + len;
            ends.push(off as u64);
        }
        let len = ends.last().copied().unwrap_or(HEADER);
        if len < bytes.len() as u64 {
            // Drop the torn tail so future appends extend the committed
            // prefix instead of interleaving with garbage.
            file.set_len(len).map_err(|e| io_err(path, e))?;
            file.sync_data().map_err(|e| io_err(path, e))?;
        }
        let wal = Wal {
            path: path.to_path_buf(),
            file,
            ends,
        };
        Ok((wal, payloads))
    }

    /// How many records the log holds.
    pub fn records(&self) -> usize {
        self.ends.len()
    }

    /// File offset just past the first `n` records: where record `n`
    /// starts, and the file length once the log is cut back to `n`.
    pub fn end_of(&self, n: usize) -> u64 {
        if n == 0 {
            HEADER
        } else {
            self.ends[n - 1]
        }
    }

    /// Appends one record (not yet durable — call [`Wal::sync`]).
    pub fn append(&mut self, payload: &str) -> Result<(), StoreError> {
        let bytes = payload.as_bytes();
        let mut rec = Vec::with_capacity(8 + bytes.len());
        rec.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(bytes).to_le_bytes());
        rec.extend_from_slice(bytes);
        let end = self.end_of(self.records());
        self.file
            .seek(SeekFrom::Start(end))
            .and_then(|_| self.file.write_all(&rec))
            .map_err(|e| io_err(&self.path, e))?;
        self.ends.push(end + rec.len() as u64);
        Ok(())
    }

    /// Truncates the log back to its first `n` records (rollback made
    /// durable, or the divergence point of a commit).
    pub fn truncate_to(&mut self, n: usize) -> Result<(), StoreError> {
        assert!(n <= self.records());
        if n == self.records() {
            return Ok(());
        }
        self.file
            .set_len(self.end_of(n))
            .map_err(|e| io_err(&self.path, e))?;
        self.ends.truncate(n);
        Ok(())
    }

    /// The commit point: flushes record data to stable storage.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.file.sync_data().map_err(|e| io_err(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmt-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_round_trips() {
        let path = tmp("roundtrip");
        let mut w = Wal::create(&path).unwrap();
        let records = [
            "edit\nm0\n+ @0 : class#0\n",
            "repair 0,1 3\nm1\n- @1 : class#1\n",
        ];
        for r in records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        let (_, payloads) = Wal::open(&path).unwrap();
        assert_eq!(payloads, records);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn every_truncation_recovers_a_record_prefix() {
        let path = tmp("trunc");
        let mut w = Wal::create(&path).unwrap();
        let records = ["first\n", "second record\n", "third\n"];
        for r in records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        let boundaries: Vec<u64> = (0..=records.len()).map(|i| w.end_of(i)).collect();
        for cut in HEADER as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, payloads) = Wal::open(&path).unwrap();
            // The recovered prefix is the number of whole records below
            // the cut — never more, never a partial record.
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(payloads.len(), expect, "cut at {cut}");
            assert_eq!(payloads, &records[..expect], "cut at {cut}");
            // And the torn tail was truncated away on disk.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                boundaries[expect],
                "cut at {cut}"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bit_flips_in_committed_records_are_corruption() {
        let path = tmp("flip");
        let mut w = Wal::create(&path).unwrap();
        w.append("edit\nm0\n+ @0 : class#0\n").unwrap();
        w.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip one bit inside the record payload: checksum must catch it.
        let mut bad = full.clone();
        let last = bad.len() - 2;
        bad[last] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("checksum"));
        // Flip the magic: version error.
        let mut bad = full.clone();
        bad[3] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Wal::open(&path).unwrap_err(),
            StoreError::Version { .. }
        ));
        // Chop below the magic: short read.
        std::fs::write(&path, &full[..5]).unwrap();
        assert!(matches!(
            Wal::open(&path).unwrap_err(),
            StoreError::ShortRead { len: 5, .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn truncate_to_rewinds_then_appends_cleanly() {
        let path = tmp("rewind");
        let mut w = Wal::create(&path).unwrap();
        for r in ["a\n", "b\n", "c\n"] {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        w.truncate_to(1).unwrap();
        w.append("b2\n").unwrap();
        w.sync().unwrap();
        let (_, payloads) = Wal::open(&path).unwrap();
        assert_eq!(payloads, ["a\n".to_string(), "b2\n".to_string()]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
