//! Durable write-ahead journaling for fleet progress.
//!
//! The orchestrator's purity argument makes *recomputation* cheap, but a
//! coordinator crash used to lose the bookkeeping of what had already
//! been computed: every in-flight claim and every landed outcome died
//! with the process. This module is the missing durability layer:
//!
//! * [`JournalStore`] — the storage boundary. [`MemStore`] backs tests
//!   and the chaos harness (which wraps it to tear writes on purpose);
//!   [`DirStore`] backs real deployments with an append-only journal
//!   file and atomic write-then-rename checkpoint commits, so a torn
//!   checkpoint write damages a temp file while the last-good checkpoint
//!   stays intact.
//! * [`FleetJournal`] — CRC-framed [`JournalEntry`] records appended as
//!   the coordinator claims jobs, receives completions, and merges
//!   records into the [`SafePointStore`]. Each frame is
//!   `[len][crc32][payload]`; replay verifies every frame and stops at
//!   the first damaged one, reporting a typed [`JournalDamage`] and
//!   returning the intact prefix — which is always safe to act on,
//!   because job execution is pure and store merges are idempotent:
//!   re-running anything the damaged tail had recorded converges to the
//!   same bytes (property-tested in `tests/chaos.rs`).
//! * Checkpoint commits — periodic [`SafePointStore`] snapshots sealed
//!   with `char_fw::integrity` CRC-32 + length headers. A corrupt
//!   checkpoint is a typed [`CheckpointError`], and recovery falls back
//!   to journal replay (the checkpoint is an accelerator and an export
//!   artifact, never the sole authority).

use crate::job::BoardOutcome;
use char_fw::integrity::{crc32, seal, unseal};
use char_fw::resilience::CheckpointError;
use guardband_core::safepoint::SafePointStore;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// One durable record of fleet progress.
// Variant sizes are deliberately lopsided: entries exist only long
// enough to be framed into (or decoded from) the byte stream, so
// boxing the outcome would buy nothing but indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// The campaign's identity, written once when a fresh journal is
    /// first used. The orchestrator refuses to resume a journal under a
    /// different campaign ([`crate::FleetInterrupted::ForeignJournal`]).
    CampaignBegun {
        /// Fleet size.
        boards: u32,
        /// Master seed.
        seed: u64,
        /// Attempt ceiling in force (part of campaign semantics).
        max_attempts: u32,
        /// Requeue floor backoff in force (part of campaign semantics).
        requeue_backoff_mv: u32,
    },
    /// The coordinator handed a job to the pool. A claim without a
    /// matching completion marks work that was in flight at a crash.
    JobClaimed {
        /// Board id.
        board: u32,
        /// Re-characterization attempt.
        attempt: u32,
        /// Raised floor for re-characterization, mV.
        floor_override_mv: Option<u32>,
    },
    /// A worker's outcome landed at the coordinator. Carries the whole
    /// outcome: replaying completions is what lets recovery re-run
    /// *only* unfinished jobs.
    JobCompleted {
        /// The landed outcome.
        outcome: BoardOutcome,
    },
    /// The outcome's record was merged into the safe-point store under
    /// `epoch`. Merges are idempotent, so replaying this entry any
    /// number of times converges.
    MergeCommitted {
        /// Epoch the record merged under (0 for single-epoch fleet runs,
        /// the month for lifetime deployments).
        epoch: u32,
        /// Board id of the merged record.
        board: u32,
        /// Attempt of the merged record.
        attempt: u32,
    },
    /// One lifetime deployment round (cold characterization or a
    /// monthly re-characterization) committed with all its outcomes.
    RoundCommitted {
        /// The simulated month the round ran in.
        month: u32,
        /// The round's outcomes in `(board, attempt)` order.
        outcomes: Vec<BoardOutcome>,
    },
    /// The campaign finished and the final checkpoint was committed.
    CampaignCompleted,
}

/// Why journal replay stopped before the end of the byte stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalDamage {
    /// The final frame's header or payload is cut short — a torn append.
    TruncatedFrame {
        /// Bytes the frame header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A frame's payload does not match its recorded CRC-32.
    CorruptFrame {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC of the bytes present.
        actual: u32,
    },
    /// A frame verified but its payload does not decode as a
    /// [`JournalEntry`] — an incompatible or garbage record.
    UndecodableEntry {
        /// The decoder's message.
        message: String,
    },
}

impl std::fmt::Display for JournalDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalDamage::TruncatedFrame { expected, actual } => {
                write!(f, "torn journal frame: {actual} of {expected} bytes")
            }
            JournalDamage::CorruptFrame { expected, actual } => {
                write!(
                    f,
                    "corrupt journal frame: crc32 {actual:08x} != {expected:08x}"
                )
            }
            JournalDamage::UndecodableEntry { message } => {
                write!(f, "undecodable journal entry: {message}")
            }
        }
    }
}

/// What replay recovered from the journal bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Every entry of the intact prefix, in append order.
    pub entries: Vec<JournalEntry>,
    /// Why replay stopped early, if it did. `None` means the whole
    /// journal verified end to end.
    pub damage: Option<JournalDamage>,
}

/// The storage boundary a [`FleetJournal`] writes through.
///
/// Implementations must make `commit_checkpoint` atomic with respect to
/// crashes of the *writer* — a reader must always see either the old or
/// the new checkpoint bytes, never a mixture. [`DirStore`] gets this
/// from write-then-rename; [`MemStore`] from a single `Vec` swap. (The
/// chaos harness deliberately provides a store that breaks this
/// contract, to prove the CRC seal catches what atomicity normally
/// prevents.)
pub trait JournalStore {
    /// Appends raw frame bytes to the journal tail.
    fn append(&mut self, frame: &[u8]);
    /// The whole journal byte stream, in append order.
    fn journal_bytes(&self) -> Vec<u8>;
    /// Atomically replaces the checkpoint with `payload`.
    fn commit_checkpoint(&mut self, payload: &[u8]);
    /// The current checkpoint bytes, if one was ever committed.
    fn checkpoint_bytes(&self) -> Option<Vec<u8>>;
}

/// In-memory storage for tests, benches and the chaos harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStore {
    journal: Vec<u8>,
    checkpoint: Option<Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Total journal bytes held (diagnostics).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Damages the journal in place by keeping only the first `keep`
    /// bytes — the chaos harness's torn-append primitive.
    pub fn truncate_journal(&mut self, keep: usize) {
        self.journal.truncate(keep);
    }

    /// Flips one bit of the committed checkpoint (no-op without one) —
    /// the chaos harness's bit-rot primitive.
    pub fn flip_checkpoint_bit(&mut self, byte: usize, bit: u8) {
        if let Some(ckpt) = &mut self.checkpoint {
            if !ckpt.is_empty() {
                let idx = byte % ckpt.len();
                ckpt[idx] ^= 1 << (bit % 8);
            }
        }
    }

    /// Tears the committed checkpoint by dropping its last `drop` bytes
    /// (no-op without one) — a write that died mid-`write(2)`.
    pub fn truncate_checkpoint(&mut self, drop: usize) {
        if let Some(ckpt) = &mut self.checkpoint {
            ckpt.truncate(ckpt.len().saturating_sub(drop));
        }
    }

    /// Deletes the committed checkpoint outright — a lost file. Returns
    /// whether there was one to lose.
    pub fn drop_checkpoint(&mut self) -> bool {
        self.checkpoint.take().is_some()
    }
}

impl JournalStore for MemStore {
    fn append(&mut self, frame: &[u8]) {
        self.journal.extend_from_slice(frame);
    }

    fn journal_bytes(&self) -> Vec<u8> {
        self.journal.clone()
    }

    fn commit_checkpoint(&mut self, payload: &[u8]) {
        self.checkpoint = Some(payload.to_vec());
    }

    fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        self.checkpoint.clone()
    }
}

/// File-backed storage: `fleet.wal` appended in place, `store.ckpt`
/// committed by writing `store.ckpt.tmp` and renaming over the target —
/// the rename is the commit point, so a crash mid-write damages only
/// the temp file and the last-good checkpoint survives.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) a journal directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        fs::create_dir_all(&dir).expect("journal directory is creatable");
        DirStore { dir }
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("fleet.wal")
    }

    fn ckpt_path(&self) -> PathBuf {
        self.dir.join("store.ckpt")
    }
}

impl JournalStore for DirStore {
    fn append(&mut self, frame: &[u8]) {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())
            .expect("journal file is appendable");
        file.write_all(frame).expect("journal append succeeds");
    }

    fn journal_bytes(&self) -> Vec<u8> {
        fs::read(self.wal_path()).unwrap_or_default()
    }

    fn commit_checkpoint(&mut self, payload: &[u8]) {
        let tmp = self.dir.join("store.ckpt.tmp");
        fs::write(&tmp, payload).expect("checkpoint temp write succeeds");
        fs::rename(&tmp, self.ckpt_path()).expect("checkpoint rename succeeds");
    }

    fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        fs::read(self.ckpt_path()).ok()
    }
}

/// The write-ahead journal: CRC-framed entries over a [`JournalStore`].
#[derive(Debug)]
pub struct FleetJournal<S: JournalStore> {
    store: S,
    appended: u64,
}

impl<S: JournalStore> FleetJournal<S> {
    /// Wraps a storage backend.
    pub fn new(store: S) -> Self {
        FleetJournal { store, appended: 0 }
    }

    /// The storage backend (the chaos harness reaches through to damage
    /// it between rounds).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Entries appended through this handle (not counting pre-existing
    /// journal bytes).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one entry: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
    pub fn append(&mut self, entry: &JournalEntry) {
        let payload = serde::json::to_string(entry);
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.store.append(&frame);
        self.appended += 1;
    }

    /// Replays the journal, verifying every frame. Stops at the first
    /// damaged frame and reports it; the returned prefix is always safe
    /// to act on (see the module docs).
    pub fn replay(&self) -> Replay {
        let bytes = self.store.journal_bytes();
        let mut entries = Vec::new();
        let mut offset = 0usize;
        let mut damage = None;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            if remaining < 8 {
                damage = Some(JournalDamage::TruncatedFrame {
                    expected: 8,
                    actual: remaining,
                });
                break;
            }
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            let expected = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            let start = offset + 8;
            if start + len > bytes.len() {
                damage = Some(JournalDamage::TruncatedFrame {
                    expected: len,
                    actual: bytes.len() - start,
                });
                break;
            }
            let payload = &bytes[start..start + len];
            let actual = crc32(payload);
            if actual != expected {
                damage = Some(JournalDamage::CorruptFrame { expected, actual });
                break;
            }
            let text = match std::str::from_utf8(payload) {
                Ok(text) => text,
                Err(err) => {
                    damage = Some(JournalDamage::UndecodableEntry {
                        message: err.to_string(),
                    });
                    break;
                }
            };
            match serde::json::from_str::<JournalEntry>(text) {
                Ok(entry) => entries.push(entry),
                Err(err) => {
                    damage = Some(JournalDamage::UndecodableEntry {
                        message: err.to_string(),
                    });
                    break;
                }
            }
            offset = start + len;
        }
        Replay { entries, damage }
    }

    /// Commits a sealed snapshot of the merged store (atomic at the
    /// storage layer, CRC-verified at load).
    pub fn commit_store_checkpoint(&mut self, store: &SafePointStore) {
        let sealed = seal(&serde::json::to_string(store));
        self.store.commit_checkpoint(sealed.as_bytes());
    }

    /// Loads the last committed store checkpoint, if any.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the seal fails verification
    /// (the caller falls back to journal replay — last-good data);
    /// [`CheckpointError::Schema`] when the payload is intact but does
    /// not decode as a [`SafePointStore`].
    pub fn load_store_checkpoint(&self) -> Result<Option<SafePointStore>, CheckpointError> {
        let Some(bytes) = self.store.checkpoint_bytes() else {
            return Ok(None);
        };
        let text = String::from_utf8(bytes).map_err(|_| {
            CheckpointError::Corrupt(char_fw::integrity::CorruptCheckpoint::MalformedHeader)
        })?;
        let payload = unseal(&text).map_err(CheckpointError::Corrupt)?;
        serde::json::from_str(payload)
            .map(Some)
            .map_err(CheckpointError::Schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(board: u32) -> JournalEntry {
        JournalEntry::JobClaimed {
            board,
            attempt: 0,
            floor_override_mv: None,
        }
    }

    #[test]
    fn entries_roundtrip_through_the_frame_format() {
        let mut journal = FleetJournal::new(MemStore::new());
        let entries = vec![
            JournalEntry::CampaignBegun {
                boards: 4,
                seed: 2018,
                max_attempts: 2,
                requeue_backoff_mv: 15,
            },
            claim(0),
            claim(1),
            JournalEntry::MergeCommitted {
                epoch: 0,
                board: 0,
                attempt: 0,
            },
            JournalEntry::CampaignCompleted,
        ];
        for entry in &entries {
            journal.append(entry);
        }
        let replay = journal.replay();
        assert_eq!(replay.entries, entries);
        assert_eq!(replay.damage, None);
        assert_eq!(journal.appended(), 5);
    }

    #[test]
    fn a_torn_append_loses_only_the_tail() {
        let mut journal = FleetJournal::new(MemStore::new());
        journal.append(&claim(0));
        journal.append(&claim(1));
        let intact = journal.store_mut().journal_len();
        journal.append(&claim(2));
        // Tear the last frame mid-payload.
        journal.store_mut().truncate_journal(intact + 10);
        let replay = journal.replay();
        assert_eq!(replay.entries, vec![claim(0), claim(1)]);
        assert!(matches!(
            replay.damage,
            Some(JournalDamage::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn a_flipped_journal_byte_is_a_crc_mismatch() {
        let mut journal = FleetJournal::new(MemStore::new());
        journal.append(&claim(0));
        let mut bytes = journal.store_mut().journal_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut damaged = FleetJournal::new(MemStore::new());
        damaged.store_mut().append(&bytes);
        let replay = damaged.replay();
        assert!(replay.entries.is_empty());
        assert!(matches!(
            replay.damage,
            Some(JournalDamage::CorruptFrame { .. })
        ));
    }

    #[test]
    fn checkpoints_roundtrip_and_detect_bit_rot() {
        let mut journal = FleetJournal::new(MemStore::new());
        assert_eq!(journal.load_store_checkpoint().unwrap(), None);
        let store = SafePointStore::new();
        journal.commit_store_checkpoint(&store);
        assert_eq!(journal.load_store_checkpoint().unwrap(), Some(store));
        // Flip a payload bit (past the header) and the load is a typed
        // corruption, not a schema error.
        let len = journal.store_mut().checkpoint_bytes().unwrap().len();
        journal.store_mut().flip_checkpoint_bit(len - 1, 1);
        assert!(matches!(
            journal.load_store_checkpoint(),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn dir_store_survives_reopen_and_commits_atomically() {
        let dir =
            std::env::temp_dir().join(format!("guardband-journal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut journal = FleetJournal::new(DirStore::open(&dir));
            journal.append(&claim(7));
            journal.commit_store_checkpoint(&SafePointStore::new());
        }
        // A fresh handle (a restarted coordinator) sees everything.
        let journal = FleetJournal::new(DirStore::open(&dir));
        let replay = journal.replay();
        assert_eq!(replay.entries, vec![claim(7)]);
        assert_eq!(replay.damage, None);
        assert!(journal.load_store_checkpoint().unwrap().is_some());
        // No temp file left behind: the rename completed.
        assert!(!dir.join("store.ckpt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
