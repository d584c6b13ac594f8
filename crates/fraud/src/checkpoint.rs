//! Versioned, checksummed on-disk checkpoints of a sliding window.
//!
//! The serving path's durability story: the [`IncrementalWindow`] *is*
//! the service's only hard state (verdict snapshots are recomputed from
//! it), so periodically persisting the window — plus the batch clock,
//! the snapshot epoch, and the monotonic telemetry counters — lets a
//! crashed or restarted service resume scoring from the last checkpoint
//! instead of an empty window. Because a window materializes by replaying
//! its log through the shared single-pass graph construction, a restored
//! window's LP output is **byte-identical** to the uninterrupted run's
//! (pinned in `glp-serve`'s checkpoint tests).
//!
//! The format is deliberately hand-rolled (the workspace's vendored
//! `serde` is a no-op shim) and deliberately boring:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "GLPW"
//! 4       4     format version (le u32, currently 2)
//! 8       4     window days          (le u32)
//! 12      4     window end day       (le u32, exclusive)
//! 16      8     batches applied      (le u64)
//! 24      8     verdict epoch        (le u64)
//! 32      4     counter count C      (le u32)
//! 36      8C    counters             (le u64 each, caller-defined order)
//! 36+8C   8     transaction count T  (le u64)
//! ...     16T   transactions         (buyer, item, day: le u32; amount: f32 bits)
//! ...     8     sequence count S     (le u64; v2 only, S = 0 or S = T)
//! ...     8S    sequence stamps      (le u64 each, strictly increasing)
//! end-4   4     CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Version 2 appends an optional per-transaction *sequence stamp*
//! section: the sharded service (`glp-serve`'s shard cores) stamps every
//! routed transaction with a fleet-global arrival sequence so that a
//! restored fleet can reconstruct the cross-shard interleaving its
//! label-exchange protocol merges by. Version-1 images (no stamp
//! section) still decode, with `seqs` empty.
//!
//! Writes go through a temp file + atomic rename, so a crash mid-write
//! leaves the previous checkpoint intact; reads verify magic, version,
//! length, checksum, and the window invariants before anything is
//! trusted. A torn, truncated, or bit-flipped file yields a typed
//! [`CheckpointError`], never a corrupt window.

use crate::incremental::IncrementalWindow;
use crate::transactions::Transaction;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Current encoding version. Bump on any layout change; [`decode`]
/// rejects versions it does not know (version 1, which lacks the
/// sequence-stamp section, is still accepted).
///
/// [`decode`]: WindowCheckpoint::decode
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"GLPW";
const HEADER_BYTES: usize = 36;
const TX_BYTES: usize = 16;

/// Why a checkpoint failed to load.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// Shorter than any valid checkpoint, or its declared counts overrun
    /// the actual length (a truncated / torn file).
    Truncated,
    /// The magic bytes are not `GLPW`.
    BadMagic,
    /// A version this build does not understand.
    BadVersion(u32),
    /// The stored CRC-32 does not match the bytes.
    BadChecksum {
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// Decoded cleanly but violates a window invariant.
    Invalid(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::BadMagic => write!(f, "not a GLPW checkpoint"),
            Self::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::BadChecksum { stored, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, actual {actual:#010x}"
                )
            }
            Self::Invalid(why) => write!(f, "invalid checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// One captured service state: the window plus the serving-side clocks.
#[derive(Clone, Debug)]
pub struct WindowCheckpoint {
    /// Window length in days.
    pub days: u32,
    /// Exclusive end day of the window.
    pub end: u32,
    /// Micro-batches the service had applied at capture time.
    pub batches_applied: u64,
    /// Verdict-snapshot epoch at capture time.
    pub snapshot_epoch: u64,
    /// Monotonic telemetry counters, opaque to this crate — the serving
    /// layer defines the order (see `glp-serve`'s counter pack/unpack).
    pub counters: Vec<u64>,
    /// The live-transaction log in arrival order.
    pub log: Vec<Transaction>,
    /// Fleet-global arrival sequence stamps, parallel to `log` (strictly
    /// increasing). Empty for single-core checkpoints and version-1
    /// images; a shard core records them so cross-shard arrival order
    /// survives a fleet restart (see [`Self::capture_with_seqs`]).
    pub seqs: Vec<u64>,
}

impl WindowCheckpoint {
    /// Captures `window` together with the serving clocks and counters
    /// (no sequence stamps — the single-core path).
    pub fn capture(
        window: &IncrementalWindow,
        batches_applied: u64,
        snapshot_epoch: u64,
        counters: Vec<u64>,
    ) -> Self {
        Self {
            days: window.days(),
            end: window.end(),
            batches_applied,
            snapshot_epoch,
            counters,
            log: window.transactions().copied().collect(),
            seqs: Vec::new(),
        }
    }

    /// [`Self::capture`] plus the shard's fleet-global sequence stamps,
    /// which must parallel the window's live log one-to-one.
    pub fn capture_with_seqs(
        window: &IncrementalWindow,
        batches_applied: u64,
        snapshot_epoch: u64,
        counters: Vec<u64>,
        seqs: Vec<u64>,
    ) -> Self {
        assert_eq!(
            seqs.len(),
            window.num_transactions(),
            "sequence stamps must parallel the live log"
        );
        let mut ckpt = Self::capture(window, batches_applied, snapshot_epoch, counters);
        ckpt.seqs = seqs;
        ckpt
    }

    /// Reconstructs the window this checkpoint captured. Validates the
    /// window invariants (see [`IncrementalWindow::from_parts`]).
    pub fn restore_window(&self) -> Result<IncrementalWindow, CheckpointError> {
        IncrementalWindow::from_parts(self.days, self.end, self.log.clone())
            .map_err(CheckpointError::Invalid)
    }

    /// Serializes to the versioned, CRC-trailed byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            HEADER_BYTES
                + 8 * self.counters.len()
                + 8
                + TX_BYTES * self.log.len()
                + 8
                + 8 * self.seqs.len()
                + 4,
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.days.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        out.extend_from_slice(&self.batches_applied.to_le_bytes());
        out.extend_from_slice(&self.snapshot_epoch.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for c in &self.counters {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.log.len() as u64).to_le_bytes());
        for t in &self.log {
            out.extend_from_slice(&t.buyer.to_le_bytes());
            out.extend_from_slice(&t.item.to_le_bytes());
            out.extend_from_slice(&t.day.to_le_bytes());
            out.extend_from_slice(&t.amount.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.seqs.len() as u64).to_le_bytes());
        for s in &self.seqs {
            out.extend_from_slice(&s.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and fully validates one checkpoint image.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_BYTES + 8 + 4 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let actual = crc32(payload);
        if stored != actual {
            return Err(CheckpointError::BadChecksum { stored, actual });
        }
        if payload[0..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = read_u32(payload, 4);
        if version != 1 && version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let days = read_u32(payload, 8);
        let end = read_u32(payload, 12);
        let batches_applied = read_u64(payload, 16);
        let snapshot_epoch = read_u64(payload, 24);
        let n_counters = read_u32(payload, 32) as usize;
        let counters_end = HEADER_BYTES + 8 * n_counters;
        if payload.len() < counters_end + 8 {
            return Err(CheckpointError::Truncated);
        }
        let counters: Vec<u64> = (0..n_counters)
            .map(|i| read_u64(payload, HEADER_BYTES + 8 * i))
            .collect();
        let n_txs = read_u64(payload, counters_end) as usize;
        let txs_start = counters_end + 8;
        let txs_end = txs_start + TX_BYTES * n_txs;
        // Version 1 ends at the transaction section; version 2 appends
        // the sequence-stamp section (count + stamps).
        let n_seqs = if version == 1 {
            if payload.len() != txs_end {
                return Err(CheckpointError::Truncated);
            }
            0
        } else {
            if payload.len() < txs_end + 8 {
                return Err(CheckpointError::Truncated);
            }
            let n_seqs = read_u64(payload, txs_end) as usize;
            if payload.len() != txs_end + 8 + 8 * n_seqs {
                return Err(CheckpointError::Truncated);
            }
            n_seqs
        };
        if n_seqs != 0 && n_seqs != n_txs {
            return Err(CheckpointError::Invalid(
                "sequence stamps must be empty or parallel the log",
            ));
        }
        let log: Vec<Transaction> = (0..n_txs)
            .map(|i| {
                let o = txs_start + TX_BYTES * i;
                Transaction {
                    buyer: read_u32(payload, o),
                    item: read_u32(payload, o + 4),
                    day: read_u32(payload, o + 8),
                    amount: f32::from_bits(read_u32(payload, o + 12)),
                }
            })
            .collect();
        let seqs: Vec<u64> = (0..n_seqs)
            .map(|i| read_u64(payload, txs_end + 8 + 8 * i))
            .collect();
        if seqs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CheckpointError::Invalid(
                "sequence stamps must be strictly increasing",
            ));
        }
        let ckpt = Self {
            days,
            end,
            batches_applied,
            snapshot_epoch,
            counters,
            log,
            seqs,
        };
        // Reject images that decode but describe an impossible window.
        ckpt.restore_window()?;
        Ok(ckpt)
    }

    /// Writes the checkpoint to `path` via temp-file + atomic rename: a
    /// crash mid-write leaves any previous checkpoint at `path` intact.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        #[cfg(feature = "fault-injection")]
        faults::maybe_fail_write()?;
        let tmp = path.with_extension("ckpt-tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates the checkpoint at `path`.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        Self::decode(&fs::read(path)?)
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the same
/// polynomial gzip and PNG use. Bitwise, no table: checkpoints are
/// written once per few hundred batches, so simplicity wins over speed.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Checkpoint-write fault injection (feature `fault-injection` only):
/// arm [`fail_next_writes`] and the next N [`WindowCheckpoint::write_atomic`]
/// calls fail with an injected I/O error *before touching the filesystem*
/// — modeling a full disk or yanked volume without leaving junk behind.
#[cfg(feature = "fault-injection")]
pub mod faults {
    use super::{io, CheckpointError};
    use std::cell::Cell;

    thread_local! {
        /// The calling thread's armed write failures. Per thread, like
        /// gpusim's armed stalls: the service arms and writes on the same
        /// thread, and a failure armed there must not be consumed by a
        /// sibling service's (or a fleet's) checkpoint on another thread.
        static FAIL_WRITES: Cell<u32> = const { Cell::new(0) };
    }

    /// Arms the injector for the next `n` checkpoint writes of the
    /// calling thread.
    pub fn fail_next_writes(n: u32) {
        FAIL_WRITES.set(n);
    }

    /// Disarms the calling thread's injector.
    pub fn clear() {
        FAIL_WRITES.set(0);
    }

    pub(super) fn maybe_fail_write() -> Result<(), CheckpointError> {
        let left = FAIL_WRITES.get();
        if left == 0 {
            return Ok(());
        }
        FAIL_WRITES.set(left - 1);
        Err(CheckpointError::Io(io::Error::other(
            "injected checkpoint write failure",
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::{TxConfig, TxStream};
    use crate::window::WindowWorkload;

    fn stream() -> TxStream {
        TxStream::generate(&TxConfig {
            num_users: 800,
            num_items: 300,
            days: 15,
            tx_per_day: 400,
            num_rings: 2,
            ring_size: 8,
            ring_tx_per_day: 15,
            ..Default::default()
        })
    }

    fn graphs_equal(a: &WindowWorkload, b: &WindowWorkload) -> bool {
        a.graph.incoming().offsets() == b.graph.incoming().offsets()
            && a.graph.incoming().targets() == b.graph.incoming().targets()
            && a.graph.incoming().weights() == b.graph.incoming().weights()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_restores_a_byte_identical_window() {
        let s = stream();
        let w = IncrementalWindow::new(&s, 7, s.config.days);
        let ckpt = WindowCheckpoint::capture(&w, 42, 5, vec![1, 2, 3]);
        let decoded = WindowCheckpoint::decode(&ckpt.encode()).expect("roundtrip");
        assert_eq!(decoded.batches_applied, 42);
        assert_eq!(decoded.snapshot_epoch, 5);
        assert_eq!(decoded.counters, vec![1, 2, 3]);
        let restored = decoded.restore_window().expect("valid window");
        assert_eq!(restored.end(), w.end());
        assert_eq!(restored.num_transactions(), w.num_transactions());
        assert_eq!(restored.num_pairs(), w.num_pairs());
        assert!(graphs_equal(&restored.materialize(), &w.materialize()));
    }

    #[test]
    fn file_roundtrip_through_atomic_write() {
        let s = stream();
        let w = IncrementalWindow::new(&s, 5, s.config.days);
        let ckpt = WindowCheckpoint::capture(&w, 7, 2, vec![9]);
        let path = std::env::temp_dir().join(format!("glp_ckpt_rt_{}.ckpt", std::process::id()));
        ckpt.write_atomic(&path).expect("write");
        let back = WindowCheckpoint::read(&path).expect("read");
        assert_eq!(back.encode(), ckpt.encode());
        std::fs::remove_file(&path).ok();
    }

    /// An armed write failure belongs to the thread that armed it: another
    /// thread's checkpoint goes through, the arming thread's next one fails.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn armed_write_failure_is_scoped_to_the_arming_thread() {
        let s = stream();
        let w = IncrementalWindow::new(&s, 5, s.config.days);
        let ckpt = WindowCheckpoint::capture(&w, 7, 2, vec![9]);
        let path = std::env::temp_dir().join(format!("glp_ckpt_tl_{}.ckpt", std::process::id()));
        faults::fail_next_writes(1);
        std::thread::scope(|sc| {
            sc.spawn(|| ckpt.write_atomic(&path).expect("sibling thread's write"));
        });
        assert!(matches!(
            ckpt.write_atomic(&path),
            Err(CheckpointError::Io(_))
        ));
        ckpt.write_atomic(&path).expect("injector spent");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected_not_loaded() {
        let s = stream();
        let w = IncrementalWindow::new(&s, 5, s.config.days);
        let good = WindowCheckpoint::capture(&w, 0, 0, vec![]).encode();

        // Bit flip anywhere in the payload: checksum catches it.
        let mut flipped = good.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            WindowCheckpoint::decode(&flipped),
            Err(CheckpointError::BadChecksum { .. })
        ));

        // Truncation: caught before anything is parsed.
        assert!(matches!(
            WindowCheckpoint::decode(&good[..good.len() / 2]),
            Err(CheckpointError::Truncated | CheckpointError::BadChecksum { .. })
        ));
        assert!(matches!(
            WindowCheckpoint::decode(&[]),
            Err(CheckpointError::Truncated)
        ));

        // Wrong magic / version with a *valid* checksum: still rejected.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let n = bad_magic.len();
        let crc = crc32(&bad_magic[..n - 4]).to_le_bytes();
        bad_magic[n - 4..].copy_from_slice(&crc);
        assert!(matches!(
            WindowCheckpoint::decode(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let crc = crc32(&bad_version[..n - 4]).to_le_bytes();
        bad_version[n - 4..].copy_from_slice(&crc);
        assert!(matches!(
            WindowCheckpoint::decode(&bad_version),
            Err(CheckpointError::BadVersion(99))
        ));
    }

    #[test]
    fn every_single_byte_corruption_yields_a_typed_error() {
        // A small but non-trivial image: header, counters (including edge
        // values), and a few transactions, so the sweep crosses every
        // field boundary in the layout.
        let ckpt = WindowCheckpoint {
            days: 3,
            end: 5,
            batches_applied: 17,
            snapshot_epoch: 4,
            counters: vec![7, 0, u64::MAX],
            log: vec![
                Transaction {
                    buyer: 1,
                    item: 2,
                    day: 3,
                    amount: 4.5,
                },
                Transaction {
                    buyer: 9,
                    item: 8,
                    day: 4,
                    amount: -0.25,
                },
            ],
            // Non-empty so the corruption sweep crosses the v2
            // sequence-stamp section too.
            seqs: vec![3, 12],
        };
        let good = ckpt.encode();
        WindowCheckpoint::decode(&good).expect("pristine image decodes");
        for i in 0..good.len() {
            let mut bad = good.clone();
            // Rotate the flipped bit so every bit lane is exercised over
            // the sweep, not just bit 0.
            bad[i] ^= 1 << (i % 8);
            let err = WindowCheckpoint::decode(&bad)
                .expect_err("single-bit corruption must never decode");
            // CRC-32 detects every single-bit error wherever it lands —
            // including inside the stored checksum itself — so the typed
            // error is always the checksum mismatch, reached without any
            // field being parsed, let alone trusted.
            assert!(
                matches!(err, CheckpointError::BadChecksum { .. }),
                "byte {i}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn invalid_window_shape_is_rejected() {
        // A log that decodes fine but violates the window invariants
        // (transaction beyond the declared end day).
        let ckpt = WindowCheckpoint {
            days: 5,
            end: 10,
            batches_applied: 0,
            snapshot_epoch: 0,
            counters: vec![],
            log: vec![Transaction {
                buyer: 1,
                item: 2,
                day: 11,
                amount: 1.0,
            }],
            seqs: vec![],
        };
        assert!(matches!(
            WindowCheckpoint::decode(&ckpt.encode()),
            Err(CheckpointError::Invalid(_))
        ));
    }

    #[test]
    fn sequence_stamps_roundtrip() {
        let s = stream();
        let w = IncrementalWindow::new(&s, 7, s.config.days);
        let seqs: Vec<u64> = (0..w.num_transactions() as u64)
            .map(|i| i * 3 + 5)
            .collect();
        let ckpt = WindowCheckpoint::capture_with_seqs(&w, 11, 2, vec![4], seqs.clone());
        let decoded = WindowCheckpoint::decode(&ckpt.encode()).expect("roundtrip");
        assert_eq!(decoded.seqs, seqs);
        assert_eq!(decoded.log.len(), decoded.seqs.len());
    }

    #[test]
    fn version_1_images_decode_with_empty_seqs() {
        // Hand-build a v1 image: same layout minus the sequence section,
        // version field 1, CRC recomputed — what an old build wrote.
        let ckpt = WindowCheckpoint {
            days: 3,
            end: 5,
            batches_applied: 1,
            snapshot_epoch: 0,
            counters: vec![6],
            log: vec![Transaction {
                buyer: 1,
                item: 2,
                day: 4,
                amount: 2.0,
            }],
            seqs: vec![],
        };
        let v2 = ckpt.encode();
        // Strip CRC (4) and the empty sequence section (8), rewrite the
        // version field, re-CRC.
        let mut v1 = v2[..v2.len() - 12].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&v1).to_le_bytes();
        v1.extend_from_slice(&crc);
        let decoded = WindowCheckpoint::decode(&v1).expect("v1 image decodes");
        assert!(decoded.seqs.is_empty());
        assert_eq!(decoded.log.len(), 1);
        assert_eq!(decoded.counters, vec![6]);
    }

    #[test]
    fn malformed_sequence_sections_are_rejected() {
        let s = stream();
        let w = IncrementalWindow::new(&s, 7, s.config.days);
        let n = w.num_transactions();
        assert!(n > 2, "test stream too small");

        // Stamp count that is neither 0 nor T.
        let mut short = WindowCheckpoint::capture(&w, 0, 0, vec![]);
        short.seqs = vec![1, 2];
        assert!(matches!(
            WindowCheckpoint::decode(&short.encode()),
            Err(CheckpointError::Invalid(_))
        ));

        // Non-increasing stamps.
        let mut flat = WindowCheckpoint::capture(&w, 0, 0, vec![]);
        flat.seqs = vec![7; n];
        assert!(matches!(
            WindowCheckpoint::decode(&flat.encode()),
            Err(CheckpointError::Invalid(_))
        ));
    }

    #[test]
    fn missing_file_reports_io() {
        let path = std::env::temp_dir().join("glp_ckpt_definitely_missing.ckpt");
        assert!(matches!(
            WindowCheckpoint::read(&path),
            Err(CheckpointError::Io(_))
        ));
    }
}
