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
//! Writes go through the codec's atomic write (temp file + rename), so a
//! crash mid-write leaves the previous checkpoint intact; reads verify
//! magic, version, length, checksum, and the window invariants before
//! anything is trusted. A torn, truncated, or bit-flipped file yields a
//! typed [`RecordError`], never a corrupt window. The framing pieces —
//! CRC, field reader, transaction encoding, atomic write — are shared
//! with the fleet journal ([`crate::journal`]).

use crate::codec::{self, check_crc, crc32, put_tx, Reader, RecordError, TX_BYTES};
use crate::incremental::IncrementalWindow;
use crate::transactions::Transaction;
use std::fs;
use std::path::Path;

/// Current encoding version. Bump on any layout change; [`decode`]
/// rejects versions it does not know (version 1, which lacks the
/// sequence-stamp section, is still accepted).
///
/// [`decode`]: WindowCheckpoint::decode
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"GLPW";
const HEADER_BYTES: usize = 36;

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
    pub fn restore_window(&self) -> Result<IncrementalWindow, RecordError> {
        IncrementalWindow::from_parts(self.days, self.end, self.log.clone())
            .map_err(RecordError::Invalid)
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
            put_tx(&mut out, t);
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
    pub fn decode(bytes: &[u8]) -> Result<Self, RecordError> {
        let split = bytes.len().checked_sub(4).ok_or(RecordError::Truncated)?;
        let (payload, crc) = bytes.split_at(split);
        check_crc(Reader::new(crc).u32()?, payload)?;
        let mut r = Reader::new(payload);
        let version = r.header(&MAGIC, &[1, CHECKPOINT_VERSION])?;
        let (days, end) = (r.u32()?, r.u32()?);
        let (batches_applied, snapshot_epoch) = (r.u64()?, r.u64()?);
        let n_counters = r.u32()?;
        let counters = r.many(n_counters.into(), 8, Reader::u64)?;
        let n_txs = r.u64()?;
        let log = r.many(n_txs, TX_BYTES, Reader::tx)?;
        // Version 1 ends at the transaction section; version 2 appends
        // the sequence-stamp section (count + stamps).
        let n_seqs = if version == 1 { 0 } else { r.u64()? };
        if n_seqs != 0 && n_seqs != n_txs {
            return Err(RecordError::Invalid(
                "sequence stamps must be empty or parallel the log",
            ));
        }
        let seqs = r.many(n_seqs, 8, Reader::u64)?;
        if r.remaining() != 0 {
            return Err(RecordError::Invalid("bytes past the last section"));
        }
        if seqs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(RecordError::Invalid(
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

    /// Writes the checkpoint to `path` atomically: a crash mid-write
    /// leaves any previous checkpoint at `path` intact.
    pub fn write_atomic(&self, path: &Path) -> Result<(), RecordError> {
        codec::write_atomic(path, &self.encode())
    }

    /// Reads and validates the checkpoint at `path`.
    pub fn read(path: &Path) -> Result<Self, RecordError> {
        Self::decode(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::tests::window;
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
        let w = window(&s, 7, s.config.days);
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
        let w = window(&s, 5, s.config.days);
        let ckpt = WindowCheckpoint::capture(&w, 7, 2, vec![9]);
        let path = std::env::temp_dir().join(format!("glp_ckpt_rt_{}.ckpt", std::process::id()));
        ckpt.write_atomic(&path).expect("write");
        let back = WindowCheckpoint::read(&path).expect("read");
        assert_eq!(back.encode(), ckpt.encode());
        std::fs::remove_file(&path).ok();
    }

    /// Crash points of the atomic write over an existing image — temp
    /// absent, partial at every length, complete but not renamed,
    /// renamed: `read` returns the old image or the new one, never an
    /// error.
    #[test]
    fn atomic_write_crash_points_read_the_old_or_the_new_image() {
        let old = WindowCheckpoint {
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
        let new = WindowCheckpoint {
            batches_applied: 2,
            seqs: vec![9],
            ..old.clone()
        }
        .encode();
        let path = std::env::temp_dir().join(format!("glp_ckpt_crash_{}.ckpt", std::process::id()));
        let tmp = codec::temp_path(&path);
        let mut rows: Vec<(Option<&[u8]>, bool)> = vec![(None, false), (None, true)];
        rows.extend((0..=new.len()).map(|k| (Some(&new[..k]), false)));
        for (temp, renamed) in rows {
            std::fs::write(&path, old.encode()).unwrap();
            let _ = std::fs::remove_file(&tmp);
            if let Some(bytes) = temp {
                std::fs::write(&tmp, bytes).unwrap();
            }
            if renamed {
                std::fs::write(&tmp, &new).unwrap();
                std::fs::rename(&tmp, &path).unwrap();
            }
            let read = WindowCheckpoint::read(&path).expect("an image existed");
            let want = if renamed { new.clone() } else { old.encode() };
            assert_eq!(read.encode(), want, "temp {:?}", temp.map(<[u8]>::len));
        }
        old.write_atomic(&path).unwrap();
        assert!(!tmp.exists(), "a finished write leaves no temp");
        // Each of a fleet's `<base>.shard<i>` images stages its own temp.
        let shard = |i: usize| codec::temp_path(&path.with_file_name(format!("f.ckpt.shard{i}")));
        assert_ne!(shard(0), shard(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected_not_loaded() {
        let s = stream();
        let w = window(&s, 5, s.config.days);
        let good = WindowCheckpoint::capture(&w, 0, 0, vec![]).encode();

        // Bit flip anywhere in the payload: checksum catches it.
        let mut flipped = good.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            WindowCheckpoint::decode(&flipped),
            Err(RecordError::BadChecksum { .. })
        ));

        // Truncation: caught before anything is parsed.
        assert!(matches!(
            WindowCheckpoint::decode(&good[..good.len() / 2]),
            Err(RecordError::Truncated | RecordError::BadChecksum { .. })
        ));
        assert!(matches!(
            WindowCheckpoint::decode(&[]),
            Err(RecordError::Truncated)
        ));

        // Wrong magic / version with a *valid* checksum: still rejected.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let n = bad_magic.len();
        let crc = crc32(&bad_magic[..n - 4]).to_le_bytes();
        bad_magic[n - 4..].copy_from_slice(&crc);
        assert!(matches!(
            WindowCheckpoint::decode(&bad_magic),
            Err(RecordError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let crc = crc32(&bad_version[..n - 4]).to_le_bytes();
        bad_version[n - 4..].copy_from_slice(&crc);
        assert!(matches!(
            WindowCheckpoint::decode(&bad_version),
            Err(RecordError::BadVersion(99))
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
                matches!(err, RecordError::BadChecksum { .. }),
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
            Err(RecordError::Invalid(_))
        ));
    }

    #[test]
    fn sequence_stamps_roundtrip() {
        let s = stream();
        let w = window(&s, 7, s.config.days);
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
        let w = window(&s, 7, s.config.days);
        let n = w.num_transactions();
        assert!(n > 2, "test stream too small");

        // Stamp count that is neither 0 nor T.
        let mut short = WindowCheckpoint::capture(&w, 0, 0, vec![]);
        short.seqs = vec![1, 2];
        assert!(matches!(
            WindowCheckpoint::decode(&short.encode()),
            Err(RecordError::Invalid(_))
        ));

        // Non-increasing stamps.
        let mut flat = WindowCheckpoint::capture(&w, 0, 0, vec![]);
        flat.seqs = vec![7; n];
        assert!(matches!(
            WindowCheckpoint::decode(&flat.encode()),
            Err(RecordError::Invalid(_))
        ));
    }

    #[test]
    fn missing_file_reports_io() {
        let path = std::env::temp_dir().join("glp_ckpt_definitely_missing.ckpt");
        assert!(matches!(
            WindowCheckpoint::read(&path),
            Err(RecordError::Io(_))
        ));
    }
}
