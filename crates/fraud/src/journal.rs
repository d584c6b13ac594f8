//! The fleet's write-ahead batch journal: durable, segmented, CRC-framed.
//!
//! Checkpoints alone cannot make shard death self-healing — a
//! checkpoint is a *periodic* image, and every batch routed after it
//! lives only in shard memory. The journal closes that gap: the fleet
//! router (`glp-serve`'s `FleetCore`) appends every validated,
//! seq-stamped micro-batch here **before** fan-out, so any shard's
//! post-checkpoint history can be reconstructed exactly (restricted to
//! its keyspace, in router sequence order) by replaying the journal on
//! top of its last `<base>.shard<i>` image. Shard failover and
//! whole-fleet crash-restart are built on that replay.
//!
//! ## Format
//!
//! The journal is a directory of segment files named
//! `<first-batch, 20 decimal digits>.glpwal` so lexicographic order is
//! batch order. Each segment starts with a 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "GLPJ"
//! 4       4     version (le u32, currently 1)
//! 8       8     first fleet-batch index of this segment (le u64; no
//!               record in the segment precedes it)
//! ```
//!
//! followed by framed records, one per fleet micro-batch:
//!
//! ```text
//! 4     payload length (le u32)
//! 4     CRC-32 (IEEE) of the payload
//! 8     fleet batch index (le u64)
//! 4     watermark: global window end after this batch (le u32)
//! 4     transaction count (le u32)
//! 24×n  per transaction: seq (le u64), then the checkpoint's 16-byte
//!       transaction encoding (buyer, item, day, amount bits; le u32 each)
//! ```
//!
//! ## Tolerance contract
//!
//! * **Torn tail.** A crash mid-append leaves a partial frame at the end
//!   of the *last* segment. Reading stops cleanly at the last intact
//!   record; [`FleetWal::open`] additionally truncates the file back to
//!   that boundary so later appends start from a clean edge.
//! * **Failed appends leave no trace.** An append whose write or sync
//!   fails cuts the segment back to its last acknowledged length, so the
//!   next append never lands behind a partial frame; the skipped batch is
//!   a hole that replay reports as a [`RecordError::Gap`].
//! * **Atomic rotation.** When a segment would pass the configured size
//!   the writer syncs it and writes the next segment's header through the
//!   codec's atomic write: a crash mid-rotation leaves only a `.tmp` file
//!   no segment listing matches. Records are never split across segments,
//!   so segment deletion ([`FleetWal::truncate_covered`], driven by
//!   checkpoints) is always record-aligned.
//! * **Deep corruption is loud.** A bad frame anywhere except the tail
//!   of the last segment — bit rot in a sealed segment, a mangled
//!   header, non-monotone batch indices — is a typed [`RecordError`],
//!   never a silent partial replay (`tests` sweep every byte).

use crate::codec::{self, check_crc, crc32, put_tx, Reader, RecordError, TX_BYTES};
use crate::transactions::Transaction;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GLPJ";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 16;
/// Frame prefix: payload length + CRC.
const FRAME_PREFIX: usize = 8;
/// Fixed payload part: batch + watermark + count.
const PAYLOAD_FIXED: usize = 16;
/// Per-transaction payload bytes: seq + the transaction encoding.
const TX_LEN: usize = 8 + TX_BYTES;
const SEGMENT_EXT: &str = "glpwal";

/// One journaled fleet micro-batch: everything the router knew at
/// fan-out time, sufficient to re-route any shard's sub-batch exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Fleet batch index (`batches_applied` at journal time).
    pub batch: u64,
    /// Global window end after this batch; replay advances every shard
    /// window to it, empty sub-batch or not.
    pub watermark: u32,
    /// Validated transactions in router (= sequence) order, with their
    /// fleet-wide sequence stamps.
    pub txs: Vec<(u64, Transaction)>,
}

fn encode_frame(batch: u64, watermark: u32, txs: &[(u64, Transaction)]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_PREFIX + PAYLOAD_FIXED + TX_LEN * txs.len());
    frame.extend_from_slice(&[0; FRAME_PREFIX]); // length + CRC, once known
    frame.extend_from_slice(&batch.to_le_bytes());
    frame.extend_from_slice(&watermark.to_le_bytes());
    frame.extend_from_slice(&(txs.len() as u32).to_le_bytes());
    for (seq, t) in txs {
        frame.extend_from_slice(&seq.to_le_bytes());
        put_tx(&mut frame, t);
    }
    let payload = &frame[FRAME_PREFIX..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// The next frame's payload, CRC-checked.
fn read_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], RecordError> {
    let len = r.u32()? as usize;
    let stored = r.u32()?;
    let payload = r.take(len)?;
    check_crc(stored, payload)?;
    Ok(payload)
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, RecordError> {
    let mut r = Reader::new(payload);
    let (batch, watermark, count) = (r.u64()?, r.u32()?, r.u32()?);
    if r.remaining() != TX_LEN * count as usize {
        return Err(RecordError::Invalid(
            "record length disagrees with its tx count",
        ));
    }
    let txs = r.many(count.into(), TX_LEN, |r| Ok((r.u64()?, r.tx()?)))?;
    Ok(WalRecord {
        batch,
        watermark,
        txs,
    })
}

/// Parses one segment into its records. `final_segment` selects the
/// tolerance contract: a frame cut short or failing its CRC at the tail
/// of the last segment is a clean torn tail — the scan stops there and
/// returns the frame's offset, where the segment's intact prefix ends —
/// while the same bytes in a sealed segment are a typed error.
fn scan_segment(
    bytes: &[u8],
    final_segment: bool,
) -> Result<(Vec<WalRecord>, Option<u64>), RecordError> {
    let mut r = Reader::new(bytes);
    r.header(MAGIC, &[VERSION])?;
    let first_batch = r.u64()?;
    let mut records: Vec<WalRecord> = Vec::new();
    while r.remaining() > 0 {
        let at = r.pos() as u64;
        let payload = match read_frame(&mut r) {
            Ok(payload) => payload,
            Err(RecordError::Truncated | RecordError::BadChecksum { .. }) if final_segment => {
                return Ok((records, Some(at)));
            }
            Err(e) => return Err(e),
        };
        let record = decode_payload(payload)?;
        let in_order = match records.last() {
            None => record.batch >= first_batch,
            Some(prev) => record.batch > prev.batch,
        };
        if !in_order {
            return Err(RecordError::Invalid(
                "batch index precedes the segment header or the record before it",
            ));
        }
        records.push(record);
    }
    Ok((records, None))
}

/// Every intact record under `dir` in batch order. With `repair`, a torn
/// tail is also cut off the last segment's file, so the next append
/// starts from a valid edge.
fn scan_dir(dir: &Path, repair: bool) -> Result<Vec<WalRecord>, RecordError> {
    let segments = list_segments(dir)?;
    let mut all: Vec<WalRecord> = Vec::new();
    for (k, seg) in segments.iter().enumerate() {
        let (records, torn_at) = scan_segment(&fs::read(seg)?, k + 1 == segments.len())?;
        if let (Some(prev), Some(first)) = (all.last(), records.first()) {
            if first.batch <= prev.batch {
                return Err(RecordError::Invalid(
                    "batch index regressed across segments",
                ));
            }
        }
        all.extend(records);
        if let Some(end) = torn_at.filter(|_| repair) {
            OpenOptions::new().write(true).open(seg)?.set_len(end)?;
        }
    }
    Ok(all)
}

fn segment_header(first_batch: u64) -> Vec<u8> {
    [
        &MAGIC[..],
        &VERSION.to_le_bytes(),
        &first_batch.to_le_bytes(),
    ]
    .concat()
}

fn segment_name(first_batch: u64) -> String {
    format!("{first_batch:020}.{SEGMENT_EXT}")
}

fn first_batch_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, RecordError> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| first_batch_of(p).is_some())
        .collect();
    // 20-digit zero-padded names: lexicographic order is batch order,
    // but sort numerically anyway so a hand-renamed file cannot reorder.
    segments.sort_by_key(|p| first_batch_of(p).expect("filtered above"));
    Ok(segments)
}

/// Writes one frame and syncs it. Test builds can cut the write short
/// (`tests::SHORT_WRITE`) to model a device that fails mid-frame.
fn write_synced(file: &mut File, frame: &[u8]) -> io::Result<()> {
    #[cfg(test)]
    if let Some(n) = tests::SHORT_WRITE.take() {
        file.write_all(&frame[..n])?;
        return Err(io::Error::other("injected short write"));
    }
    file.write_all(frame)?;
    file.sync_data()
}

/// The append side of the journal (see module docs). One writer — the
/// fleet router thread — appends; recovery paths read via
/// [`Self::records`].
#[derive(Debug)]
pub struct FleetWal {
    dir: PathBuf,
    segment_bytes: u64,
    /// Open append handle to the last segment, if any exists yet.
    current: Option<CurrentSegment>,
    /// Batch index of the last appended (or recovered) record.
    last_batch: Option<u64>,
}

#[derive(Debug)]
struct CurrentSegment {
    file: File,
    /// Bytes acknowledged so far: everything up to the last record whose
    /// append returned `Ok`.
    len: u64,
}

impl FleetWal {
    /// Opens (creating if needed) the journal at `dir`, repairing a torn
    /// tail left by a crash: a partial frame at the end of the last
    /// segment is truncated away. Deeper corruption is a typed error.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<Self, RecordError> {
        fs::create_dir_all(dir)?;
        let records = scan_dir(dir, true)?;
        let current = match list_segments(dir)?.pop() {
            None => None,
            Some(path) => {
                let file = OpenOptions::new().append(true).open(&path)?;
                let len = file.metadata()?.len();
                Some(CurrentSegment { file, len })
            }
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max((HEADER_LEN + FRAME_PREFIX + PAYLOAD_FIXED) as u64),
            current,
            last_batch: records.last().map(|r| r.batch),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Batch index of the newest journaled record, if any.
    pub fn tail_batch(&self) -> Option<u64> {
        self.last_batch
    }

    /// Appends one validated fleet micro-batch, rotating to a fresh
    /// segment when the current one is full. The frame is flushed and
    /// synced before return — once `append` succeeds, the batch survives
    /// a crash; when it fails, the journal is as it was before the call.
    pub fn append(
        &mut self,
        batch: u64,
        watermark: u32,
        txs: &[(u64, Transaction)],
    ) -> Result<(), RecordError> {
        if self.last_batch.is_some_and(|last| batch <= last) {
            return Err(RecordError::Invalid(
                "append batch not beyond the journal tail",
            ));
        }
        let frame = encode_frame(batch, watermark, txs);
        let rotate = match &self.current {
            None => true,
            // A fresh segment accepts at least one record however large;
            // otherwise rotate once the configured size would be passed.
            Some(c) => c.len > HEADER_LEN as u64 && c.len + frame.len() as u64 > self.segment_bytes,
        };
        if rotate {
            if let Some(c) = &self.current {
                c.file.sync_all()?;
            }
            let path = self.dir.join(segment_name(batch));
            codec::write_atomic(&path, &segment_header(batch))?;
            self.current = Some(CurrentSegment {
                file: OpenOptions::new().append(true).open(&path)?,
                len: HEADER_LEN as u64,
            });
        }
        let c = self.current.as_mut().expect("rotation ensured a segment");
        if let Err(e) = write_synced(&mut c.file, &frame) {
            // A partial frame left behind would read as the torn tail and
            // hide every later record behind it. If even the cut fails,
            // seal the segment: the next append rotates, and the partial
            // frame reads as loud corruption, not a silent prefix.
            if c.file.set_len(c.len).is_err() {
                self.current = None;
            }
            return Err(e.into());
        }
        c.len += frame.len() as u64;
        self.last_batch = Some(batch);
        Ok(())
    }

    /// Reads every intact record in batch order. A torn tail on the last
    /// segment yields the intact prefix; corruption anywhere else is a
    /// typed error (see module docs).
    pub fn records(&self) -> Result<Vec<WalRecord>, RecordError> {
        read_records(&self.dir)
    }

    /// Drops segments made fully redundant by checkpoints: a segment is
    /// removed when every batch it holds is below `durable_batches`
    /// (= the minimum `batches_applied` across all shards' durable
    /// images). The last segment is always kept — it is the append
    /// target. Returns the number of segments removed.
    pub fn truncate_covered(&mut self, durable_batches: u64) -> Result<u64, RecordError> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        // Segment k covers [first_k, first_{k+1}); it is fully durable
        // exactly when the next segment starts at or below the durable
        // watermark.
        for pair in segments.windows(2) {
            let next_first = first_batch_of(&pair[1]).expect("listed segments parse");
            if next_first <= durable_batches {
                fs::remove_file(&pair[0])?;
                removed += 1;
            } else {
                break;
            }
        }
        Ok(removed)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> Result<usize, RecordError> {
        Ok(list_segments(&self.dir)?.len())
    }
}

/// Reads every intact record under `dir` in batch order (the static
/// counterpart of [`FleetWal::records`], usable without an open journal).
pub fn read_records(dir: &Path) -> Result<Vec<WalRecord>, RecordError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    scan_dir(dir, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::temp_path;
    use std::cell::Cell;

    thread_local! {
        /// Armed by a test: the calling thread's next frame write stops
        /// after this many bytes and fails ([`write_synced`]).
        pub(super) static SHORT_WRITE: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("glp_wal_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tx(buyer: u32, day: u32) -> Transaction {
        Transaction {
            buyer,
            item: buyer + 1000,
            day,
            amount: 9.5 + buyer as f32,
        }
    }

    /// Batch `b` of [`build`]'s journal.
    fn record(b: u64) -> WalRecord {
        let txs = (0..3)
            .map(|j| (3 * b + j + 1, tx(10 * b as u32 + j as u32, b as u32)))
            .collect();
        WalRecord {
            batch: b,
            watermark: b as u32 + 1,
            txs,
        }
    }

    fn append(wal: &mut FleetWal, r: &WalRecord) -> Result<(), RecordError> {
        wal.append(r.batch, r.watermark, &r.txs)
    }

    /// A small journal spanning several segments: `n` batches, 3
    /// transactions each, tiny segment size to force rotation (two
    /// records per segment).
    fn build(dir: &Path, n: u64) -> Vec<WalRecord> {
        let mut wal = FleetWal::open(dir, 256).expect("open");
        let expected: Vec<WalRecord> = (0..n).map(record).collect();
        for r in &expected {
            append(&mut wal, r).expect("append");
        }
        expected
    }

    /// Every file of `dir` with its bytes, to restore between rows.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|p| {
                let bytes = fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect()
    }

    fn restore(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        for (p, bytes) in files {
            fs::write(p, bytes).unwrap();
        }
    }

    #[test]
    fn roundtrips_across_segment_rotation() {
        let dir = temp_dir("roundtrip");
        let expected = build(&dir, 12);
        let wal = FleetWal::open(&dir, 256).expect("reopen");
        assert!(
            wal.segment_count().unwrap() > 1,
            "rotation must have split segments"
        );
        assert_eq!(wal.tail_batch(), Some(11));
        let records = wal.records().expect("read");
        assert_eq!(records, expected);
        // Amount bits survive exactly (f32 roundtrip through bits).
        assert_eq!(
            records[3].txs[2].1.amount.to_bits(),
            expected[3].txs[2].1.amount.to_bits()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_rejects_non_monotone_batches() {
        let dir = temp_dir("monotone");
        build(&dir, 4);
        let mut wal = FleetWal::open(&dir, 256).expect("reopen");
        assert!(matches!(
            wal.append(3, 5, &[]),
            Err(RecordError::Invalid(_))
        ));
        assert!(matches!(
            wal.append(2, 5, &[]),
            Err(RecordError::Invalid(_))
        ));
        wal.append(4, 5, &[]).expect("tail + 1 appends fine");
        // Skipping ahead is allowed on append (monotone, not dense);
        // density is enforced by replay, which knows what it needs.
        wal.append(7, 6, &[]).expect("monotone skip appends");
        fs::remove_dir_all(&dir).ok();
    }

    /// Crash points of an append: the last record torn at every length
    /// from nothing written to one byte short. Each row reads the intact
    /// prefix, `open` cuts the file back to it, and re-appending the
    /// torn batch lands it exactly once.
    #[test]
    fn torn_append_at_every_length_reads_the_prefix_and_re_appends_once() {
        let dir = temp_dir("torn");
        let expected = build(&dir, 6);
        let files = snapshot(&dir);
        let (last, full) = files.last().unwrap();
        let frame = encode_frame(5, 6, &expected[5].txs).len();
        let intact = full.len() - frame;
        for torn in 0..frame {
            restore(&dir, &files);
            fs::write(last, &full[..intact + torn]).unwrap();
            assert_eq!(
                read_records(&dir).expect("prefix survives"),
                expected[..5],
                "torn at {torn}"
            );
            let mut wal = FleetWal::open(&dir, 256).expect("open repairs");
            assert_eq!(wal.tail_batch(), Some(4), "torn at {torn}");
            assert_eq!(fs::metadata(last).unwrap().len() as usize, intact);
            append(&mut wal, &expected[5]).expect("append after repair");
            assert_eq!(read_records(&dir).unwrap(), expected, "torn at {torn}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Crash points of a rotation's atomic header write — temp absent,
    /// partial at every length, complete but not renamed, renamed. A
    /// stray temp is never listed; a renamed header-only segment reads
    /// as zero records and takes the next append.
    #[test]
    fn rotation_crash_points_lose_nothing_and_take_the_next_append() {
        let dir = temp_dir("rotation");
        let mut expected = build(&dir, 6);
        let files = snapshot(&dir);
        let next = record(6);
        let segment = dir.join(segment_name(6));
        let header = segment_header(6);
        // (temp file contents, renamed into place)
        let mut rows: Vec<(Option<&[u8]>, bool)> = vec![(None, false), (None, true)];
        rows.extend((0..=header.len()).map(|k| (Some(&header[..k]), false)));
        expected.push(next.clone());
        for (temp, renamed) in rows {
            restore(&dir, &files);
            if let Some(bytes) = temp {
                fs::write(temp_path(&segment), bytes).unwrap();
            }
            if renamed {
                fs::write(&segment, &header).unwrap();
            }
            let row = format!("temp {:?}, renamed {renamed}", temp.map(<[u8]>::len));
            assert_eq!(read_records(&dir).unwrap(), expected[..6], "{row}");
            let mut wal = FleetWal::open(&dir, 256).expect("open");
            assert_eq!(wal.tail_batch(), Some(5), "{row}");
            append(&mut wal, &next).expect("the next append lands");
            assert_eq!(read_records(&dir).unwrap(), expected, "{row}");
            assert_eq!(wal.segment_count().unwrap(), 4, "{row}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A write that fails part-way (or its sync) is cut back out of the
    /// segment: the next acknowledged record is readable behind it, and
    /// `open` keeps it. Rows: the failing batch opens a segment (4) or
    /// sits mid-segment (5), cut after 0, 1, 10 or all-but-one bytes.
    #[test]
    fn failed_append_leaves_no_trace() {
        let dir = temp_dir("short");
        let built = build(&dir, 4);
        let files = snapshot(&dir);
        let frame = encode_frame(4, 5, &record(4).txs).len();
        for k in [4, 5] {
            for cut in [0, 1, 10, frame - 1] {
                restore(&dir, &files);
                let mut wal = FleetWal::open(&dir, 256).expect("open");
                let acked: Vec<WalRecord> = (4..k).map(record).collect();
                for r in &acked {
                    append(&mut wal, r).unwrap();
                }
                SHORT_WRITE.set(Some(cut));
                assert!(matches!(
                    append(&mut wal, &record(k)),
                    Err(RecordError::Io(_))
                ));
                append(&mut wal, &record(k + 1)).expect("the next append lands");
                let mut want = built.clone();
                want.extend(acked);
                want.push(record(k + 1));
                assert_eq!(wal.records().unwrap(), want, "batch {k}, cut {cut}");
                let reopened = FleetWal::open(&dir, 256).expect("reopen");
                assert_eq!(reopened.tail_batch(), Some(k + 1));
                assert_eq!(reopened.records().unwrap(), want, "batch {k}, cut {cut}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncation_drops_only_fully_covered_segments() {
        let dir = temp_dir("truncate");
        build(&dir, 12);
        let mut wal = FleetWal::open(&dir, 256).expect("open");
        let before = wal.segment_count().unwrap();
        assert!(before >= 3);
        // Nothing durable: nothing to drop.
        assert_eq!(wal.truncate_covered(0).unwrap(), 0);
        // Everything durable: all but the append segment drops.
        let removed = wal.truncate_covered(12).unwrap();
        assert_eq!(removed as usize, before - 1);
        assert_eq!(wal.segment_count().unwrap(), 1);
        // The surviving tail still reads, and replay from the durable
        // point needs nothing the journal lost.
        let records = wal.records().expect("read");
        assert!(records.iter().all(|r| r.batch < 12));
        // Appends continue after truncation.
        wal.append(12, 13, &[]).expect("append after truncate");
        fs::remove_dir_all(&dir).ok();
    }

    /// The journal's analogue of the checkpoint's every-byte corruption
    /// sweep: flip one bit at every byte offset of every segment, and
    /// require that reading either fails with a typed error or yields a
    /// clean prefix of the pristine records — never a panic, never a
    /// record that differs from what was written.
    #[test]
    fn every_single_byte_corruption_is_loud_or_a_clean_prefix() {
        let dir = temp_dir("sweep");
        let pristine = build(&dir, 5);
        let segments = list_segments(&dir).unwrap();
        assert!(
            segments.len() >= 2,
            "sweep must cover sealed and final segments"
        );
        for seg in &segments {
            let original = fs::read(seg).unwrap();
            for i in 0..original.len() {
                let mut corrupted = original.clone();
                corrupted[i] ^= 1 << (i % 8);
                fs::write(seg, &corrupted).unwrap();
                match read_records(&dir) {
                    Err(_) => {} // typed error: loud, acceptable
                    Ok(records) => {
                        assert!(
                            records.len() <= pristine.len() && records == pristine[..records.len()],
                            "byte {i} of {} replayed silently wrong",
                            seg.display()
                        );
                    }
                }
            }
            fs::write(seg, &original).unwrap();
        }
        // Control: pristine journal reads back exactly.
        assert_eq!(read_records(&dir).unwrap(), pristine);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reading_a_missing_directory_is_empty_not_an_error() {
        let dir = temp_dir("missing");
        assert!(read_records(&dir).unwrap().is_empty());
    }
}
