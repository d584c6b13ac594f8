//! The on-disk record format, written once for both of its users —
//! window checkpoints ([`crate::checkpoint`]) and journal segments
//! ([`crate::journal`]): the CRC, a bounds-checked little-endian reader,
//! the 16-byte transaction encoding, the atomic file write, and the one
//! error type every read or write of either returns.

use crate::transactions::Transaction;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Bytes of one encoded [`Transaction`]: buyer, item, day, amount bits
/// (le u32 each).
pub(crate) const TX_BYTES: usize = 16;

/// Why a checkpoint image or a journal segment failed to read or write.
#[derive(Debug)]
pub enum RecordError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The bytes end inside a field or section they declare — a
    /// truncated or torn record.
    Truncated,
    /// The magic bytes do not name this kind of record.
    BadMagic,
    /// A format version this build does not understand.
    BadVersion(u32),
    /// The stored CRC-32 does not match the bytes.
    BadChecksum {
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// Decoded cleanly but violates an invariant of what it describes: a
    /// window's shape, the journal's batch order, a section's length.
    Invalid(&'static str),
    /// Replay needs batches the journal no longer (or never) covers: the
    /// first relevant record on disk starts after the batch the rebuild
    /// needs next.
    Gap {
        /// First batch index the rebuild needed.
        needed: u64,
        /// First batch index actually available at or after it.
        first: u64,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "record io error: {e}"),
            Self::Truncated => write!(f, "record truncated"),
            Self::BadMagic => write!(f, "bad magic: not a record of the expected kind"),
            Self::BadVersion(v) => write!(f, "unsupported record version {v}"),
            Self::BadChecksum { stored, actual } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, actual {actual:#010x}"
            ),
            Self::Invalid(why) => write!(f, "invalid record: {why}"),
            Self::Gap { needed, first } => write!(
                f,
                "journal gap: rebuild needs batch {needed}, journal starts at {first}"
            ),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<io::Error> for RecordError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the same
/// polynomial gzip and PNG use. Bitwise, no table: records are small or
/// rare, so simplicity wins over speed.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
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

/// `Ok` when `payload` hashes to `stored`.
pub(crate) fn check_crc(stored: u32, payload: &[u8]) -> Result<(), RecordError> {
    let actual = crc32(payload);
    if stored == actual {
        Ok(())
    } else {
        Err(RecordError::BadChecksum { stored, actual })
    }
}

/// Appends `t` in the 16-byte encoding.
pub(crate) fn put_tx(out: &mut Vec<u8>, t: &Transaction) {
    for field in [t.buyer, t.item, t.day, t.amount.to_bits()] {
        out.extend_from_slice(&field.to_le_bytes());
    }
}

/// A little-endian cursor over one record's bytes. Every read past the
/// end is [`RecordError::Truncated`], so no decoder checks a length by
/// hand.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        if n > self.remaining() {
            return Err(RecordError::Truncated);
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// One transaction in the 16-byte encoding ([`put_tx`]).
    pub(crate) fn tx(&mut self) -> Result<Transaction, RecordError> {
        Ok(Transaction {
            buyer: self.u32()?,
            item: self.u32()?,
            day: self.u32()?,
            amount: f32::from_bits(self.u32()?),
        })
    }

    /// `n` items of `each` bytes, read by `item`. The capacity is bounded
    /// by the bytes left, so a corrupt count cannot allocate past the
    /// input, and a sound one allocates exactly once.
    pub(crate) fn many<T>(
        &mut self,
        n: u64,
        each: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, RecordError>,
    ) -> Result<Vec<T>, RecordError> {
        let fits = self.remaining() / each;
        let mut out = Vec::with_capacity(usize::try_from(n).map_or(fits, |n| n.min(fits)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Both formats open with 4 magic bytes and a le u32 version: checks
    /// the magic, and returns the version if `known` lists it.
    pub(crate) fn header(&mut self, magic: &[u8; 4], known: &[u32]) -> Result<u32, RecordError> {
        if self.take(4)? != magic {
            return Err(RecordError::BadMagic);
        }
        let version = self.u32()?;
        if known.contains(&version) {
            Ok(version)
        } else {
            Err(RecordError::BadVersion(version))
        }
    }
}

/// Where [`write_atomic`] stages `path`: the full file name plus `.tmp`,
/// so files that share a stem (a fleet's `<base>.shard<i>` images) never
/// share a temp, and no journal segment listing ever matches one.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Writes `bytes` to `path` through [`temp_path`], synced, then renamed
/// over `path`: a crash at any point leaves the old file or the new one,
/// never a mix.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RecordError> {
    let tmp = temp_path(path);
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    // The rename survives a crash only once the directory holding it does.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::WindowCheckpoint;
    use crate::journal::FleetWal;

    // Captured at the parent of the commit that introduced this module,
    // from the two formats' separate encoders: the shared codec must
    // write the same bytes.
    const STAMPED: &str = concat!(
        "474c505702000000030000000500000011000000000000000400000000000000",
        "0300000007000000000000000000000000000000ffffffffffffffff02000000",
        "0000000001000000020000000300000000009040090000000800000004000000",
        "000080be020000000000000003000000000000000c00000000000000ac2d6192",
    );
    const BARE: &str = concat!(
        "474c505702000000030000000500000011000000000000000400000000000000",
        "0300000007000000000000000000000000000000ffffffffffffffff02000000",
        "0000000001000000020000000300000000009040090000000800000004000000",
        "000080be0000000000000000284ecfe6",
    );
    const V1: &str = concat!(
        "474c505701000000030000000500000011000000000000000400000000000000",
        "0300000007000000000000000000000000000000ffffffffffffffff02000000",
        "0000000001000000020000000300000000009040090000000800000004000000",
        "000080be0803081d",
    );
    const SEGMENT_5: &str = concat!(
        "474c504a01000000050000000000000040000000659c1ee20500000000000000",
        "0a00000002000000640000000000000001000000290000000600000000002040",
        "6500000000000000020000002a000000060000000000e4c0280000003a8b5dd3",
        "06000000000000000b000000010000006600000000000000030000002b000000",
        "060000006f12833a",
    );
    const SEGMENT_9: &str = concat!(
        "474c504a01000000090000000000000010000000c4506f660900000000000000",
        "0c00000000000000",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn image(seqs: Vec<u64>) -> WindowCheckpoint {
        WindowCheckpoint {
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
            seqs,
        }
    }

    #[test]
    fn both_formats_keep_their_bytes() {
        assert_eq!(hex(&image(vec![3, 12]).encode()), STAMPED);
        let bare = image(vec![]).encode();
        assert_eq!(hex(&bare), BARE);

        // A v1 image, hand-built the way an old build wrote one: no
        // stamp section, version field 1, CRC over the rest.
        let mut v1 = bare[..bare.len() - 12].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&v1).to_le_bytes();
        v1.extend_from_slice(&crc);
        assert_eq!(hex(&v1), V1);
        let decoded = WindowCheckpoint::decode(&v1).expect("v1 decodes");
        assert_eq!(hex(&decoded.encode()), BARE, "v1 re-encodes as v2");

        // Three records over two segments (the third does not fit in 136
        // bytes), with a batch skip and inexact amounts.
        let dir = std::env::temp_dir().join(format!("glp_codec_pin_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut wal = FleetWal::open(&dir, 136).unwrap();
        let t = |buyer: u32, amount: f32| Transaction {
            buyer,
            item: buyer + 40,
            day: 6,
            amount,
        };
        wal.append(5, 10, &[(100, t(1, 2.5)), (101, t(2, -7.125))])
            .unwrap();
        wal.append(6, 11, &[(102, t(3, 1e-3))]).unwrap();
        wal.append(9, 12, &[]).unwrap();
        let mut files: Vec<(String, String)> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, hex(&fs::read(&path).unwrap()))
            })
            .collect();
        files.sort();
        let want = [
            ("00000000000000000005.glpwal", SEGMENT_5),
            ("00000000000000000009.glpwal", SEGMENT_9),
        ];
        assert_eq!(files, want.map(|(n, b)| (n.to_string(), b.to_string())));
        fs::remove_dir_all(&dir).ok();
    }
}
