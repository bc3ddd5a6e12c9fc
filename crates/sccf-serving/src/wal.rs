//! Per-shard write-ahead log and incremental checkpoints — the
//! durability layer under [`crate::sharded::ShardedEngine`].
//!
//! ## On-disk formats
//!
//! **WAL** (`wal-{shard}.log`, magic `SCCFWL01`): the 8-byte magic
//! followed by a sequence of CRC-32-protected frames
//! (`sccf_util::framing`), one per ingested event. A frame payload is
//! `[tag: u8 = 1][seq: u64 le][user: u32 le][item: u32 le]`; `seq` is
//! the router-assigned global event sequence number, which totally
//! orders events across shard files at replay time. Shard workers
//! log a *group* of queued events with one `write_all`
//! ([`WalWriter::append_all`]) *before* applying any of them, and
//! `fsync` every `fsync_every` records; a group never crosses an fsync
//! point, so the file bytes, every synced prefix and [`WalStatus`] are
//! those of one append per record, whatever the grouping. The unsynced
//! tail — the only region a crash can tear — is bounded by the fsync
//! cadence. Checkpoints
//! rotate the log ([`WalWriter::rotate`]): the active segment is
//! sealed by rename to `wal-{shard}-{max_seq:016}.log` once the
//! checkpoint watermark covers it, and sealed segments below the
//! *previous* watermark are pruned — WAL disk stays bounded by
//! roughly one checkpoint interval per shard while recovery keeps
//! enough depth for the trailing-corrupt-checkpoint fallback.
//!
//! **Checkpoint** (`ckpt-{epoch:08}.ckpt`, magic `SCCFCP01`): the
//! magic, one CRC-framed header (`epoch`, `watermark`, `n_entries`),
//! then `n_entries` CRC-framed per-user blobs in
//! `sccf_core::encode_user_state` format. `watermark` is the global
//! sequence number the checkpoint is consistent with: every event with
//! `seq <= watermark` is reflected, none after. Epoch 0 is a full
//! export; later epochs carry only users dirtied since the previous
//! one, so recovery overlays newest-blob-per-user across the chain.
//!
//! ## Torn tails
//!
//! Scanning stops at the first frame that is incomplete (stream ends
//! mid-frame), has an impossible length, fails its CRC, or decodes to
//! an impossible record. Everything before that point is trusted;
//! everything from it on is discarded by truncating the file — a
//! corrupt frame is never partially applied. [`scan_wal`] reports
//! which of those tail states it saw so recovery can log the
//! distinction, but the handling is identical.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use sccf_util::codec::{put_u32, put_u64, put_u8, DecodeError, Reader};
use sccf_util::framing::{decode_frame, write_frame, Frame, FRAME_HEADER_LEN};

/// File magic for per-shard WAL files.
pub const WAL_MAGIC: &[u8; 8] = b"SCCFWL01";
/// File magic for checkpoint files.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SCCFCP01";

const RECORD_TAG_EVENT: u8 = 1;
/// Encoded payload size of one event record.
pub const RECORD_PAYLOAD_LEN: usize = 1 + 8 + 4 + 4;
/// Full on-disk footprint of one WAL record (frame header + payload).
pub const RECORD_FRAME_LEN: usize = FRAME_HEADER_LEN + RECORD_PAYLOAD_LEN;

/// One durably logged ingest event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Router-assigned global sequence number (totally orders events
    /// across all shard files).
    pub seq: u64,
    pub user: u32,
    pub item: u32,
}

/// Durability-layer failure: an I/O error or a typed decode rejection.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// File does not start with the expected magic.
    BadMagic,
    /// Stream ended before a declared field.
    Truncated,
    /// A decoded field is structurally impossible (message says which).
    Corrupt(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::BadMagic => write!(f, "wal: bad magic"),
            WalError::Truncated => write!(f, "wal: truncated"),
            WalError::Corrupt(what) => write!(f, "wal: corrupt {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => WalError::BadMagic,
            DecodeError::Truncated => WalError::Truncated,
            DecodeError::Invalid(what) => WalError::Corrupt(what),
        }
    }
}

/// Encode one record's frame payload into `buf` (cleared first).
pub fn encode_record_into(buf: &mut Vec<u8>, rec: WalRecord) {
    buf.clear();
    put_u8(buf, RECORD_TAG_EVENT);
    put_u64(buf, rec.seq);
    put_u32(buf, rec.user);
    put_u32(buf, rec.item);
}

/// Decode one frame payload back into a record.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, WalError> {
    if payload.len() != RECORD_PAYLOAD_LEN {
        return Err(WalError::Corrupt("record length"));
    }
    let mut r = Reader::new(payload);
    if r.u8()? != RECORD_TAG_EVENT {
        return Err(WalError::Corrupt("record tag"));
    }
    Ok(WalRecord {
        seq: r.u64()?,
        user: r.u32()?,
        item: r.u32()?,
    })
}

/// Why a WAL scan stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The file ended exactly on a frame boundary.
    Clean,
    /// The file ended mid-frame — the normal shape after a crash.
    Torn,
    /// A complete frame failed its CRC or decoded to an impossible
    /// record (bit rot / bit flip).
    CorruptFrame,
}

/// Result of scanning one WAL byte stream.
#[derive(Debug)]
pub struct WalScan {
    /// Surviving records with the byte offset of each one's frame
    /// start (offsets let the crash-sweep tests cut at exact record
    /// boundaries).
    pub records: Vec<(usize, WalRecord)>,
    /// Length of the trusted prefix (magic + whole valid frames);
    /// recovery truncates the file to this.
    pub valid_len: usize,
    /// What stopped the scan.
    pub tail: WalTail,
}

/// Scan a WAL byte stream: validate the magic, then walk frames until
/// the stream ends or a frame fails validation. Never panics on
/// arbitrary input.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    Reader::new(bytes).magic(WAL_MAGIC)?;
    let mut pos = WAL_MAGIC.len();
    let mut records = Vec::new();
    let tail = loop {
        if pos == bytes.len() {
            break WalTail::Clean;
        }
        match decode_frame(&bytes[pos..]) {
            Frame::Incomplete => break WalTail::Torn,
            Frame::Corrupt => break WalTail::CorruptFrame,
            Frame::Complete { payload } => match decode_record(payload) {
                Ok(rec) => {
                    records.push((pos, rec));
                    pos += FRAME_HEADER_LEN + payload.len();
                }
                Err(_) => break WalTail::CorruptFrame,
            },
        }
    };
    Ok(WalScan {
        records,
        valid_len: pos,
        tail,
    })
}

/// WAL file length bookkeeping, as reported by [`WalWriter::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Bytes written (magic + all appended frames).
    pub len: u64,
    /// Bytes guaranteed on stable storage (through the last fsync).
    pub synced_len: u64,
    /// Records appended over this writer's lifetime.
    pub appended: u64,
    /// fsync calls issued by this writer.
    pub syncs: u64,
}

/// Append-side handle to one shard's WAL file.
///
/// An append is one `write_all` of a group of records' pre-encoded
/// frames (one reusable buffer, no per-record allocation), cut at
/// every fsync point: the `fsync` lands after exactly every
/// `fsync_every`-th record, as if each record were written alone. The
/// writer tracks `synced_len` so the chaos harness can simulate a
/// crash by truncating the file to exactly what a real power loss
/// would have preserved.
pub struct WalWriter {
    file: fs::File,
    /// The active segment's path — kept so [`WalWriter::rotate`] can
    /// seal it by rename and reopen a fresh segment in its place.
    path: PathBuf,
    len: u64,
    synced_len: u64,
    appended: u64,
    syncs: u64,
    pending: u32,
    fsync_every: u32,
    /// Highest sequence number in the active segment (0 when empty) —
    /// the seal decision and the sealed segment's name both come from
    /// it.
    max_seq: u64,
    /// One record's payload, encoded before it is framed.
    buf: Vec<u8>,
    /// One write's frames; grows to the largest group written.
    frames: Vec<u8>,
}

impl WalWriter {
    /// Create a fresh WAL file (fails if it exists — recovery reopens
    /// via [`WalWriter::reopen`] after tail truncation) and durably
    /// write the magic.
    pub fn create(path: &Path, fsync_every: u32) -> Result<Self, WalError> {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            len: WAL_MAGIC.len() as u64,
            synced_len: WAL_MAGIC.len() as u64,
            appended: 0,
            syncs: 0,
            pending: 0,
            fsync_every: fsync_every.max(1),
            max_seq: 0,
            buf: Vec::with_capacity(RECORD_PAYLOAD_LEN),
            frames: Vec::with_capacity(RECORD_FRAME_LEN),
        })
    }

    /// Reopen an existing WAL for appending. The caller (recovery) has
    /// already scanned and truncated the file to its trusted prefix;
    /// this validates the magic, recovers the segment's highest
    /// sequence number (for [`WalWriter::rotate`]'s seal decision) and
    /// positions at the end.
    pub fn reopen(path: &Path, fsync_every: u32) -> Result<Self, WalError> {
        let bytes = fs::read(path)?;
        let max_seq = scan_wal(&bytes)?
            .records
            .iter()
            .map(|&(_, r)| r.seq)
            .max()
            .unwrap_or(0);
        let file = fs::OpenOptions::new().append(true).open(path)?;
        let len = bytes.len() as u64;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            len,
            synced_len: len,
            appended: 0,
            syncs: 0,
            pending: 0,
            fsync_every: fsync_every.max(1),
            max_seq,
            buf: Vec::with_capacity(RECORD_PAYLOAD_LEN),
            frames: Vec::with_capacity(RECORD_FRAME_LEN),
        })
    }

    /// Append one record; fsyncs when the batch cadence is reached.
    /// Call *before* applying the event to engine state.
    pub fn append(&mut self, rec: WalRecord) -> Result<(), WalError> {
        self.append_all(&[rec])
    }

    /// Append `records` in order — one `write_all` per run of records
    /// up to the next fsync point, then the fsync when the run reaches
    /// it, so a group that stops at the fsync point is one write. Call
    /// *before* applying any of the events to engine state.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        let mut rest = records;
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(rest.len().min(self.until_sync()));
            self.frames.clear();
            for &rec in run {
                encode_record_into(&mut self.buf, rec);
                write_frame(&mut self.frames, &self.buf)?;
            }
            self.file.write_all(&self.frames)?;
            self.max_seq = run.iter().fold(self.max_seq, |m, r| m.max(r.seq));
            self.len += self.frames.len() as u64;
            self.appended += run.len() as u64;
            // `run` is at most `until_sync()` ≤ `fsync_every` records.
            self.pending += run.len() as u32;
            if self.pending >= self.fsync_every {
                self.sync()?;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Records that can still be appended before the next fsync —
    /// the largest group [`WalWriter::append_all`] writes at once.
    pub(crate) fn until_sync(&self) -> usize {
        (self.fsync_every - self.pending) as usize
    }

    /// Segment rotation, called after a checkpoint: seal the active
    /// segment once the checkpoint watermark covers every record in it
    /// (`max_seq <= seal_upto`), then prune sealed segments wholly
    /// covered by `prune_upto`. Returns `(sealed, pruned)` counts.
    ///
    /// Sealing renames `wal-{s}.log` to `wal-{s}-{max_seq:016}.log`
    /// (still matched by [`list_wal_files`], so recovery replays sealed
    /// segments with no special handling) and starts a fresh active
    /// segment — this is what bounds the active file, and with pruning,
    /// total WAL disk, to roughly one checkpoint interval per shard.
    /// Pruning deletes a sealed segment only when its name's sequence
    /// is `<= prune_upto`; the engine passes the *previous* watermark
    /// there, deliberately keeping one extra checkpoint interval of
    /// records on disk so recovery's trailing-corrupt-checkpoint
    /// fallback (previous epoch + deeper replay) still finds them.
    /// Everything is fsync'd (file, renames, directory) before return.
    pub fn rotate(&mut self, seal_upto: u64, prune_upto: u64) -> Result<(u64, u64), WalError> {
        self.sync()?;
        let dir = self
            .path
            .parent()
            .ok_or(WalError::Corrupt("wal path has no parent directory"))?
            .to_path_buf();
        let stem = self
            .path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or(WalError::Corrupt("wal path has no file stem"))?
            .to_string();
        let mut sealed = 0u64;
        if self.len > WAL_MAGIC.len() as u64 && self.max_seq <= seal_upto {
            let sealed_path = dir.join(format!("{stem}-{:016}.log", self.max_seq));
            fs::rename(&self.path, &sealed_path)?;
            let mut file = fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&self.path)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            self.file = file;
            self.len = WAL_MAGIC.len() as u64;
            self.synced_len = self.len;
            self.pending = 0;
            self.max_seq = 0;
            self.syncs += 1;
            sealed = 1;
        }
        let mut pruned = 0u64;
        let prefix = format!("{stem}-");
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(seq) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|num| num.parse::<u64>().ok())
            else {
                continue;
            };
            if seq <= prune_upto {
                fs::remove_file(&path)?;
                pruned += 1;
            }
        }
        if sealed > 0 || pruned > 0 {
            // Durable renames/removals: the directory entry changes
            // must survive a crash just like the data.
            fs::File::open(&dir)?.sync_all()?;
        }
        Ok((sealed, pruned))
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.synced_len != self.len {
            self.file.sync_data()?;
            self.syncs += 1;
        }
        self.synced_len = self.len;
        self.pending = 0;
        Ok(())
    }

    pub fn status(&self) -> WalStatus {
        WalStatus {
            len: self.len,
            synced_len: self.synced_len,
            appended: self.appended,
            syncs: self.syncs,
        }
    }
}

/// Path of shard `s`'s WAL file inside a durability directory.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-{shard}.log"))
}

/// Path of the epoch-`e` checkpoint file inside a durability directory.
pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:08}.ckpt"))
}

/// All WAL files in a durability directory (any shard count — recovery
/// replays files left behind by larger fleets of past lifetimes too).
pub fn list_wal_files(dir: &Path) -> Result<Vec<PathBuf>, WalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if name.starts_with("wal-") && name.ends_with(".log") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// `(epoch, path)` of every checkpoint file in a durability directory,
/// sorted ascending by epoch.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(num) = name
            .strip_prefix("ckpt-")
            .and_then(|n| n.strip_suffix(".ckpt"))
        {
            if let Ok(epoch) = num.parse::<u64>() {
                out.push((epoch, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A decoded checkpoint file.
#[derive(Debug)]
pub struct Checkpoint {
    /// Position in the incremental chain (0 = full export).
    pub epoch: u64,
    /// Global event sequence number this checkpoint is consistent
    /// with: every `seq <= watermark` reflected, none after.
    pub watermark: u64,
    /// Per-user state blobs (`sccf_core::encode_user_state` format).
    pub blobs: Vec<Vec<u8>>,
}

/// Serialize a checkpoint: magic, CRC-framed header, CRC-framed blobs.
///
/// # Panics
/// If one blob exceeds `sccf_util::framing::MAX_FRAME_LEN` (a single
/// user's state above 16 MiB — four million history items).
pub fn encode_checkpoint(epoch: u64, watermark: u64, blobs: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        WAL_MAGIC.len()
            + FRAME_HEADER_LEN
            + 24
            + blobs
                .iter()
                .map(|b| FRAME_HEADER_LEN + b.len())
                .sum::<usize>(),
    );
    out.extend_from_slice(CHECKPOINT_MAGIC);
    let mut header = Vec::with_capacity(24);
    put_u64(&mut header, epoch);
    put_u64(&mut header, watermark);
    put_u64(&mut header, blobs.len() as u64);
    write_frame(&mut out, &header).expect("a 24-byte header fits a frame");
    for blob in blobs {
        write_frame(&mut out, blob).expect("a user-state blob fits a frame");
    }
    out
}

/// Decode and fully validate a checkpoint byte stream. Unlike the WAL
/// (where a torn tail is expected), a checkpoint is written atomically
/// — any defect rejects the whole file.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WalError> {
    let mut r = Reader::new(bytes);
    r.magic(CHECKPOINT_MAGIC)?;
    let mut rest = r.rest();
    fn next<'a>(rest: &mut &'a [u8], what: &'static str) -> Result<&'a [u8], WalError> {
        match decode_frame(rest) {
            Frame::Incomplete => Err(WalError::Truncated),
            Frame::Corrupt => Err(WalError::Corrupt(what)),
            Frame::Complete { payload } => {
                *rest = &rest[FRAME_HEADER_LEN + payload.len()..];
                Ok(payload)
            }
        }
    }
    let header = next(&mut rest, "checkpoint header")?;
    if header.len() != 24 {
        return Err(WalError::Corrupt("checkpoint header length"));
    }
    let mut h = Reader::new(header);
    let epoch = h.u64()?;
    let watermark = h.u64()?;
    // A corrupt count cannot allocate more than the stream could hold:
    // every entry costs at least a frame header.
    let n_entries = usize::try_from(h.u64()?)
        .ok()
        .filter(|&n| n <= rest.len() / FRAME_HEADER_LEN)
        .ok_or(WalError::Corrupt("entry count"))?;
    let mut blobs = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        blobs.push(next(&mut rest, "checkpoint entry")?.to_vec());
    }
    if !rest.is_empty() {
        return Err(WalError::Corrupt("trailing bytes"));
    }
    Ok(Checkpoint {
        epoch,
        watermark,
        blobs,
    })
}

/// Write a checkpoint atomically: temp file in the same directory,
/// `fsync`, rename into place, `fsync` the directory. A crash at any
/// point leaves either no visible file or a complete valid one.
pub fn write_checkpoint_atomic(
    dir: &Path,
    epoch: u64,
    watermark: u64,
    blobs: &[Vec<u8>],
) -> Result<u64, WalError> {
    let bytes = encode_checkpoint(epoch, watermark, blobs);
    let tmp = dir.join(format!("ckpt-{epoch:08}.tmp"));
    let path = checkpoint_path(dir, epoch);
    {
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    // Durable rename: fsync the directory so the new name survives.
    fs::File::open(dir)?.sync_all()?;
    Ok(bytes.len() as u64)
}

/// Read one WAL file, truncate any invalid tail in place, and return
/// the surviving records plus what was cut. This is the only mutation
/// recovery performs on WAL files.
pub fn read_and_repair_wal(path: &Path) -> Result<(Vec<WalRecord>, WalTail, u64), WalError> {
    let bytes = fs::read(path)?;
    let scan = scan_wal(&bytes)?;
    let cut = (bytes.len() - scan.valid_len) as u64;
    if cut > 0 {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(scan.valid_len as u64)?;
        f.sync_data()?;
    }
    Ok((
        scan.records.into_iter().map(|(_, r)| r).collect(),
        scan.tail,
        cut,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sccf_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            user: (seq % 97) as u32,
            item: (seq % 31) as u32,
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 4).unwrap();
        for s in 0..10 {
            w.append(rec(s)).unwrap();
        }
        w.sync().unwrap();
        let st = w.status();
        assert_eq!(st.len, st.synced_len);
        assert_eq!(st.appended, 10);
        let scan = scan_wal(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        let got: Vec<WalRecord> = scan.records.iter().map(|&(_, r)| r).collect();
        let want: Vec<WalRecord> = (0..10).map(rec).collect();
        assert_eq!(got, want);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Group commit is invisible on disk: a random record stream
    /// appended in random groups — each no longer than the distance to
    /// the next fsync point, the worker's bound — leaves the file bytes
    /// and every status field equal to one `append` per record, checked
    /// after every group.
    #[test]
    fn append_all_pins_bytes_and_status_to_per_record_appends() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let dir = tmp_dir("group_pin");
        for fsync_every in [1u32, 3, 64] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed * 131 + u64::from(fsync_every));
                let records: Vec<WalRecord> = (1..=rng.gen_range(1..300u64))
                    .map(|seq| WalRecord {
                        seq,
                        user: rng.gen_range(0..u32::MAX),
                        item: rng.gen_range(0..u32::MAX),
                    })
                    .collect();
                let one_path = dir.join(format!("one-{fsync_every}-{seed}.log"));
                let all_path = dir.join(format!("all-{fsync_every}-{seed}.log"));
                let mut one = WalWriter::create(&one_path, fsync_every).unwrap();
                let mut all = WalWriter::create(&all_path, fsync_every).unwrap();
                let mut rest = &records[..];
                while !rest.is_empty() {
                    let most = all.until_sync().min(rest.len());
                    let (group, tail) = rest.split_at(rng.gen_range(1..most + 1));
                    all.append_all(group).unwrap();
                    for &rec in group {
                        one.append(rec).unwrap();
                    }
                    assert_eq!(all.status(), one.status(), "fsync_every {fsync_every}");
                    assert_eq!(fs::read(&all_path).unwrap(), fs::read(&one_path).unwrap());
                    rest = tail;
                }
                let st = all.status();
                assert_eq!(st.appended, records.len() as u64);
                assert_eq!(st.syncs, records.len() as u64 / u64::from(fsync_every));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A group longer than the distance to the fsync point is cut
    /// there: the syncs land where per-record appends put them.
    #[test]
    fn append_all_syncs_at_every_fsync_point_inside_a_group() {
        let dir = tmp_dir("group_cut");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append(rec(0)).unwrap();
        w.append_all(&(1..8).map(rec).collect::<Vec<_>>()).unwrap();
        let st = w.status();
        assert_eq!((st.appended, st.syncs), (8, 2));
        assert_eq!(
            st.len - st.synced_len,
            2 * RECORD_FRAME_LEN as u64,
            "records 7 and 8 wait for the third sync"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_cadence_tracks_synced_len() {
        let dir = tmp_dir("cadence");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append(rec(0)).unwrap();
        w.append(rec(1)).unwrap();
        let st = w.status();
        assert_eq!(st.synced_len, WAL_MAGIC.len() as u64);
        assert_eq!(st.len - st.synced_len, 2 * RECORD_FRAME_LEN as u64);
        w.append(rec(2)).unwrap(); // third record triggers the fsync
        let st = w.status();
        assert_eq!(st.len, st.synced_len);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_record() {
        let dir = tmp_dir("torn");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for s in 0..5 {
            w.append(rec(s)).unwrap();
        }
        drop(w);
        let full = fs::read(&path).unwrap();
        // Tear mid-record: keep 3 whole records plus half of the 4th.
        let cut = WAL_MAGIC.len() + 3 * RECORD_FRAME_LEN + RECORD_FRAME_LEN / 2;
        fs::write(&path, &full[..cut]).unwrap();
        let (records, tail, repaired) = read_and_repair_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Torn);
        assert_eq!(records.len(), 3);
        assert!(repaired > 0);
        assert_eq!(
            fs::read(&path).unwrap().len(),
            WAL_MAGIC.len() + 3 * RECORD_FRAME_LEN
        );
        // Idempotent: a second repair is a no-op.
        let (records, tail, repaired) = read_and_repair_wal(&path).unwrap();
        assert_eq!((records.len(), tail, repaired), (3, WalTail::Clean, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_and_cut() {
        let dir = tmp_dir("flip");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for s in 0..4 {
            w.append(rec(s)).unwrap();
        }
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit inside the third record.
        let target = WAL_MAGIC.len() + 2 * RECORD_FRAME_LEN + FRAME_HEADER_LEN + 5;
        bytes[target] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (records, tail, _) = read_and_repair_wal(&path).unwrap();
        assert_eq!(tail, WalTail::CorruptFrame);
        assert_eq!(records.len(), 2, "records after the flip are discarded");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_seals_prunes_and_keeps_records_replayable() {
        let dir = tmp_dir("rotate");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 1).unwrap();
        for s in 1..=4 {
            w.append(rec(s)).unwrap();
        }
        // Checkpoint at watermark 4: seal [1..4], prune nothing (the
        // previous watermark was 0 and the sealed name is seq 4).
        let (sealed, pruned) = w.rotate(4, 0).unwrap();
        assert_eq!((sealed, pruned), (1, 0));
        assert_eq!(
            w.status().len,
            WAL_MAGIC.len() as u64,
            "fresh active segment"
        );
        for s in 5..=7 {
            w.append(rec(s)).unwrap();
        }
        // Both segments are visible to recovery's file listing and
        // together carry the full record set.
        let files = list_wal_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "{files:?}");
        let mut all: Vec<u64> = files
            .iter()
            .flat_map(|f| {
                scan_wal(&fs::read(f).unwrap())
                    .unwrap()
                    .records
                    .into_iter()
                    .map(|(_, r)| r.seq)
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..=7).collect::<Vec<u64>>());
        // Next checkpoint at watermark 7, previous watermark 4: seal
        // [5..7] and prune the seq-4 segment.
        let (sealed, pruned) = w.rotate(7, 4).unwrap();
        assert_eq!((sealed, pruned), (1, 1));
        let files = list_wal_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "active + one sealed: {files:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_skips_empty_and_uncovered_segments() {
        let dir = tmp_dir("rotate_skip");
        let path = wal_path(&dir, 3);
        let mut w = WalWriter::create(&path, 1).unwrap();
        // Empty active segment: nothing to seal.
        assert_eq!(w.rotate(100, 0).unwrap(), (0, 0));
        w.append(rec(9)).unwrap();
        // Watermark below the segment's newest record: must not seal
        // (the segment still holds records a checkpoint doesn't cover).
        assert_eq!(w.rotate(8, 0).unwrap(), (0, 0));
        assert_eq!(w.rotate(9, 0).unwrap(), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_max_seq_for_rotation() {
        let dir = tmp_dir("reopen_seq");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append(rec(41)).unwrap();
        w.append(rec(42)).unwrap();
        drop(w);
        let mut w = WalWriter::reopen(&path, 1).unwrap();
        assert_eq!(w.rotate(41, 0).unwrap(), (0, 0), "seq 42 uncovered");
        assert_eq!(w.rotate(42, 0).unwrap(), (1, 0));
        assert!(dir.join(format!("wal-0-{:016}.log", 42)).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_roundtrip_and_rejection() {
        let blobs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + i as usize]).collect();
        let bytes = encode_checkpoint(3, 12345, &blobs);
        let ck = decode_checkpoint(&bytes).unwrap();
        assert_eq!((ck.epoch, ck.watermark), (3, 12345));
        assert_eq!(ck.blobs, blobs);
        // Any truncation or flip rejects the whole file.
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 1;
        assert!(decode_checkpoint(&bad).is_err());
        assert!(decode_checkpoint(b"garbage").is_err());
    }

    #[test]
    fn atomic_checkpoint_lists_in_epoch_order() {
        let dir = tmp_dir("atomic");
        write_checkpoint_atomic(&dir, 1, 10, &[vec![1]]).unwrap();
        write_checkpoint_atomic(&dir, 0, 0, &[vec![0]]).unwrap();
        write_checkpoint_atomic(&dir, 2, 20, &[vec![2]]).unwrap();
        let found = list_checkpoints(&dir).unwrap();
        assert_eq!(
            found.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        for (e, p) in found {
            let ck = decode_checkpoint(&fs::read(p).unwrap()).unwrap();
            assert_eq!(ck.epoch, e);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
