//! Durable write-ahead log storage (DESIGN.md §5).
//!
//! The engine logs one *logical redo record* per committed writing transaction
//! (encoding lives in `pgssi-engine`); this module only knows about opaque byte
//! payloads and their on-disk framing:
//!
//! ```text
//! frame := [u32 len (LE)] [u32 crc32(payload) (LE)] [payload: len bytes]
//! ```
//!
//! An [`Lsn`] is the byte offset of the *end* of a frame — the log is durable up
//! to `lsn` once every byte before it has been fsynced. Appends are buffered;
//! durability requires an explicit [`WalStore::sync`] (group commit in the engine
//! batches those). On open, [`FileWalStore`] scans the log and truncates at the
//! first torn frame: a length that runs past EOF, a short header, or a checksum
//! mismatch (the paper's host system recovers the same way — replay the durable
//! prefix, discard the torn tail).
//!
//! A checkpoint makes the log's prefix dead weight; [`WalStore::trim_to`]
//! drops it. For files this rewrites the log with a `[magic][base LSN]`
//! header, so LSNs stay stable across trims (`lsn = base + offset past the
//! header`); a never-trimmed log has no header and reads exactly as before.
//!
//! [`MemWalStore`] keeps frames in a `Vec` with a no-op `sync`. It is what
//! tests and the deterministic simulator hand to
//! `Database::open_with_store`; an in-memory database itself has no store.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

/// Log sequence number: byte offset just past a frame in the log. A record with
/// LSN `l` is durable once `synced_lsn >= l`.
pub type Lsn = u64;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER: u64 = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven). Hand-rolled: no external deps.
// ---------------------------------------------------------------------------

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 checksum of `data` (IEEE, as used by zlib/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(crc32_table);
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// WalStore trait
// ---------------------------------------------------------------------------

/// Abstract append-only record log. Implementations frame, checksum, and store
/// byte payloads; the engine decides what the payloads mean.
pub trait WalStore: Send + Sync {
    /// Buffer `payload` as the next record. Returns the record's [`Lsn`] (offset
    /// just past its frame). The record is *not* durable until a subsequent
    /// [`sync`](WalStore::sync) covers it.
    fn append(&self, payload: &[u8]) -> std::io::Result<Lsn>;

    /// Flush all buffered appends to durable storage (fsync for files). Returns
    /// the LSN up to which the log is now durable.
    fn sync(&self) -> std::io::Result<Lsn>;

    /// Offset just past the last appended (not necessarily synced) record.
    fn end_lsn(&self) -> Lsn;

    /// True if `sync` actually pays for durability (drives group commit); the
    /// in-memory store returns false so commits never park.
    fn is_durable(&self) -> bool;

    /// Read back every record as `(lsn, payload)`, in append order.
    /// `lsn` is the offset just past the record's frame, matching
    /// [`append`](WalStore::append)'s return value.
    fn read_all(&self) -> std::io::Result<Vec<(Lsn, Vec<u8>)>>;

    /// Drop every record with `lsn <= up_to` from storage. `up_to` is clamped
    /// down to the nearest frame boundary; surviving records keep their LSNs
    /// (the log's *base* advances, offsets into the file do not define LSNs
    /// anymore). Checkpointing calls this after the checkpoint image is
    /// durable — recovery never replays the dropped prefix. Default: no-op,
    /// for stores that keep the whole log.
    fn trim_to(&self, _up_to: Lsn) -> std::io::Result<()> {
        Ok(())
    }

    /// LSN of the trimmed-away prefix: every surviving record has `lsn >
    /// base_lsn()`. 0 for a never-trimmed log. Recovery uses this to detect a
    /// trimmed log whose covering checkpoint is missing or corrupt — a state
    /// that must fail loudly instead of replaying a beheaded log.
    fn base_lsn(&self) -> Lsn {
        0
    }
}

// ---------------------------------------------------------------------------
// MemWalStore
// ---------------------------------------------------------------------------

/// In-memory [`WalStore`]: frames are notional (LSNs advance as if framed on
/// disk, so switching stores never changes LSN arithmetic) and `sync` is free.
pub struct MemWalStore {
    state: Mutex<MemWalState>,
}

struct MemWalState {
    records: Vec<(Lsn, Vec<u8>)>,
    /// Offset just past the last append — kept separately so a trimmed-empty
    /// log keeps allocating monotonic LSNs.
    end: Lsn,
    /// Largest trimmed-away LSN (see [`WalStore::base_lsn`]).
    base: Lsn,
}

impl MemWalStore {
    pub fn new() -> MemWalStore {
        MemWalStore {
            state: Mutex::new(MemWalState {
                records: Vec::new(),
                end: 0,
                base: 0,
            }),
        }
    }
}

impl Default for MemWalStore {
    fn default() -> Self {
        Self::new()
    }
}

impl WalStore for MemWalStore {
    fn append(&self, payload: &[u8]) -> std::io::Result<Lsn> {
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::WalAppend);
        let mut st = self.state.lock();
        let lsn = st.end + FRAME_HEADER + payload.len() as u64;
        st.records.push((lsn, payload.to_vec()));
        st.end = lsn;
        Ok(lsn)
    }

    fn sync(&self) -> std::io::Result<Lsn> {
        Ok(self.end_lsn())
    }

    fn end_lsn(&self) -> Lsn {
        self.state.lock().end
    }

    fn is_durable(&self) -> bool {
        false
    }

    fn read_all(&self) -> std::io::Result<Vec<(Lsn, Vec<u8>)>> {
        Ok(self.state.lock().records.clone())
    }

    fn trim_to(&self, up_to: Lsn) -> std::io::Result<()> {
        let mut st = self.state.lock();
        st.records.retain(|(lsn, _)| *lsn > up_to);
        let covered = st.records.first().map_or(st.end, |(lsn, _)| *lsn);
        st.base = st.base.max(up_to.min(covered));
        Ok(())
    }

    fn base_lsn(&self) -> Lsn {
        self.state.lock().base
    }
}

// ---------------------------------------------------------------------------
// FileWalStore
// ---------------------------------------------------------------------------

struct FileWalState {
    writer: BufWriter<File>,
    /// LSN just past the last buffered append (`base` + file frame bytes).
    end: Lsn,
    /// LSN of the trimmed-away prefix: records `<= base` no longer exist on
    /// disk. 0 for a never-trimmed log (which also has no file header).
    base: Lsn,
}

/// File-backed [`WalStore`]: buffered appends to a single log file, explicit
/// fsync, torn-tail truncation on open, and checkpoint-driven prefix trimming
/// ([`WalStore::trim_to`] rewrites the file with a base-LSN header so
/// surviving records keep their LSNs).
pub struct FileWalStore {
    path: PathBuf,
    state: Mutex<FileWalState>,
    /// Bytes discarded from the tail at open time (torn final record), if any.
    truncated_tail: u64,
}

/// Magic prefix of a trimmed log file, followed by the 8-byte base LSN (LE).
/// A never-trimmed log has no header — its first bytes are a frame — so old
/// log files open unchanged. A frame can't impersonate the header: that would
/// take a ~1.4 GB length field *and* a colliding checksum in the same 8 bytes.
const HEADER_MAGIC: &[u8; 8] = b"PGSSIWAL";
/// Header length when present (magic + base LSN).
const HEADER_LEN: usize = 16;

/// Split a log image into `(base_lsn, frame_region_start)`.
fn parse_header(bytes: &[u8]) -> (Lsn, usize) {
    if bytes.len() >= HEADER_LEN && &bytes[..HEADER_MAGIC.len()] == HEADER_MAGIC {
        let base = u64::from_le_bytes(bytes[8..HEADER_LEN].try_into().unwrap());
        (base, HEADER_LEN)
    } else {
        (0, 0)
    }
}

impl FileWalStore {
    /// Open (or create) the log at `path`, scan it for torn frames, and truncate
    /// at the first bad one. Subsequent appends continue from the good prefix.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<FileWalStore> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (base, data_start) = parse_header(&bytes);
        let good = scan_frames(&bytes[data_start..])
            .last()
            .map_or(0, |(lsn, _)| *lsn);
        let file_good = data_start as u64 + good;
        let truncated_tail = bytes.len() as u64 - file_good;
        if truncated_tail > 0 {
            file.set_len(file_good)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(file_good))?;
        Ok(FileWalStore {
            path,
            state: Mutex::new(FileWalState {
                writer: BufWriter::new(file),
                end: base + good,
                base,
            }),
            truncated_tail,
        })
    }

    /// Bytes dropped from the torn tail when this store was opened.
    pub fn truncated_tail(&self) -> u64 {
        self.truncated_tail
    }

    /// Path of the underlying log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalStore for FileWalStore {
    fn append(&self, payload: &[u8]) -> std::io::Result<Lsn> {
        // Sim yield before the state lock, never inside it: the lock is held
        // only between yield points, so a parked thread never holds it.
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::WalAppend);
        let mut st = self.state.lock();
        let len = payload.len() as u32;
        st.writer.write_all(&len.to_le_bytes())?;
        st.writer.write_all(&crc32(payload).to_le_bytes())?;
        st.writer.write_all(payload)?;
        st.end += FRAME_HEADER + payload.len() as u64;
        Ok(st.end)
    }

    fn sync(&self) -> std::io::Result<Lsn> {
        pgssi_common::sim::yield_point(pgssi_common::sim::Site::WalSync);
        let mut st = self.state.lock();
        st.writer.flush()?;
        st.writer.get_ref().sync_data()?;
        Ok(st.end)
    }

    fn end_lsn(&self) -> Lsn {
        self.state.lock().end
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn read_all(&self) -> std::io::Result<Vec<(Lsn, Vec<u8>)>> {
        {
            let mut st = self.state.lock();
            st.writer.flush()?;
        }
        let mut file = File::open(&self.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (base, data_start) = parse_header(&bytes);
        Ok(scan_frames(&bytes[data_start..])
            .iter()
            .map(|(lsn, range)| {
                let payload = bytes[data_start + range.start..data_start + range.end].to_vec();
                (base + lsn, payload)
            })
            .collect())
    }

    /// Rewrite the file without the frames ending at or before `up_to`: the
    /// surviving suffix is copied behind a `[magic][base LSN]` header to a
    /// temp file, fsynced, and renamed over the log. LSNs are stable across
    /// the trim (they are `base`-relative, not file offsets), so appenders and
    /// recovery never notice beyond the shorter replay.
    fn trim_to(&self, up_to: Lsn) -> std::io::Result<()> {
        let mut st = self.state.lock();
        if up_to <= st.base {
            return Ok(());
        }
        st.writer.flush()?;
        let bytes = std::fs::read(&self.path)?;
        let (base, data_start) = parse_header(&bytes);
        // Clamp down to the last frame boundary `up_to` fully covers.
        let new_base = scan_frames(&bytes[data_start..])
            .iter()
            .map(|(end, _)| base + end)
            .take_while(|end| *end <= up_to)
            .last()
            .unwrap_or(base);
        if new_base <= base {
            return Ok(());
        }
        let keep_from = data_start + (new_base - base) as usize;
        let tmp = self.path.with_extension("trim");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(HEADER_MAGIC)?;
            f.write_all(&new_base.to_le_bytes())?;
            f.write_all(&bytes[keep_from..])?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                File::open(dir)?.sync_all()?;
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        st.writer = BufWriter::new(file);
        st.base = new_base;
        // `end` is an absolute LSN; dropping a prefix does not move it.
        Ok(())
    }

    fn base_lsn(&self) -> Lsn {
        self.state.lock().base
    }
}

/// Parse `bytes` into well-formed frames, stopping at the first torn one
/// (short header, length past EOF, or checksum mismatch). Returns
/// `(end_lsn, payload_range)` per good frame.
fn scan_frames(bytes: &[u8]) -> Vec<(Lsn, std::ops::Range<usize>)> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER as usize {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + FRAME_HEADER as usize;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > bytes.len() || crc32(&bytes[start..end]) != crc {
            break;
        }
        frames.push((end as Lsn, start..end));
        pos = end;
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pgssi-walstore-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_values() {
        // Reference vectors for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn mem_store_roundtrip() {
        let s = MemWalStore::new();
        let l1 = s.append(b"abc").unwrap();
        let l2 = s.append(b"").unwrap();
        assert_eq!(l1, FRAME_HEADER + 3);
        assert_eq!(l2, l1 + FRAME_HEADER);
        assert_eq!(s.sync().unwrap(), l2);
        assert_eq!(
            s.read_all().unwrap(),
            vec![(l1, b"abc".to_vec()), (l2, Vec::new())]
        );
        assert!(!s.is_durable());
    }

    #[test]
    fn file_store_roundtrip_across_reopen() {
        let path = tmpfile("roundtrip");
        let (l1, l2);
        {
            let s = FileWalStore::open(&path).unwrap();
            l1 = s.append(b"hello").unwrap();
            l2 = s.append(b"world!").unwrap();
            s.sync().unwrap();
        }
        let s = FileWalStore::open(&path).unwrap();
        assert_eq!(s.truncated_tail(), 0);
        assert_eq!(s.end_lsn(), l2);
        assert_eq!(
            s.read_all().unwrap(),
            vec![(l1, b"hello".to_vec()), (l2, b"world!".to_vec())]
        );
        let l3 = s.append(b"more").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_all().unwrap().len(), 3);
        assert_eq!(l3, l2 + FRAME_HEADER + 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncated_at_every_offset() {
        // Build a log of three records, then truncate the file at every byte
        // boundary inside the last frame: reopen must keep exactly the frames
        // that fit entirely in the prefix.
        let path = tmpfile("torn");
        let full = {
            let s = FileWalStore::open(&path).unwrap();
            s.append(b"first-record").unwrap();
            s.append(b"second").unwrap();
            s.append(b"third-and-final").unwrap();
            s.sync().unwrap()
        };
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, full);
        let second_end = (FRAME_HEADER + 12 + FRAME_HEADER + 6) as usize;
        for cut in second_end..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let s = FileWalStore::open(&path).unwrap();
            let recs = s.read_all().unwrap();
            assert_eq!(recs.len(), 2, "cut at {cut}");
            assert_eq!(s.truncated_tail(), (cut - second_end) as u64);
            assert_eq!(s.end_lsn(), second_end as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_truncates_from_there() {
        let path = tmpfile("badcrc");
        {
            let s = FileWalStore::open(&path).unwrap();
            s.append(b"aaaa").unwrap();
            s.append(b"bbbb").unwrap();
            s.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the second record.
        let idx = (FRAME_HEADER + 4 + FRAME_HEADER) as usize;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let s = FileWalStore::open(&path).unwrap();
        let recs = s.read_all().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, b"aaaa");
        // The torn suffix (whole second frame) was dropped.
        assert_eq!(s.truncated_tail(), FRAME_HEADER + 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_torn_open_continue_cleanly() {
        let path = tmpfile("resume");
        {
            let s = FileWalStore::open(&path).unwrap();
            s.append(b"keep").unwrap();
            s.append(b"torn").unwrap();
            s.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        {
            let s = FileWalStore::open(&path).unwrap();
            assert_eq!(s.read_all().unwrap().len(), 1);
            s.append(b"fresh").unwrap();
            s.sync().unwrap();
        }
        let s = FileWalStore::open(&path).unwrap();
        let recs: Vec<Vec<u8>> = s.read_all().unwrap().into_iter().map(|(_, p)| p).collect();
        assert_eq!(recs, vec![b"keep".to_vec(), b"fresh".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_trim_drops_prefix_and_keeps_lsns() {
        let s = MemWalStore::new();
        let l1 = s.append(b"aa").unwrap();
        let l2 = s.append(b"bb").unwrap();
        s.trim_to(l1).unwrap();
        assert_eq!(s.read_all().unwrap(), vec![(l2, b"bb".to_vec())]);
        // New appends continue from the pre-trim end, even if trimmed empty.
        s.trim_to(l2).unwrap();
        assert!(s.read_all().unwrap().is_empty());
        let l3 = s.append(b"cc").unwrap();
        assert_eq!(l3, l2 + FRAME_HEADER + 2);
    }

    #[test]
    fn file_trim_drops_prefix_and_survives_reopen() {
        let path = tmpfile("trim");
        let (l1, l2, l3);
        {
            let s = FileWalStore::open(&path).unwrap();
            l1 = s.append(b"first").unwrap();
            l2 = s.append(b"second").unwrap();
            l3 = s.append(b"third").unwrap();
            s.sync().unwrap();
            // Trim below any boundary: no-op.
            s.trim_to(l1 - 1).unwrap();
            assert_eq!(s.read_all().unwrap().len(), 3);
            // Mid-frame target clamps down to l1's boundary.
            s.trim_to(l2 - 1).unwrap();
            assert_eq!(
                s.read_all().unwrap(),
                vec![(l2, b"second".to_vec()), (l3, b"third".to_vec())]
            );
            assert_eq!(s.end_lsn(), l3);
        }
        // The header round-trips: reopen sees the same LSNs, appends continue.
        let s = FileWalStore::open(&path).unwrap();
        assert_eq!(s.truncated_tail(), 0);
        assert_eq!(s.end_lsn(), l3);
        let l4 = s.append(b"fourth!").unwrap();
        s.sync().unwrap();
        assert_eq!(l4, l3 + FRAME_HEADER + 7);
        // Trimming an already-trimmed log advances the base again.
        s.trim_to(l3).unwrap();
        assert_eq!(s.read_all().unwrap(), vec![(l4, b"fourth!".to_vec())]);
        let s2 = FileWalStore::open(&path).unwrap();
        assert_eq!(s2.read_all().unwrap(), vec![(l4, b"fourth!".to_vec())]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_after_trim_respects_header() {
        let path = tmpfile("trimtorn");
        let l2 = {
            let s = FileWalStore::open(&path).unwrap();
            let l1 = s.append(b"gone").unwrap();
            let l2 = s.append(b"kept").unwrap();
            s.append(b"torn").unwrap();
            s.sync().unwrap();
            s.trim_to(l1).unwrap();
            l2
        };
        // Tear the last frame's final byte off the trimmed file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let s = FileWalStore::open(&path).unwrap();
        assert_eq!(s.truncated_tail(), FRAME_HEADER + 3);
        assert_eq!(s.read_all().unwrap(), vec![(l2, b"kept".to_vec())]);
        assert_eq!(s.end_lsn(), l2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn giant_length_prefix_is_torn() {
        let path = tmpfile("giantlen");
        {
            let s = FileWalStore::open(&path).unwrap();
            s.append(b"ok").unwrap();
            s.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Append a frame header claiming a huge payload with no bytes behind it.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"xx");
        std::fs::write(&path, &bytes).unwrap();
        let s = FileWalStore::open(&path).unwrap();
        assert_eq!(s.read_all().unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
