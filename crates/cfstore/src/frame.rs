//! The one byte-level framing under every cfstore file (DESIGN.md §16):
//! the WAL, the `TOPOLOGY` journal, `MANIFEST`, `SHARDS`, and segment
//! blocks and trailers. This module alone knows how a frame is laid out,
//! how a damaged one is classified, how a length prefix is bounds-checked
//! and how an injected crash tears a write; every other module only says
//! which fields its records hold.
//!
//! ## Frame format
//!
//! ```text
//! ┌─────────┬─────────┬──────────────────┐
//! │ len u32 │ crc u32 │ body (len bytes) │
//! └─────────┴─────────┴──────────────────┘
//! ```
//!
//! Integers are big-endian. `len` is the body length; `crc` is CRC-32
//! (IEEE) over the body only. A reader classifies the front of a buffer
//! three ways ([`verify`]): an intact frame, a *torn* one (fewer bytes
//! than the header or than `len` promises — what a crash mid-append
//! leaves), or a *checksum mismatch* (all bytes present, contents
//! changed). Append-only logs truncate either at the tail; files that are
//! swapped in whole (`magic · frame`, [`write_file_atomic`]) cannot be
//! torn by a crash, so there both mean at-rest damage.
//!
//! Inside a body, fields are read with a [`Cursor`] and written with
//! `bytes::BufMut` plus [`put_bytes`]/[`put_str`]: a byte string is
//! `len u32 · bytes`, a sequence is `count u32 · elements`.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use bytes::{BufMut, Bytes};

use crate::encoding::{crc32, CodecError};

/// Bytes of `len · crc` in front of every body.
pub const HEADER_LEN: usize = 8;

/// Why the bytes at the front of a buffer are not an intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header, or than the header's `len`, promises.
    Torn,
    /// Every promised byte is there, but the body fails its CRC.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "torn frame"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

/// Append one frame to `out`; `write_body` appends the body in place, so
/// framing costs no copy of it.
pub fn encode(out: &mut Vec<u8>, write_body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    write_body(out);
    let body = start + HEADER_LEN;
    let len = u32::try_from(out.len() - body).expect("a frame body fits in u32::MAX bytes");
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_be_bytes());
}

/// Classify the frame at the front of `buf` and return its body. The
/// frame spans `HEADER_LEN + body.len()` bytes; what follows is the
/// caller's business.
pub fn verify(buf: &[u8]) -> Result<&[u8], FrameError> {
    let Some((header, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Err(FrameError::Torn);
    };
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let body = rest.get(..len).ok_or(FrameError::Torn)?;
    if crc32(body) != crc {
        return Err(FrameError::BadChecksum);
    }
    Ok(body)
}

/// [`verify`] for a buffer that must hold exactly one frame and nothing
/// else (a segment block, the body of a `magic · frame` file).
pub fn verify_exact(buf: &[u8]) -> Result<&[u8], String> {
    let body = verify(buf).map_err(|e| e.to_string())?;
    match buf.len() - HEADER_LEN - body.len() {
        0 => Ok(body),
        extra => Err(format!("{extra} trailing bytes after the frame")),
    }
}

// ---------------------------------------------------------------------
// Append-only logs of frames (the WAL, the TOPOLOGY journal)
// ---------------------------------------------------------------------

/// Why a walk over back-to-back frames stopped before the end of its
/// buffer: the frame at `valid_bytes` is damaged, or intact and not a
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanStop {
    Frame(FrameError),
    Record(CodecError),
}

/// What a log holds: every record up to the first frame that is not one.
#[derive(Debug)]
pub struct LogScan<T> {
    pub records: Vec<T>,
    /// Byte offset of each record's frame, parallel to `records`.
    pub offsets: Vec<u64>,
    /// Bytes up to the end of the last intact, decodable frame.
    pub valid_bytes: u64,
    /// Length of the buffer; `total_bytes - valid_bytes` is the tail.
    pub total_bytes: u64,
    /// `None` when the buffer ended on a frame boundary.
    pub stop: Option<ScanStop>,
}

/// Walk the frames of `data` from byte `start`, decoding each body with
/// `decode`, and stop — without erroring — at the first one that is
/// torn, fails its CRC or does not decode. What the stop *means* is the
/// caller's: a crash tears the tail of a log, and only some logs can
/// explain an intact frame that is not a record.
pub fn scan_log<T>(
    data: &[u8],
    start: usize,
    mut decode: impl FnMut(&[u8]) -> Result<T, CodecError>,
) -> LogScan<T> {
    let (mut records, mut offsets, mut stop) = (Vec::new(), Vec::new(), None);
    let mut at = start;
    while at < data.len() {
        let record = match verify(&data[at..]) {
            Ok(body) => decode(body)
                .map(|r| (r, body.len()))
                .map_err(ScanStop::Record),
            Err(e) => Err(ScanStop::Frame(e)),
        };
        match record {
            Ok((record, body_len)) => {
                records.push(record);
                offsets.push(at as u64);
                at += HEADER_LEN + body_len;
            }
            Err(why) => {
                stop = Some(why);
                break;
            }
        }
    }
    LogScan {
        records,
        offsets,
        valid_bytes: at as u64,
        total_bytes: data.len() as u64,
        stop,
    }
}

// ---------------------------------------------------------------------
// `magic · frame` files (MANIFEST, SHARDS)
// ---------------------------------------------------------------------

/// Write a `magic · frame` file atomically: the image goes to
/// `<path>.tmp`, then renames over `path`. Rename is atomic on every
/// platform we run on, so a crash leaves the old file or the new one —
/// never a torn hybrid.
pub fn write_file_atomic(
    path: &Path,
    magic: u32,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    let mut image = magic.to_be_bytes().to_vec();
    encode(&mut image, write_body);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &image)?;
    std::fs::rename(&tmp, path)
}

/// Check the image of a `magic · frame` file and return the frame body.
pub fn decode_file(data: &[u8], magic: u32) -> Result<&[u8], String> {
    match data.split_first_chunk::<4>() {
        Some((m, frame)) if *m == magic.to_be_bytes() => verify_exact(frame),
        Some(_) => Err("bad magic".to_string()),
        None => Err(format!("file too short ({} bytes)", data.len())),
    }
}

/// Read a whole file; a missing one is `None`, not an error.
pub fn read_optional(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(data) => Ok(Some(data)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Cut a file back to `len` bytes and make the cut durable before anyone
/// appends behind it.
pub fn truncate_and_sync(path: &Path, len: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()
}

// ---------------------------------------------------------------------
// Record fields
// ---------------------------------------------------------------------

/// Append `len u32 · bytes`.
pub fn put_bytes(buf: &mut impl BufMut, b: &[u8]) {
    buf.put_u32(u32::try_from(b.len()).expect("a field fits in u32::MAX bytes"));
    buf.put_slice(b);
}

/// Append a string as `len u32 · UTF-8 bytes`.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Bounds-checked reader over a record body. Every accessor returns
/// [`CodecError::Truncated`] instead of reading past the end, so a
/// decoder written against it is total on arbitrary bytes.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    /// The frozen buffer `buf` lies in, when byte fields share it.
    owner: Option<&'a Bytes>,
}

impl<'a> Cursor<'a> {
    /// A cursor whose byte fields are copies out of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, owner: None }
    }

    /// A cursor over `body`, which lies in `owner`, whose byte fields are
    /// slices sharing `owner` instead of copies: a segment block, read
    /// once, hands out its keys, columns and values without an allocation
    /// each. Every field then keeps the whole of `owner` alive.
    pub fn sharing(owner: &'a Bytes, body: &'a [u8]) -> Self {
        Cursor {
            buf: body,
            owner: Some(owner),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.take::<1>().map(|[b]| b)
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.take().map(u32::from_be_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.take().map(u64::from_be_bytes)
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    fn slice(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        let (head, rest) = self
            .buf
            .split_at_checked(len)
            .ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// A `len u32 · bytes` field: a slice of the owner of a
    /// [`Self::sharing`] cursor, else one copy out of the input.
    pub fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let field = self.slice()?;
        Ok(match self.owner {
            Some(owner) => owner.slice_ref(field),
            None => Bytes::copy_from_slice(field),
        })
    }

    /// A `len u32 · UTF-8` field.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let s = std::str::from_utf8(self.slice()?).map_err(|_| CodecError::BadUtf8)?;
        Ok(s.to_string())
    }

    /// The `count u32` in front of a sequence whose elements each encode
    /// to at least `min_elem_bytes` (≥ 1). A count the remaining input
    /// cannot hold is rejected here, *before* the caller sizes a
    /// collection by it — a hostile prefix cannot drive an allocation
    /// larger than the input that carries it.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() / min_elem_bytes {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// A whole `count u32 · elements` sequence, `elem` reading one
    /// element; the count is checked ([`Self::count`]) before the vector
    /// is sized by it.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A sequence of [`Self::str`] fields.
    pub fn strings(&mut self) -> Result<Vec<String>, CodecError> {
        self.seq(4, Self::str)
    }

    /// The record is over: any byte left is an error.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

// ---------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------

/// Errors from a [`CrashWriter`].
#[derive(Debug)]
pub enum WriteError {
    /// An injected crash point fired; the writer is dead until its file
    /// is reopened.
    Crashed,
    /// A real I/O failure underneath.
    Io(std::io::Error),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Crashed => write!(f, "injected crash point fired"),
            WriteError::Io(e) => write!(f, "log I/O error: {e}"),
        }
    }
}
impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteError::Crashed => None,
            WriteError::Io(e) => Some(e),
        }
    }
}
impl From<std::io::Error> for WriteError {
    fn from(e: std::io::Error) -> Self {
        WriteError::Io(e)
    }
}

/// An append-only file writer that can be told to die after a byte
/// budget: the write that crosses the budget reaches the file only up to
/// it (the torn prefix a power cut mid-write leaves), and every later
/// write fails with [`WriteError::Crashed`]. With no budget it is a plain
/// `write_all`. The crash sweeps enumerate budgets over every byte of a
/// clean run.
pub struct CrashWriter {
    file: File,
    /// Bytes that have reached the file — the budget's currency.
    written: u64,
    budget: Option<u64>,
    /// `sync_all` after every write, torn ones included.
    sync_each_write: bool,
    crashed: bool,
}

impl CrashWriter {
    /// Wrap `file` (positioned for appending). `written` is where the
    /// byte count starts; `budget` is compared against that count.
    pub fn new(file: File, written: u64, budget: Option<u64>, sync_each_write: bool) -> Self {
        CrashWriter {
            file,
            written,
            budget,
            sync_each_write,
            crashed: false,
        }
    }

    /// Whether a crash point already fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Cumulative bytes that have reached the file.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The file underneath (for `set_len`; writes go through [`Self::write`]).
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Write all of `bytes`, or — when the budget lands inside them —
    /// only the prefix up to it, and die.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), WriteError> {
        if self.crashed {
            return Err(WriteError::Crashed);
        }
        if let Some(budget) = self.budget {
            let room = budget.saturating_sub(self.written);
            if bytes.len() as u64 > room {
                return Err(self.crash_after(&bytes[..room as usize]));
            }
        }
        self.put(bytes)
    }

    /// Die now, whatever the budget says: `prefix` still reaches the
    /// file, nothing after it ever will. Returns the error to hand back.
    pub fn crash_after(&mut self, prefix: &[u8]) -> WriteError {
        self.crashed = true;
        match self.put(prefix) {
            Ok(()) => WriteError::Crashed,
            Err(e) => e,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), WriteError> {
        self.file.write_all(bytes)?;
        if self.sync_each_write {
            self.file.sync_all()?;
        }
        self.written += bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cfstore-frame-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(&mut out, |b| b.extend_from_slice(body));
        out
    }

    #[test]
    fn verify_classifies_intact_torn_and_rotted_frames() {
        let mut buf = framed(b"hello");
        assert_eq!(buf.len(), HEADER_LEN + 5);
        buf.extend_from_slice(b"next");
        assert_eq!(verify(&buf), Ok(&b"hello"[..]), "what follows is ignored");
        for cut in 0..HEADER_LEN + 5 {
            assert_eq!(verify(&buf[..cut]), Err(FrameError::Torn), "cut at {cut}");
        }
        for bit in 0..(HEADER_LEN + 5) * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(verify(&bad).is_err(), "flipped bit {bit} must not verify");
        }
        let mut rotted = buf.clone();
        rotted[HEADER_LEN] ^= 1;
        assert_eq!(verify(&rotted), Err(FrameError::BadChecksum));
        assert!(verify_exact(&buf).unwrap_err().contains("4 trailing bytes"));
        assert_eq!(verify_exact(&framed(b"")), Ok(&b""[..]));
    }

    #[test]
    fn magic_file_roundtrips_atomically_and_rejects_damage() {
        let path = tmp_file("magic");
        write_file_atomic(&path, 0x4142_4344, |b| b.put_u64(7)).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let data = read_optional(&path).unwrap().unwrap();
        assert_eq!(decode_file(&data, 0x4142_4344), Ok(&7u64.to_be_bytes()[..]));
        assert_eq!(decode_file(&data, 0x4142_4345).unwrap_err(), "bad magic");
        assert!(decode_file(&data[..3], 0x4142_4344).is_err());
        assert!(decode_file(&data[..data.len() - 1], 0x4142_4344).is_err());
        truncate_and_sync(&path, 5).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_optional(&path).unwrap(), None);
    }

    #[test]
    fn cursor_reads_what_the_writers_wrote_and_never_past_the_end() {
        let mut body = Vec::new();
        body.put_u8(9);
        body.put_u32(0xdead_beef);
        body.put_u64(42);
        body.put_f64(-1.5);
        put_bytes(&mut body, b"raw");
        put_str(&mut body, "text");
        let mut c = Cursor::new(&body);
        assert_eq!(c.u8(), Ok(9));
        assert_eq!(c.u32(), Ok(0xdead_beef));
        assert_eq!(c.u64(), Ok(42));
        assert_eq!(c.f64(), Ok(-1.5));
        assert_eq!(c.bytes(), Ok(Bytes::from("raw")));
        assert_eq!(c.str(), Ok("text".to_string()));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.clone().finish(), Ok(()));
        assert_eq!(c.u8(), Err(CodecError::Truncated));
        assert_eq!(c.u64(), Err(CodecError::Truncated));

        assert_eq!(Cursor::new(&[1, 2]).finish(), Err(CodecError::Trailing(2)));
        let mut c = Cursor::new(&[0, 0, 0, 9, b'x']);
        assert_eq!(c.bytes(), Err(CodecError::Truncated));
        let mut c = Cursor::new(&[0, 0, 0, 1, 0xff]);
        assert_eq!(c.str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn a_sharing_cursor_hands_out_slices_of_its_owner() {
        let mut framed = Vec::new();
        encode(&mut framed, |b| {
            put_bytes(b, b"key");
            put_bytes(b, b"");
            b.put_u32(7);
            put_bytes(b, b"value");
        });
        let owner = Bytes::from(framed);
        let body = verify_exact(&owner).unwrap();
        let mut c = Cursor::sharing(&owner, body);
        let fields = [c.bytes().unwrap(), c.bytes().unwrap()];
        assert_eq!(c.u32(), Ok(7));
        let value = c.bytes().unwrap();
        assert_eq!(c.clone().finish(), Ok(()));
        assert_eq!(fields, [Bytes::from("key"), Bytes::new()]);
        assert_eq!(value, Bytes::from("value"));
        let within = |b: &Bytes| owner.as_ptr_range().contains(&b.as_ptr());
        assert!(within(&fields[0]) && within(&value), "shared, not copied");
        assert_eq!(c.bytes(), Err(CodecError::Truncated));
        // The same bytes read by a copying cursor are the same fields.
        let copied = Cursor::new(body).bytes().unwrap();
        assert_eq!(copied, fields[0]);
        assert!(!within(&copied), "a plain cursor copies");
    }

    #[test]
    fn count_rejects_a_prefix_the_input_cannot_hold() {
        let mut body = Vec::new();
        body.put_u32(u32::MAX);
        body.put_slice(&[0; 12]);
        assert_eq!(Cursor::new(&body).count(1), Err(CodecError::Truncated));
        body[..4].copy_from_slice(&3u32.to_be_bytes());
        assert_eq!(Cursor::new(&body).count(4), Ok(3));
        assert_eq!(Cursor::new(&body).count(5), Err(CodecError::Truncated));
        assert_eq!(Cursor::new(&body).seq(4, Cursor::u32), Ok(vec![0, 0, 0]));

        let mut body = Vec::new();
        body.put_u32(2);
        put_str(&mut body, "a");
        put_str(&mut body, "bc");
        assert_eq!(
            Cursor::new(&body).strings(),
            Ok(vec!["a".to_string(), "bc".to_string()])
        );
    }

    #[test]
    fn crash_writer_tears_at_the_budget_and_stays_dead() {
        let path = tmp_file("crash");
        let open = || File::create(&path).unwrap();

        let mut w = CrashWriter::new(open(), 0, None, false);
        w.write(b"0123456789").unwrap();
        assert_eq!(w.written(), 10);
        assert!(!w.is_crashed());

        let mut w = CrashWriter::new(open(), 0, Some(7), true);
        w.write(b"0123").unwrap();
        assert!(matches!(w.write(b"456789"), Err(WriteError::Crashed)));
        assert!(w.is_crashed());
        assert_eq!(w.written(), 7);
        assert!(matches!(w.write(b"x"), Err(WriteError::Crashed)));
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456");

        // The count can start above zero (a log reopened after recovery).
        let mut w = CrashWriter::new(open(), 5, Some(7), false);
        assert!(matches!(w.write(b"abc"), Err(WriteError::Crashed)));
        assert_eq!(std::fs::read(&path).unwrap(), b"ab");

        let mut w = CrashWriter::new(open(), 0, None, false);
        assert!(matches!(w.crash_after(b"half"), WriteError::Crashed));
        assert!(matches!(w.write(b"more"), Err(WriteError::Crashed)));
        assert_eq!(std::fs::read(&path).unwrap(), b"half");
        std::fs::remove_file(&path).unwrap();
    }
}
