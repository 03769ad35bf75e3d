//! Versioned simulation state: the undo-log journal behind snapshot,
//! rollback, speculative what-if scheduling, and trace checkpoints.
//!
//! The cluster driver owns a large bundle of mutable state — per-GPU
//! queues, residency lists, in-flight slots, the event heap, RNG streams,
//! metric accumulators. Re-running a trace to answer "what if the
//! scheduler had placed this request elsewhere?" costs a full replay;
//! this crate makes the alternative cheap:
//!
//! * [`Journal`] — a stack of pinned state *images*. A
//!   [`Journal::snapshot`] pushes a frame and returns a [`SnapId`];
//!   [`Journal::rollback`] discards every younger frame and hands back a
//!   clone of the pinned image (the frame survives, so one snapshot
//!   supports any number of candidate rollbacks); [`Journal::commit`]
//!   retires frames once a decision is final. The shape follows the
//!   versioned-map transactions of software transactional memory: writers
//!   mutate freely between snapshot and commit, and abort restores the
//!   pinned version. An image need not be a copy: an owner can pin a
//!   large append- or edit-heavy member as a *mark* into its own undo log
//!   (the inverse of each write made while a pin is live) and rewind the
//!   log on rollback, so a pin and a rollback cost the writes made since
//!   the pin rather than the size of the state.
//! * [`Enc`] / [`Dec`] — the length-checked little-endian codec every
//!   component uses to serialise its slice of the cluster image, both for
//!   in-memory policy blobs and for on-disk checkpoints.
//! * [`seal`] / [`open`] — the `GFSNAP01` checkpoint envelope: magic,
//!   format version, FNV-1a digests of the cluster config and the trace,
//!   so a warm start refuses to resume against a world it was not
//!   captured in, and an FNV-1a checksum of the body, so a damaged file
//!   is refused instead of decoded.
//!
//! What counts as "the image" is the cluster's business — this crate is
//! deliberately ignorant of GPUs and schedulers. It only promises that
//! whatever was captured comes back bit-for-bit.

use std::fmt;

use gfaas_sim::time::{SimDuration, SimTime};

/// Checkpoint file magic: `GFSNAP` plus a two-digit envelope generation.
pub const MAGIC: [u8; 8] = *b"GFSNAP01";

/// Checkpoint image format version. Bump on any layout change; restore
/// rejects mismatches rather than misinterpreting bytes.
pub const VERSION: u32 = 2;

/// Why a checkpoint or blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value did.
    Truncated,
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The image was written by a different format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expect: u32,
    },
    /// The checkpoint was captured under a different cluster config.
    ConfigMismatch,
    /// The checkpoint was captured against a different trace.
    TraceMismatch,
    /// The body does not match the digest in the envelope: the file was
    /// damaged after it was written.
    Checksum,
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
    /// A decoded value is structurally impossible (bad enum tag, bad
    /// UTF-8, count overflow, …).
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "checkpoint truncated"),
            SnapError::BadMagic => write!(f, "not a gfaas checkpoint (bad magic)"),
            SnapError::Version { found, expect } => {
                write!(f, "checkpoint format v{found}, this build reads v{expect}")
            }
            SnapError::ConfigMismatch => {
                write!(
                    f,
                    "checkpoint was captured under a different cluster config"
                )
            }
            SnapError::TraceMismatch => {
                write!(f, "checkpoint was captured against a different trace")
            }
            SnapError::Checksum => write!(f, "checkpoint body fails its checksum"),
            SnapError::TrailingBytes(n) => {
                write!(f, "checkpoint has {n} trailing bytes after the image")
            }
            SnapError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// The little-endian encoder. Infallible: encoding only appends to an
/// owned buffer. Every multi-byte integer is little-endian; floats travel
/// as their IEEE-754 bit patterns so restore is bit-exact; lengths are
/// `u64` so images are portable across pointer widths.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// An encoder with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes with no length prefix (magic, digests).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (images are pointer-width portable).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact restore).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a [`SimTime`] as its microsecond tick count.
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_micros());
    }

    /// Appends a [`SimDuration`] as its microsecond tick count.
    pub fn put_dur(&mut self, d: SimDuration) {
        self.put_u64(d.as_micros());
    }
}

/// The checked decoder over an encoded image. Every getter returns
/// [`SnapError::Truncated`] rather than reading past the end.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` from its stored bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than `0`/`1` is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag out of range")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("string is not UTF-8"))
    }

    /// Reads a [`SimTime`] from its microsecond tick count.
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_micros(self.u64()?))
    }

    /// Reads a [`SimDuration`] from its microsecond tick count.
    pub fn dur(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }

    /// Asserts the image was consumed exactly; leftovers mean the writer
    /// and reader disagree about the layout.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Content digests
// ---------------------------------------------------------------------------

/// Incremental FNV-1a (64-bit) — the checkpoint envelope's content
/// digest and body checksum. Not cryptographic; it only needs to make
/// "wrong config" and "wrong trace" overwhelmingly unlikely to collide by
/// accident. As a checksum it catches every change confined to one byte:
/// each step `h = (h ^ b) * PRIME` is a bijection of `h` (the prime is
/// odd), so two states that differ once never meet again.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty digest.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Wraps a checkpoint body in its envelope: magic, format version,
/// config digest, trace digest, trace length, and the FNV-1a digest of
/// the body, followed by the body itself. [`open`] is the inverse.
pub fn seal(config_hash: u64, trace_hash: u64, trace_len: usize, body: &[u8]) -> Vec<u8> {
    let mut enc = Enc::with_capacity(HEADER_LEN + body.len());
    enc.put_raw(&MAGIC);
    enc.put_u32(VERSION);
    enc.put_u64(config_hash);
    enc.put_u64(trace_hash);
    enc.put_usize(trace_len);
    enc.put_u64(fnv1a(body));
    enc.put_raw(body);
    enc.into_bytes()
}

/// Length of the envelope [`seal`] writes ahead of the body.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Validates a [`seal`]ed checkpoint against the world the caller is
/// restoring into and checks the body against its digest, so a flipped
/// or torn byte anywhere in the file is an error rather than a
/// differently-decoded run. On success the returned decoder reads the
/// body.
pub fn open(
    bytes: &[u8],
    config_hash: u64,
    trace_hash: u64,
    trace_len: usize,
) -> Result<Dec<'_>, SnapError> {
    let mut dec = Dec::new(bytes);
    if dec.take(8)? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let found = dec.u32()?;
    if found != VERSION {
        return Err(SnapError::Version {
            found,
            expect: VERSION,
        });
    }
    if dec.u64()? != config_hash {
        return Err(SnapError::ConfigMismatch);
    }
    if dec.u64()? != trace_hash || dec.usize()? != trace_len {
        return Err(SnapError::TraceMismatch);
    }
    let sum = dec.u64()?;
    let body = dec.take(dec.remaining())?;
    if fnv1a(body) != sum {
        return Err(SnapError::Checksum);
    }
    Ok(Dec::new(body))
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// Handle to a pinned state image in a [`Journal`]. Ids are issued in
/// strictly increasing order within one journal and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapId(u64);

impl SnapId {
    /// The raw id, for logs and telemetry.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SnapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap#{}", self.0)
    }
}

/// Cumulative journal activity, for telemetry and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Snapshots taken over the journal's lifetime.
    pub snapshots: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Commits performed.
    pub commits: u64,
}

/// A stack of pinned state images.
///
/// The owner captures its mutable state as an image `I`, pins it with
/// [`Journal::snapshot`], then mutates freely. [`Journal::rollback`]
/// discards every frame younger than the pinned one and returns a *clone*
/// of its image — the frame itself survives, so speculative search can
/// roll back to the same snapshot once per candidate. When the owner has
/// chosen a branch, [`Journal::commit`] retires the frame (and everything
/// older), releasing the memory.
///
/// An image may hold copies or marks. A mark is a position in an undo
/// log the owner keeps beside the state — every write made while some
/// frame is live appends its inverse there — and applying the image
/// rewinds the log to it. Marks keep the cost of an image and its clone
/// independent of the size of the marked member; a rollback then costs
/// the writes made since the pin. The owner drops its logs once
/// [`Journal::is_empty`]: no mark can be rewound to any more.
///
/// Frames nest like a stack: rolling back to an older frame implicitly
/// discards every younger one, exactly as nested transactions abort.
#[derive(Debug, Default)]
pub struct Journal<I: Clone> {
    frames: Vec<(SnapId, I)>,
    next: u64,
    stats: JournalStats,
}

impl<I: Clone> Journal<I> {
    /// An empty journal.
    pub fn new() -> Self {
        Journal {
            frames: Vec::new(),
            next: 0,
            stats: JournalStats::default(),
        }
    }

    /// Pins `image` as a new frame and returns its handle.
    pub fn snapshot(&mut self, image: I) -> SnapId {
        let id = SnapId(self.next);
        self.next += 1;
        self.stats.snapshots += 1;
        self.frames.push((id, image));
        id
    }

    /// Rolls back to `id`: discards every younger frame and returns a
    /// clone of the pinned image. The frame survives for further
    /// rollbacks. Returns `None` when `id` is not live (never issued,
    /// already committed, or discarded by an older rollback).
    pub fn rollback(&mut self, id: SnapId) -> Option<I> {
        let at = self.frames.iter().position(|(fid, _)| *fid == id)?;
        self.frames.truncate(at + 1);
        self.stats.rollbacks += 1;
        Some(self.frames[at].1.clone())
    }

    /// Commits `id`: drops its frame and every older one. The state the
    /// owner currently holds *is* the committed state; the journal merely
    /// releases the undo images. Returns false when `id` is not live.
    pub fn commit(&mut self, id: SnapId) -> bool {
        let Some(at) = self.frames.iter().position(|(fid, _)| *fid == id) else {
            return false;
        };
        self.frames.drain(..=at);
        self.stats.commits += 1;
        true
    }

    /// Restores *and retires* `id` in one step: discards every younger
    /// frame, pops the frame itself, and returns its image by move — no
    /// clone, and older frames are untouched (unlike [`Journal::commit`],
    /// which releases them). This is the speculation primitive: a what-if
    /// fork pins one frame, replays, and then `take`s it to both restore
    /// the pre-fork state and drop the frame, leaving any longer-lived
    /// snapshots beneath it intact. Counts as a rollback in the stats.
    /// Returns `None` when `id` is not live.
    pub fn take(&mut self, id: SnapId) -> Option<I> {
        let at = self.frames.iter().position(|(fid, _)| *fid == id)?;
        self.frames.truncate(at + 1);
        self.stats.rollbacks += 1;
        Some(
            self.frames
                .pop()
                .expect("frame at `at` survives truncate")
                .1,
        )
    }

    /// Retires every frame without restoring any, for an owner whose
    /// state was replaced wholesale (a checkpoint restore): each pinned
    /// image then describes a past the new state never had, and its marks
    /// point into logs that no longer exist. Later rollbacks and commits
    /// of the retired ids return `None`/false. Not counted as a commit.
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Live (uncommitted) frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame is pinned.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_primitive() {
        let mut e = Enc::new();
        e.put_u8(0xab);
        e.put_u16(0xbeef);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 7);
        e.put_u128(u128::MAX / 3);
        e.put_usize(123_456);
        e.put_f64(-0.1);
        e.put_bool(true);
        e.put_bool(false);
        e.put_bytes(b"blob");
        e.put_str("héllo");
        e.put_time(SimTime::from_micros(42));
        e.put_dur(SimDuration::from_micros(7));
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.u128().unwrap(), u128::MAX / 3);
        assert_eq!(d.usize().unwrap(), 123_456);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), b"blob");
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.time().unwrap(), SimTime::from_micros(42));
        assert_eq!(d.dur().unwrap(), SimDuration::from_micros(7));
        d.finish().unwrap();
    }

    #[test]
    fn nan_bits_survive_the_float_round_trip() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut e = Enc::new();
        e.put_f64(weird);
        let bytes = e.into_bytes();
        let got = Dec::new(&bytes).f64().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn decoder_reports_truncation_not_panic() {
        let mut e = Enc::new();
        e.put_u32(7);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64(), Err(SnapError::Truncated));
        // A bad length prefix on a byte string is also just truncation.
        let mut e = Enc::new();
        e.put_usize(1_000_000);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn decoder_flags_corrupt_tags_and_leftovers() {
        let mut d = Dec::new(&[3]);
        assert_eq!(d.bool(), Err(SnapError::Corrupt("bool tag out of range")));
        let mut e = Enc::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn header_round_trips_and_rejects_mismatches() {
        let bytes = seal(0x1111, 0x2222, 640, &[0xfe]);
        assert_eq!(bytes.len(), HEADER_LEN + 1);

        let mut d = open(&bytes, 0x1111, 0x2222, 640).unwrap();
        assert_eq!(d.u8().unwrap(), 0xfe);
        d.finish().unwrap();

        assert_eq!(
            open(&bytes, 0x9999, 0x2222, 640).err(),
            Some(SnapError::ConfigMismatch)
        );
        assert_eq!(
            open(&bytes, 0x1111, 0x9999, 640).err(),
            Some(SnapError::TraceMismatch)
        );
        assert_eq!(
            open(&bytes, 0x1111, 0x2222, 641).err(),
            Some(SnapError::TraceMismatch)
        );
        assert_eq!(
            open(b"NOTSNAP0rest", 0, 0, 0).err(),
            Some(SnapError::BadMagic)
        );

        let mut e = Enc::new();
        e.put_raw(&MAGIC);
        e.put_u32(VERSION + 1);
        e.put_u64(0);
        e.put_u64(0);
        e.put_usize(0);
        let bytes = e.into_bytes();
        assert_eq!(
            open(&bytes, 0, 0, 0).err(),
            Some(SnapError::Version {
                found: VERSION + 1,
                expect: VERSION
            })
        );
    }

    #[test]
    fn open_rejects_every_single_bit_flip() {
        let body: Vec<u8> = (0..=255).collect();
        let bytes = seal(7, 8, 9, &body);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(open(&bad, 7, 8, 9).is_err(), "bit {bit} flipped");
        }
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 3] ^= 0x40;
        assert_eq!(open(&bad, 7, 8, 9).err(), Some(SnapError::Checksum));
        assert_eq!(
            open(&bytes[..bytes.len() - 1], 7, 8, 9).err(),
            Some(SnapError::Checksum)
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut inc = Fnv1a::new();
        inc.write(b"foo");
        inc.write(b"bar");
        assert_eq!(inc.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn journal_snapshot_rollback_commit_semantics() {
        let mut j: Journal<Vec<u32>> = Journal::new();
        assert!(j.is_empty());
        let a = j.snapshot(vec![1]);
        let b = j.snapshot(vec![1, 2]);
        assert_eq!(j.depth(), 2);

        // Rollback clones the pinned image; the frame survives, so the
        // same snapshot serves several candidate explorations.
        assert_eq!(j.rollback(b), Some(vec![1, 2]));
        assert_eq!(j.rollback(b), Some(vec![1, 2]));
        assert_eq!(j.depth(), 2);

        // Rolling back to an older frame discards the younger one.
        assert_eq!(j.rollback(a), Some(vec![1]));
        assert_eq!(j.depth(), 1);
        assert_eq!(j.rollback(b), None, "b was discarded by the rollback to a");

        // Commit retires the frame; the id is dead afterwards.
        assert!(j.commit(a));
        assert!(j.is_empty());
        assert!(!j.commit(a));
        assert_eq!(j.rollback(a), None);

        let s = j.stats();
        assert_eq!((s.snapshots, s.rollbacks, s.commits), (2, 3, 1));
    }

    #[test]
    fn journal_commit_retires_older_frames_too() {
        let mut j: Journal<u8> = Journal::new();
        let a = j.snapshot(1);
        let b = j.snapshot(2);
        let c = j.snapshot(3);
        assert!(j.commit(b));
        assert_eq!(j.depth(), 1, "a and b retired, c still pinned");
        assert_eq!(j.rollback(a), None);
        assert_eq!(j.rollback(c), Some(3));
    }

    #[test]
    fn journal_take_restores_and_retires_without_touching_older_frames() {
        let mut j: Journal<u8> = Journal::new();
        let user = j.snapshot(10);
        let fork = j.snapshot(20);
        // `take` moves the image out and drops the frame — the older
        // (user-held) snapshot must survive, unlike a commit.
        assert_eq!(j.take(fork), Some(20));
        assert_eq!(j.depth(), 1);
        assert_eq!(j.take(fork), None, "taken frames are dead");
        assert_eq!(j.rollback(user), Some(10), "older frame untouched");
        // A take also discards younger frames, like a rollback.
        let a = j.snapshot(30);
        let b = j.snapshot(40);
        assert_eq!(j.take(a), Some(30));
        assert_eq!(j.rollback(b), None, "b was discarded by taking a");
        let s = j.stats();
        // Failed restores (dead ids) are not counted.
        assert_eq!((s.snapshots, s.rollbacks), (4, 3));
    }

    #[test]
    fn journal_clear_retires_every_frame_without_committing() {
        let mut j: Journal<u8> = Journal::new();
        let a = j.snapshot(1);
        let b = j.snapshot(2);
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.rollback(a), None);
        assert_eq!(j.take(b), None);
        assert!(!j.commit(b));
        assert_eq!(j.stats().commits, 0);
        assert!(j.snapshot(3) > b, "ids stay unique across a clear");
    }

    #[test]
    fn journal_ids_are_never_reused() {
        let mut j: Journal<u8> = Journal::new();
        let a = j.snapshot(1);
        assert!(j.commit(a));
        let b = j.snapshot(2);
        assert_ne!(a, b);
        assert!(a < b, "ids are strictly increasing");
        assert_eq!(format!("{b}"), "snap#1");
    }
}
