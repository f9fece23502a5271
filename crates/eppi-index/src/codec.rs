//! Compact binary serialization: the one bounded reader/writer every
//! persisted format goes through, and the two index formats that live
//! here.
//!
//! A real locator service persists and ships the index: the PPI server
//! loads it at boot, providers can mirror it, auditors archive it, and
//! coordinators resume the next epoch from retained shares. The allowed
//! dependency set has no serialization backend, so the formats are
//! hand-rolled — but they share **one frame**:
//!
//! * little-endian fields written by a [`Writer`] and read back by a
//!   [`Reader`] whose every read is length-checked;
//! * a header — [`Writer::open`] / [`Reader::open`] write and check the
//!   magic and version of the EPPI family;
//! * a CRC-32 trailer — [`Writer::seal`] appends it over everything
//!   written, [`Reader::unseal`] checks it before the content is
//!   trusted; the write-ahead log's `[len][crc][payload]` frames use
//!   [`Writer::frame`] / [`Reader::frame`];
//! * [`Reader::finish`] rejects trailing bytes;
//! * an **allocation cap**: before allocating, a reader refuses
//!   ([`CodecError::OverCap`]) any count whose decoded structure would
//!   take more than [`ALLOC_FACTOR`] bytes per input byte (with a floor
//!   of [`ALLOC_FLOOR`], see [`alloc_cap`]). The densest legitimate
//!   case, a one-owner matrix bitmap, decodes to 64× its bytes; a few
//!   hostile bytes can no longer ask for gigabytes.
//!
//! Where each format lives: EPPI v1 (published index) and v3 (serving
//! snapshot) here; the EPPI v2 epoch record beside its only user in
//! `eppi-durability::epoch_codec`; the write-ahead log frame, its
//! payload and the `ADT1` commitment trailer in `eppi-durability::wal`;
//! the `EPAC` audited checkpoint envelope in
//! `eppi-durability::checkpoint`. Every bitmap in them — index
//! matrices, mix decisions, membership columns — is packed by
//! [`pack_bits`] and read back by [`for_each_one`].
//!
//! **Version 1** serializes a bare [`PublishedIndex`] (no checksum):
//!
//! ```text
//! magic  "EPPI"      4 bytes
//! version u16        = 1
//! providers u32, owners u32
//! bitmap  ⌈providers·owners / 8⌉ bytes, row-major, LSB-first
//! betas   owners × f64 (little-endian bits)
//! ```
//!
//! **Version 3** serializes a *serving layout* ([`ServeSnapshotRecord`]):
//! the sharded, physically laid-out form a serve node boots from — the
//! extendable shard-map manifest plus each shard's owner list and its
//! row block in the backend it was built with (flat dense words, or the
//! EWAH-style compressed token stream and offset table of
//! `eppi_core::rowstore::CompressedRows`) — CRC-32 sealed:
//!
//! ```text
//! magic  "EPPI"      4 bytes
//! version u16        = 3
//! snapshot_version u64
//! backend_tag u8     (0 = dense, 1 = compressed)
//! providers u32, owners u32
//! base_shards u32, base_owners u32, append_capacity u32
//! shard_count u32
//! betas   owners × f64
//! per shard:
//!   owner_count u32
//!   owners      owner_count × u32
//!   dense:      owner_count · words_per_row × u64
//!   compressed: token_count u32,
//!               offsets (owner_count + 1) × u32,
//!               stream  token_count × u64
//! crc32 u32          (IEEE, over every preceding byte)
//! ```
//!
//! **Compatibility rule:** the versions are *not* interchangeable.
//! [`decode`] accepts only version 1 and [`decode_serve_snapshot`] only
//! version 3, so a plain serve node can never mistake a coordinator
//! checkpoint (v2, which carries share vectors) for a public index.
//! Readers of any version reject the others loudly instead of guessing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::indexing_slicing))]

use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_core::rows::row_words;
use eppi_core::rowstore::RowBackend;
use std::error::Error;
use std::fmt;
use std::mem::size_of;

/// Magic opening every EPPI record (v1, v2 and v3).
pub const MAGIC: &[u8; 4] = b"EPPI";
const VERSION: u16 = 1;
const VERSION_SERVE: u16 = 3;

/// Decoded bytes one input byte may cost: the densest legitimate
/// structure, a one-owner matrix bitmap, decodes each bit to a padded
/// 64-bit row word.
pub const ALLOC_FACTOR: usize = 64;

/// Decoded bytes any input may cost, however short: a zero-owner index
/// carries no bytes per provider yet still pads one word per row, and
/// a lineage may legitimately start empty.
pub const ALLOC_FLOOR: usize = 1 << 20;

/// The allocation cap of a `len`-byte input: the most its decoded
/// structure may occupy.
pub fn alloc_cap(len: usize) -> usize {
    len.saturating_mul(ALLOC_FACTOR).max(ALLOC_FLOOR)
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
#[allow(clippy::indexing_slicing)] // const-evaluated: a miss fails the build
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum of sealed records and of the
/// write-ahead log's frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        #[allow(clippy::indexing_slicing)] // a u8 index into 256 entries
        let entry = CRC_TABLE[usize::from(crc as u8 ^ b)];
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

fn check_crc(stored: u32, content: &[u8]) -> Result<(), CodecError> {
    let computed = crc32(content);
    let mismatch = CodecError::BadChecksum { stored, computed };
    (stored == computed).then_some(()).ok_or(mismatch)
}

/// `Ok` when `ok`, else [`CodecError::InvalidField`] naming `field`.
///
/// # Errors
///
/// [`CodecError::InvalidField`].
pub fn ensure(ok: bool, field: &'static str) -> Result<(), CodecError> {
    ok.then_some(()).ok_or(CodecError::InvalidField { field })
}

/// Errors raised when decoding any persisted format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer is shorter than the declared content.
    Truncated {
        /// Bytes expected at minimum.
        expected: usize,
        /// Bytes available.
        actual: usize,
    },
    /// The magic header is missing.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// A β value decoded outside `\[0, 1\]` or non-finite.
    InvalidBeta {
        /// The offending owner index.
        owner: u32,
    },
    /// Trailing bytes after the declared content.
    TrailingBytes(usize),
    /// The stored CRC-32 disagrees with the content.
    BadChecksum {
        /// Checksum declared by the record.
        stored: u32,
        /// Checksum recomputed over the content.
        computed: u32,
    },
    /// A scalar field decoded outside its valid domain.
    InvalidField {
        /// The offending field, e.g. `"lambda"`.
        field: &'static str,
    },
    /// An ε decoded outside `\[0, 1\]` or non-finite.
    InvalidEpsilon {
        /// The offending owner index.
        owner: u32,
    },
    /// An enum tag (policy or backend) has no known meaning.
    UnknownTag {
        /// Which tag field, e.g. `"policy"`.
        field: &'static str,
        /// The unknown tag value.
        tag: u8,
    },
    /// A serve-snapshot shard failed structural validation.
    InvalidShard {
        /// The offending shard index.
        shard: u32,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A declared count would decode to more memory than the input's
    /// [`alloc_cap`] leaves; refused before anything was allocated.
    OverCap {
        /// Bytes the declared structure needs.
        requested: usize,
        /// Bytes of the cap still unspent.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { expected, actual } => {
                write!(f, "truncated: need {expected} bytes, got {actual}")
            }
            Self::BadMagic => write!(f, "missing magic header"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Self::InvalidBeta { owner } => write!(f, "invalid β for owner {owner}"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after the content"),
            Self::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            Self::InvalidField { field } => write!(f, "field {field} outside its valid domain"),
            Self::InvalidEpsilon { owner } => write!(f, "invalid ε for owner {owner}"),
            Self::UnknownTag { field, tag } => write!(f, "unknown {field} tag {tag}"),
            Self::InvalidShard { shard, reason } => write!(f, "invalid shard {shard}: {reason}"),
            Self::OverCap {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "declared content needs {requested} bytes, the allocation cap leaves {remaining}"
                )
            }
        }
    }
}

impl Error for CodecError {}

/// Packs `len` bits LSB-first into `⌈len/8⌉` bytes (missing bits are
/// zero) — the one bit layout of every bitmap the formats carry.
pub fn pack_bits(len: usize, bits: impl IntoIterator<Item = bool>) -> Vec<u8> {
    let mut bits = bits.into_iter().take(len);
    let byte = |_| (0..8).fold(0u8, |acc, b| acc | u8::from(bits.next() == Some(true)) << b);
    (0..len.div_ceil(8)).map(byte).collect()
}

/// The entry `tag` indexes in `table` — the values of a tagged field in
/// tag order — else [`CodecError::UnknownTag`].
///
/// # Errors
///
/// [`CodecError::UnknownTag`].
pub fn from_tag<T: Copy>(field: &'static str, tag: u8, table: &[T]) -> Result<T, CodecError> {
    let unknown = CodecError::UnknownTag { field, tag };
    table.get(usize::from(tag)).copied().ok_or(unknown)
}

/// Calls `one(i)` for every set bit `i` of an LSB-first bitmap.
pub fn for_each_one(bitmap: &[u8], mut one: impl FnMut(usize)) {
    for (at, &byte) in bitmap.iter().enumerate() {
        let mut rest = byte;
        while rest != 0 {
            one(at * 8 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Builds one record: little-endian fields, optionally opened with an
/// EPPI header and sealed with a CRC-32 trailer.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `bytes` (headerless formats: log
    /// payloads and frames, envelopes).
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: Vec::with_capacity(bytes),
        }
    }

    /// Starts a record with `magic` and `version`.
    pub fn open(magic: &[u8; 4], version: u16) -> Self {
        let mut w = Self::default();
        w.bytes(magic);
        w.u16(version);
        w
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Appends a count as a `u32`.
    #[inline]
    pub fn len32(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Appends every value as a little-endian `u32`.
    pub fn u32s(&mut self, values: &[u32]) {
        self.out.reserve(values.len() * 4);
        values.iter().for_each(|&v| self.u32(v));
    }

    /// Appends every value as a little-endian `u64`.
    pub fn u64s(&mut self, values: &[u64]) {
        self.out.reserve(values.len() * 8);
        values.iter().for_each(|&v| self.u64(v));
    }

    /// Appends every value as its little-endian bits.
    pub fn f64s(&mut self, values: &[f64]) {
        self.out.reserve(values.len() * 8);
        values.iter().for_each(|&v| self.f64(v));
    }

    /// Appends the matrix bitmap (row-major) and the β's of `index` —
    /// the body v1 and v2 share after their dimension fields.
    pub fn index(&mut self, index: &PublishedIndex) {
        let matrix = index.matrix();
        let n = matrix.owners();
        let rows = matrix.provider_ids().flat_map(|p| {
            let words = matrix.row_words(p).iter();
            words
                .flat_map(|&w| (0..64).map(move |b| (w >> b) & 1 != 0))
                .take(n)
        });
        self.bytes(&pack_bits(matrix.providers() * n, rows));
        self.f64s(index.betas());
    }

    /// Appends one `[len u32][crc32 u32][payload]` frame.
    pub fn frame(&mut self, payload: &[u8]) {
        self.len32(payload.len());
        self.u32(crc32(payload));
        self.bytes(payload);
    }

    /// Appends the CRC-32 of everything written and returns the record.
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.out);
        self.u32(crc);
        self.out
    }

    /// Returns the record as written (no checksum).
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// A bounded little-endian cursor over untrusted bytes: every read is
/// length-checked, and every count that sizes an allocation is charged
/// against the input's [`alloc_cap`] first, so malformed or hostile
/// input surfaces as a [`CodecError`] — never a panic, never an
/// allocation the input cannot pay for.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    budget: usize,
}

impl<'a> Reader<'a> {
    /// A reader over a headerless format.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            at: 0,
            budget: alloc_cap(bytes.len()),
        }
    }

    /// A reader positioned after a checked `magic` and `version`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::BadMagic`] or
    /// [`CodecError::UnsupportedVersion`].
    pub fn open(bytes: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Self, CodecError> {
        let mut r = Self::new(bytes);
        r.magic(magic)?;
        let v = r.u16()?;
        (v == version)
            .then_some(r)
            .ok_or(CodecError::UnsupportedVersion(v))
    }

    /// Consumes a 4-byte `magic`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadMagic`].
    pub fn magic(&mut self, magic: &[u8; 4]) -> Result<(), CodecError> {
        (self.take(4)? == magic)
            .then_some(())
            .ok_or(CodecError::BadMagic)
    }

    /// Checks the CRC-32 trailer over every byte before it and narrows
    /// the reader to exclude it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadChecksum`].
    pub fn unseal(mut self) -> Result<Self, CodecError> {
        let end = self.bytes.len().saturating_sub(4).max(self.at);
        let (content, trailer) = self.bytes.split_at_checked(end).unwrap_or_default();
        check_crc(Reader::new(trailer).u32()?, content)?;
        self.bytes = content;
        Ok(self)
    }

    /// Reads one `[len u32][crc32 u32][payload]` frame and checks the
    /// payload's CRC.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadChecksum`].
    pub fn frame(&mut self) -> Result<&'a [u8], CodecError> {
        let (len, stored) = (self.u32()? as usize, self.u32()?);
        let payload = self.take(len)?;
        check_crc(stored, payload).map(|()| payload)
    }

    /// Requires exactly `len` unread bytes (a record whose size its
    /// header fixes).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::TrailingBytes`].
    pub fn expect_remaining(&self, len: usize) -> Result<(), CodecError> {
        let mut rest = self.clone();
        rest.take(len)?;
        rest.finish()
    }

    /// Ends the read: every byte must have been consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`].
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    /// Unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }

    /// Consumes the next `len` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.saturating_add(len);
        let out = self.bytes.get(self.at..end).ok_or(CodecError::Truncated {
            expected: end,
            actual: self.bytes.len(),
        })?;
        self.at = end;
        Ok(out)
    }

    /// Consumes the next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let actual = self.bytes.len();
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError::Truncated {
            expected: N,
            actual,
        })
    }

    /// Charges `count` decoded elements of `size` bytes each against the
    /// allocation cap; call it before allocating them. Returns `count`.
    ///
    /// # Errors
    ///
    /// [`CodecError::OverCap`] when the cap cannot pay for them.
    pub fn reserve(&mut self, count: usize, size: usize) -> Result<usize, CodecError> {
        let (requested, remaining) = (count.saturating_mul(size), self.budget);
        let over = CodecError::OverCap {
            requested,
            remaining,
        };
        self.budget = remaining.checked_sub(requested).ok_or(over)?;
        Ok(count)
    }

    /// Takes `n` elements of `N` bytes in one bulk read, charging them
    /// against the cap.
    fn chunks<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]], CodecError> {
        let (chunks, _) = self.take(n.saturating_mul(N))?.as_chunks::<N>();
        self.reserve(n, N)?;
        Ok(chunks)
    }

    /// Reads `n` little-endian `u32`s in one bulk take.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::OverCap`].
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        self.chunks(n)
            .map(|c| c.iter().map(|&w| u32::from_le_bytes(w)).collect())
    }

    /// Reads `n` little-endian `u64`s in one bulk take.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::OverCap`].
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        self.chunks(n)
            .map(|c| c.iter().map(|&w| u64::from_le_bytes(w)).collect())
    }

    /// Reads `n` `f64`s that must each be a finite probability;
    /// `invalid(i)` names the first that is not.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::OverCap`] or
    /// `invalid(i)`.
    pub fn probabilities(
        &mut self,
        n: usize,
        invalid: fn(u32) -> CodecError,
    ) -> Result<Vec<f64>, CodecError> {
        let values = self.chunks(n)?.iter().map(|&w| f64::from_le_bytes(w));
        let mut out = Vec::with_capacity(n);
        for (i, v) in (0..).zip(values) {
            // The range check also refuses NaN and the infinities.
            if !(0.0..=1.0).contains(&v) {
                return Err(invalid(i));
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Reads a `len`-bit LSB-first bitmap (`⌈len/8⌉` bytes) whose
    /// padding bits must be zero, so every accepted bitmap re-encodes
    /// to the same bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::InvalidField`].
    pub fn bits(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let bytes = self.take(len.div_ceil(8))?;
        let tail = len % 8;
        let clean = tail == 0 || bytes.last().is_none_or(|&b| b >> tail == 0);
        ensure(clean, "bitmap padding")?;
        Ok(bytes)
    }

    /// Reads a `len`-bit bitmap as one `bool` per bit.
    ///
    /// # Errors
    ///
    /// As [`bits`](Self::bits), plus [`CodecError::OverCap`].
    pub fn bools(&mut self, len: usize) -> Result<Vec<bool>, CodecError> {
        let bitmap = self.bits(len)?;
        let mut out = vec![false; self.reserve(len, 1)?];
        for_each_one(bitmap, |i| {
            if let Some(bit) = out.get_mut(i) {
                *bit = true;
            }
        });
        Ok(out)
    }

    /// Reads an `m × n` matrix bitmap plus `n` β's — the body v1 and v2
    /// share after their dimension fields. The decoded matrix (rows pad
    /// to at least one 64-bit word) is charged against the cap first.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::OverCap`],
    /// [`CodecError::InvalidField`] (set padding bits) or
    /// [`CodecError::InvalidBeta`].
    pub fn index(&mut self, m: usize, n: usize) -> Result<PublishedIndex, CodecError> {
        let bitmap = self.bits(m.saturating_mul(n))?;
        self.reserve(m, 8 * n.div_ceil(64).max(1))?;
        let mut matrix = MembershipMatrix::new(m, n);
        for_each_one(bitmap, |bit| {
            let (p, o) = ((bit / n) as u32, (bit % n) as u32);
            matrix.set(ProviderId(p), OwnerId(o), true);
        });
        let betas = self.probabilities(n, |owner| CodecError::InvalidBeta { owner })?;
        Ok(PublishedIndex::new(matrix, betas))
    }
}

/// The fixed-width little-endian fields, written and read alike.
macro_rules! le_fields {
    ($($t:ident),*) => {
        impl Writer {
            $(
                #[doc = concat!("Appends a little-endian `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self, v: $t) {
                    self.bytes(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
                ///
                /// # Errors
                ///
                /// [`CodecError::Truncated`].
                #[inline]
                pub fn $t(&mut self) -> Result<$t, CodecError> {
                    self.array().map($t::from_le_bytes)
                }
            )*
        }
    };
}

le_fields!(u8, u16, u32, u64, f64);

/// Serializes a published index to the version-1 format.
pub fn encode(index: &PublishedIndex) -> Vec<u8> {
    let mut w = Writer::open(MAGIC, VERSION);
    w.len32(index.matrix().providers());
    w.len32(index.matrix().owners());
    w.index(index);
    w.finish()
}

/// Deserializes a version-1 index, validating structure and every β.
///
/// # Errors
///
/// Returns a [`CodecError`] for any malformed input; never panics on
/// untrusted bytes and never allocates past the input's [`alloc_cap`].
pub fn decode(bytes: &[u8]) -> Result<PublishedIndex, CodecError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION)?;
    let (m, n) = (r.u32()? as usize, r.u32()? as usize);
    let index = r.index(m, n)?;
    r.finish()?;
    Ok(index)
}

/// One shard's rows in their physical serving layout.
///
/// The variant must agree with the snapshot's declared backend: a v3
/// record never mixes layouts, so a serve node knows from the header
/// alone whether the snapshot may back PIR replicas (dense only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRowsRecord {
    /// Flat packed words, `words_per_row` per owner slot.
    Dense(Vec<u64>),
    /// EWAH-style token stream plus the per-slot offset table
    /// (`owner_count + 1` entries tiling the stream).
    Compressed {
        /// The shared fill/literal token stream.
        stream: Vec<u64>,
        /// Token offsets; entry `s` starts slot `s`, last entry =
        /// stream length.
        offsets: Vec<u32>,
    },
}

/// One shard of a serve snapshot: which owners it holds (slot order)
/// and their rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeShardRecord {
    /// Global owner ids, in slot order.
    pub owners: Vec<u32>,
    /// The shard's row block.
    pub rows: ShardRowsRecord,
}

/// A version-3 serving-layout snapshot: the shard-map manifest plus
/// every shard's owners and physical rows, in the backend the snapshot
/// was built with. This is what a serve node persists to boot warm
/// without re-sharding the published index (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshotRecord {
    /// The snapshot's epoch version in the serve lineage.
    pub snapshot_version: u64,
    /// Physical row backend of every shard.
    pub backend: RowBackend,
    /// Provider universe size (fixes `words_per_row`).
    pub providers: u32,
    /// Per-owner β values, indexed by global owner id.
    pub betas: Vec<f64>,
    /// Shard-map manifest: shards the base owners hash across.
    pub base_shards: u32,
    /// Shard-map manifest: owners covered by the base hash.
    pub base_owners: u32,
    /// Shard-map manifest: owners per append shard.
    pub append_capacity: u32,
    /// Every shard, base then append, in shard order.
    pub shards: Vec<ServeShardRecord>,
}

/// Serializes a serving-layout snapshot to the version-3 format,
/// CRC-32 sealed. Each shard is written in the layout it holds; a
/// record that disagrees with itself — a row variant other than the
/// declared backend, a dense block not sized to its slots, an offset
/// table not tiling its stream — encodes, but does not decode. Records
/// assembled from a live `ShardedIndex` are always consistent.
pub fn encode_serve_snapshot(record: &ServeSnapshotRecord) -> Vec<u8> {
    let mut w = Writer::open(MAGIC, VERSION_SERVE);
    w.u64(record.snapshot_version);
    w.u8(match record.backend {
        RowBackend::Dense => 0,
        RowBackend::Compressed => 1,
    });
    w.u32(record.providers);
    w.len32(record.betas.len());
    w.u32(record.base_shards);
    w.u32(record.base_owners);
    w.u32(record.append_capacity);
    w.len32(record.shards.len());
    w.f64s(&record.betas);
    for shard in &record.shards {
        w.len32(shard.owners.len());
        w.u32s(&shard.owners);
        match &shard.rows {
            ShardRowsRecord::Dense(words) => w.u64s(words),
            ShardRowsRecord::Compressed { stream, offsets } => {
                w.len32(stream.len());
                w.u32s(offsets);
                w.u64s(stream);
            }
        }
    }
    w.seal()
}

/// Deserializes a version-3 serving-layout snapshot, validating the
/// checksum, every β, and each shard's structure (dense blocks sized to
/// their slots; compressed offset tables tiling their streams).
///
/// # Errors
///
/// Returns a [`CodecError`] for any malformed input — wrong magic or
/// version, truncation, trailing bytes, checksum mismatch, an unknown
/// backend tag, out-of-range βs, a structurally inconsistent shard, or
/// counts past the input's [`alloc_cap`]. The checksum is verified
/// before any length field is trusted.
pub fn decode_serve_snapshot(bytes: &[u8]) -> Result<ServeSnapshotRecord, CodecError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION_SERVE)?.unseal()?;
    let snapshot_version = r.u64()?;
    let backends = [RowBackend::Dense, RowBackend::Compressed];
    let backend = from_tag("row backend", r.u8()?, &backends)?;
    let providers = r.u32()?;
    let owners = r.u32()? as usize;
    let (base_shards, base_owners, append_capacity) = (r.u32()?, r.u32()?, r.u32()?);
    let shard_count = r.u32()? as usize;
    let wpr = row_words(providers as usize);
    let betas = r.probabilities(owners, |owner| CodecError::InvalidBeta { owner })?;

    let mut shards = Vec::with_capacity(r.reserve(shard_count, size_of::<ServeShardRecord>())?);
    for s in 0..shard_count {
        let slots = r.u32()? as usize;
        let owners = r.u32s(slots)?;
        let rows = match backend {
            RowBackend::Dense => ShardRowsRecord::Dense(r.u64s(slots.saturating_mul(wpr))?),
            RowBackend::Compressed => {
                let tokens = r.u32()?;
                let offsets = r.u32s(slots.saturating_add(1))?;
                if offsets.first() != Some(&0)
                    || offsets.last() != Some(&tokens)
                    || !offsets.is_sorted()
                {
                    return Err(CodecError::InvalidShard {
                        shard: s as u32,
                        reason: "offset table does not tile its token stream",
                    });
                }
                let stream = r.u64s(tokens as usize)?;
                ShardRowsRecord::Compressed { stream, offsets }
            }
        };
        shards.push(ServeShardRecord { owners, rows });
    }
    r.finish()?;

    Ok(ServeSnapshotRecord {
        snapshot_version,
        backend,
        providers,
        betas,
        base_shards,
        base_owners,
        append_capacity,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> PublishedIndex {
        let mut m = MembershipMatrix::new(9, 5);
        for (p, o) in [(0u32, 0u32), (3, 2), (8, 4), (5, 0), (2, 3)] {
            m.set(ProviderId(p), OwnerId(o), true);
        }
        PublishedIndex::new(m, vec![0.0, 0.25, 0.5, 0.75, 1.0])
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let index = sample_index();
        let bytes = encode(&index);
        let back = decode(&bytes).expect("roundtrip");
        assert_eq!(&back, &index);
    }

    #[test]
    fn empty_index_roundtrips() {
        let index = PublishedIndex::new(MembershipMatrix::new(1, 1), vec![0.0]);
        assert_eq!(decode(&encode(&index)).unwrap(), index);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_index());
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(CodecError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample_index());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode(&sample_index());
        bytes[4] = 9;
        assert_eq!(decode(&bytes), Err(CodecError::UnsupportedVersion(9)));
    }

    #[test]
    fn invalid_beta_rejected() {
        let mut bytes = encode(&sample_index());
        let n = bytes.len();
        // Overwrite the last β with NaN.
        bytes[n - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::InvalidBeta { owner: 4 }));
        // And with an out-of-range value.
        bytes[n - 8..].copy_from_slice(&2.5f64.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::InvalidBeta { owner: 4 }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&sample_index());
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn set_padding_bits_are_rejected() {
        // 9 × 5 = 45 cells: the bitmap's last byte carries 3 padding
        // bits, which a decoder that ignored them could not re-encode.
        let mut bytes = encode(&sample_index());
        bytes[14 + 5] |= 0x80;
        assert_eq!(
            decode(&bytes),
            Err(CodecError::InvalidField {
                field: "bitmap padding"
            })
        );
    }

    #[test]
    fn hostile_dimensions_are_refused_before_allocating() {
        // providers = u32::MAX, owners = 0: no bitmap bytes, yet the
        // matrix would pad one word per row (32 GiB).
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::OverCap {
                remaining: ALLOC_FLOOR,
                ..
            })
        ));
        // The floor still admits a legitimately empty index over many
        // providers.
        let empty = PublishedIndex::new(MembershipMatrix::new(100_000, 0), Vec::new());
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn reader_charges_every_reservation_against_one_cap() {
        let bytes = [0u8; 1 << 15];
        let mut r = Reader::new(&bytes);
        assert_eq!(alloc_cap(bytes.len()), (1 << 15) * ALLOC_FACTOR);
        assert_eq!(r.reserve(1 << 20, 1), Ok(1 << 20));
        assert_eq!(r.reserve(1 << 20, 1), Ok(1 << 20));
        assert_eq!(
            r.reserve(1, 1),
            Err(CodecError::OverCap {
                requested: 1,
                remaining: 0
            })
        );
        assert!(matches!(
            Reader::new(&bytes).reserve(usize::MAX, 8),
            Err(CodecError::OverCap {
                requested: usize::MAX,
                ..
            })
        ));
    }

    #[test]
    fn bits_pack_lsb_first_and_unpack_to_the_same_positions() {
        let ones = [0usize, 3, 8, 9, 17];
        let packed = pack_bits(18, (0..18).map(|i| ones.contains(&i)));
        assert_eq!(packed, vec![0b0000_1001, 0b0000_0011, 0b0000_0010]);
        let mut seen = Vec::new();
        for_each_one(&packed, |i| seen.push(i));
        assert_eq!(seen, ones);
        // A short iterator pads with zeros.
        assert_eq!(pack_bits(12, [true]), vec![1, 0]);
    }

    #[test]
    fn frames_roundtrip_and_check_their_payload() {
        let mut w = Writer::with_capacity(19);
        w.frame(b"abc");
        w.frame(b"");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.frame(), Ok(&b"abc"[..]));
        assert_eq!(r.frame(), Ok(&b""[..]));
        assert_eq!(r.finish(), Ok(()));
        let mut flipped = bytes.clone();
        flipped[9] ^= 1;
        assert!(matches!(
            Reader::new(&flipped).frame(),
            Err(CodecError::BadChecksum { .. })
        ));
        assert!(matches!(
            Reader::new(&bytes[..10]).frame(),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A small two-shard serve snapshot: providers = 70 (⇒ 2 words per
    /// row), three owners split 2/1, in the requested backend.
    fn sample_serve_snapshot(backend: RowBackend) -> ServeSnapshotRecord {
        let dense: [Vec<u64>; 2] = [vec![0b1011, 0, u64::MAX, 0x3f], vec![0, 1 << 63]];
        let shards = dense
            .iter()
            .enumerate()
            .map(|(s, words)| ServeShardRecord {
                owners: if s == 0 { vec![0, 2] } else { vec![1] },
                rows: match backend {
                    RowBackend::Dense => ShardRowsRecord::Dense(words.clone()),
                    RowBackend::Compressed => {
                        let rows = eppi_core::rowstore::CompressedRows::from_dense_words(words, 70);
                        ShardRowsRecord::Compressed {
                            stream: rows.stream().to_vec(),
                            offsets: rows.offsets().to_vec(),
                        }
                    }
                },
            })
            .collect();
        ServeSnapshotRecord {
            snapshot_version: 9,
            backend,
            providers: 70,
            betas: vec![0.25, 0.5, 1.0],
            base_shards: 2,
            base_owners: 3,
            append_capacity: 8192,
            shards,
        }
    }

    #[test]
    fn serve_snapshot_roundtrips_in_both_backends() {
        for backend in [RowBackend::Dense, RowBackend::Compressed] {
            let record = sample_serve_snapshot(backend);
            let bytes = encode_serve_snapshot(&record);
            let back = decode_serve_snapshot(&bytes).expect("roundtrip");
            assert_eq!(back, record, "{backend}");
        }
    }

    #[test]
    fn serve_snapshot_rejects_other_versions_and_vice_versa() {
        assert_eq!(
            decode_serve_snapshot(&encode(&sample_index())),
            Err(CodecError::UnsupportedVersion(1))
        );
        // A v2 epoch record's header (its encoder lives with the
        // durability layer; the version is checked before anything else).
        let mut v2 = encode(&sample_index());
        v2[4] = 2;
        assert_eq!(
            decode_serve_snapshot(&v2),
            Err(CodecError::UnsupportedVersion(2))
        );
        let bytes = encode_serve_snapshot(&sample_serve_snapshot(RowBackend::Dense));
        assert_eq!(decode(&bytes), Err(CodecError::UnsupportedVersion(3)));
    }

    #[test]
    fn serve_snapshot_corruption_and_truncation_are_detected() {
        let clean = encode_serve_snapshot(&sample_serve_snapshot(RowBackend::Compressed));
        // Cuts inside the fixed header surface as truncation; cuts past
        // it shift the checksum bytes and surface as corruption. Either
        // way no truncated prefix ever decodes.
        for cut in [0usize, 5, 20, clean.len() - 5, clean.len() - 1] {
            assert!(
                matches!(
                    decode_serve_snapshot(&clean[..cut]),
                    Err(CodecError::Truncated { .. } | CodecError::BadChecksum { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut flipped = clean.clone();
        flipped[40] ^= 0x04;
        assert!(matches!(
            decode_serve_snapshot(&flipped),
            Err(CodecError::BadChecksum { .. })
        ));
        let mut trailing = clean.clone();
        trailing.push(0);
        // Appending a byte invalidates the checksum (it moves); the
        // decoder reports the corruption rather than the extra byte.
        assert!(decode_serve_snapshot(&trailing).is_err());
    }

    #[test]
    fn serve_snapshot_rejects_bad_offset_tables() {
        let mut record = sample_serve_snapshot(RowBackend::Compressed);
        if let ShardRowsRecord::Compressed { offsets, .. } = &mut record.shards[0].rows {
            offsets[1] = offsets[1].wrapping_add(1).max(offsets[2] + 1);
        }
        // Re-encode with the corrupted table (the encoder writes what
        // it is given) and make the decoder catch it.
        let bytes = encode_serve_snapshot(&record);
        assert!(matches!(
            decode_serve_snapshot(&bytes),
            Err(CodecError::InvalidShard { shard: 0, .. })
        ));
    }

    #[test]
    fn serve_snapshot_rejects_invalid_betas_and_unknown_backend() {
        let mut record = sample_serve_snapshot(RowBackend::Dense);
        record.betas[1] = 7.0;
        assert_eq!(
            decode_serve_snapshot(&encode_serve_snapshot(&record)),
            Err(CodecError::InvalidBeta { owner: 1 })
        );
        let mut bytes = encode_serve_snapshot(&sample_serve_snapshot(RowBackend::Dense));
        let tag_at = 4 + 2 + 8;
        bytes[tag_at] = 9;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert_eq!(
            decode_serve_snapshot(&bytes),
            Err(CodecError::UnknownTag {
                field: "row backend",
                tag: 9
            })
        );
    }

    #[test]
    fn serve_snapshot_refuses_a_resealed_shard_count_past_the_cap() {
        let mut bytes = encode_serve_snapshot(&sample_serve_snapshot(RowBackend::Dense));
        let count_at = 4 + 2 + 8 + 1 + 4 * 5;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            decode_serve_snapshot(&bytes),
            Err(CodecError::OverCap { .. })
        ));
    }

    #[test]
    fn errors_render() {
        assert!(CodecError::Truncated {
            expected: 10,
            actual: 3
        }
        .to_string()
        .contains("10"));
        assert!(CodecError::InvalidBeta { owner: 2 }
            .to_string()
            .contains("owner 2"));
        assert!(CodecError::OverCap {
            requested: 99,
            remaining: 7
        }
        .to_string()
        .contains("99"));
    }
}
