//! The EPPI v2 epoch record: one [`IndexEpoch`] — the published index
//! plus the retained protocol state a delta construction resumes from
//! (mix decisions, thresholds, ε's, the coordinator share vectors, λ,
//! the common-identity count and the lineage configuration) — CRC-32
//! sealed so on-disk corruption is detected, not served:
//!
//! ```text
//! magic  "EPPI"      4 bytes
//! version u16        = 2
//! epoch u64, lambda f64, common_count u64
//! coordinators u32
//! policy_tag u8, policy_param f64, coin_bits u32
//! link_latency_us f64, link_bandwidth f64
//! backend_tag u8, seed u64
//! providers u32, owners u32
//! bitmap      ⌈providers·owners / 8⌉ bytes (as v1)
//! betas       owners × f64
//! decisions   ⌈owners / 8⌉ bytes, LSB-first
//! thresholds  owners × u64
//! epsilons    owners × f64
//! shares      coordinators × owners × u64
//! crc32 u32          (IEEE, over every preceding byte)
//! ```
//!
//! Tags: policy `0` = basic, `1` = incremented (`param` = Δ), `2` =
//! Chernoff (`param` = γ); backend `0` = in-process, `1` = threaded,
//! `2` = simulated, low bits `3` = pipelined with its worker count
//! (1–31) in the high five bits. This module is the only place either
//! tag domain is checked.
//!
//! The framing is `eppi_index::codec`'s (header, length, CRC trailer,
//! allocation cap); v2 keeps the v1 bitmap and β layout byte for byte,
//! but the versions are not interchangeable — each decoder rejects the
//! other's version. Decoding composes three layers of validation —
//! framing and CRC, field domains, and [`IndexEpoch::resume`]'s protocol
//! invariants — so a byte sequence that survives all three is
//! indistinguishable from the live epoch it was serialized from.

use crate::error::StoreError;
use eppi_core::model::Epsilon;
use eppi_core::policy::PolicyKind;
use eppi_index::codec::{ensure, from_tag, pack_bits, Reader, Writer, MAGIC};
use eppi_index::CodecError;
use eppi_net::sim::LinkModel;
use eppi_protocol::{Backend, EpochState, IndexEpoch, ProtocolConfig};
use std::mem::size_of;

const VERSION_EPOCH: u16 = 2;

/// Serializes an epoch as one EPPI v2 byte record.
pub fn encode_epoch(epoch: &IndexEpoch) -> Vec<u8> {
    let config = epoch.config();
    let (policy_tag, policy_param) = match config.policy {
        PolicyKind::Basic => (0, 0.0),
        PolicyKind::Incremented { delta } => (1, delta),
        PolicyKind::Chernoff { gamma } => (2, gamma),
    };
    // The pipelined worker count is a tuning knob that does not affect
    // outputs; the encoding caps it at 31.
    let backend_tag = match config.backend {
        Backend::InProcess => 0,
        Backend::Threaded => 1,
        Backend::Simulated => 2,
        Backend::Pipelined { workers } => 3 | ((workers.clamp(1, 31) as u8) << 3),
    };
    let mut w = Writer::open(MAGIC, VERSION_EPOCH);
    w.u64(epoch.epoch());
    w.f64(epoch.lambda());
    w.u64(epoch.common_count());
    w.len32(config.c);
    w.u8(policy_tag);
    w.f64(policy_param);
    w.len32(config.coin_bits);
    w.f64(config.link.latency_us);
    w.f64(config.link.bandwidth_bytes_per_us);
    w.u8(backend_tag);
    w.u64(config.seed);
    w.len32(epoch.providers());
    w.len32(epoch.owners());
    w.index(epoch.index());
    let decisions = epoch.decisions().iter().copied();
    w.bytes(&pack_bits(epoch.owners(), decisions));
    w.u64s(epoch.thresholds());
    epoch.epsilons().iter().for_each(|e| w.f64(e.value()));
    epoch.shares().iter().for_each(|shares| w.u64s(shares));
    w.seal()
}

fn backend_from_tag(tag: u8) -> Result<Backend, CodecError> {
    let plain = [Backend::InProcess, Backend::Threaded, Backend::Simulated];
    match (tag & 0x07, tag >> 3) {
        (3, workers @ 1..) => Ok(Backend::Pipelined {
            workers: workers.into(),
        }),
        // Any other high bits push the tag past the plain table.
        _ => from_tag("backend", tag, &plain),
    }
}

/// Deserializes one EPPI v2 byte record into a resumed [`IndexEpoch`].
///
/// # Errors
///
/// [`StoreError::Codec`] for framing, length, checksum, allocation-cap
/// or field-domain defects (the length is checked against the header
/// before the checksum, so a truncated record reads as truncated);
/// [`StoreError::Protocol`] when the structurally valid record still
/// violates a protocol invariant. Never panics on untrusted bytes.
pub fn decode_epoch(bytes: &[u8]) -> Result<IndexEpoch, StoreError> {
    IndexEpoch::resume(read_state(bytes)?).map_err(StoreError::Protocol)
}

fn read_state(bytes: &[u8]) -> Result<EpochState, CodecError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION_EPOCH)?;
    let epoch = r.u64()?;
    let lambda = r.f64()?;
    ensure((0.0..=1.0).contains(&lambda), "lambda")?;
    let common_count = r.u64()?;
    let c = r.u32()? as usize;
    let policy_tag = r.u8()?;
    let param = r.f64()?;
    let policies = [
        PolicyKind::Basic,
        PolicyKind::Incremented { delta: param },
        PolicyKind::Chernoff { gamma: param },
    ];
    let policy = from_tag("policy", policy_tag, &policies)?;
    ensure(param.is_finite(), "policy_param")?;
    let coin_bits = r.u32()? as usize;
    let link = LinkModel {
        latency_us: r.f64()?,
        bandwidth_bytes_per_us: r.f64()?,
    };
    ensure(
        (0.0..f64::INFINITY).contains(&link.latency_us),
        "link_latency_us",
    )?;
    let bandwidth = link.bandwidth_bytes_per_us;
    ensure(bandwidth.is_finite() && bandwidth > 0.0, "link_bandwidth")?;
    let backend = backend_from_tag(r.u8()?)?;
    let seed = r.u64()?;
    let (m, n) = (r.u32()? as usize, r.u32()? as usize);

    // The header fixes the record's size; widen so hostile dimensions
    // cannot overflow, and check it before the checksum.
    let (m_, n_, c_) = (m as u128, n as u128, c as u128);
    let body = (m_ * n_).div_ceil(8) + n_.div_ceil(8) + n_ * 24 + c_ * n_ * 8 + 4;
    r.expect_remaining(usize::try_from(body).unwrap_or(usize::MAX))?;
    let mut r = r.unseal()?;

    let index = r.index(m, n)?;
    let decisions = r.bools(n)?;
    let thresholds = r.u64s(n)?;
    let epsilons = r.probabilities(n, |owner| CodecError::InvalidEpsilon { owner })?;
    let mut shares = Vec::with_capacity(r.reserve(c, size_of::<Vec<u64>>())?);
    for _ in 0..c {
        shares.push(r.u64s(n)?);
    }
    r.finish()?;
    Ok(EpochState {
        index,
        decisions,
        lambda,
        common_count,
        epoch,
        thresholds,
        epsilons: epsilons.into_iter().map(Epsilon::saturating).collect(),
        shares,
        config: ProtocolConfig {
            c,
            policy,
            coin_bits,
            link,
            backend,
            seed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
    use eppi_index::{crc32, decode_index, encode_index};
    use eppi_protocol::construct_epoch;

    /// Byte length of the fixed header (everything before the bitmap).
    const HEADER: usize = 80;

    fn sample_epoch(policy: PolicyKind, backend: Backend) -> IndexEpoch {
        let mut mat = MembershipMatrix::new(24, 5);
        for j in 0..5u32 {
            for p in 0..(3 + j * 4) {
                mat.set(ProviderId(p % 24), OwnerId(j), true);
            }
        }
        let eps: Vec<Epsilon> = [0.1, 0.4, 0.6, 0.8, 1.0]
            .iter()
            .map(|&v| Epsilon::new(v).unwrap())
            .collect();
        let cfg = ProtocolConfig {
            policy,
            backend,
            seed: 42,
            ..ProtocolConfig::default()
        };
        construct_epoch(&mat, &eps, &cfg).unwrap()
    }

    /// `bytes` with `new` written at `at` and the CRC trailer re-sealed,
    /// so only the decoder's field checks can object.
    fn patched(bytes: &[u8], at: usize, new: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + new.len()].copy_from_slice(new);
        let body = out.len() - 4;
        let crc = crc32(&out[..body]);
        out[body..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn epoch_roundtrips_through_bytes() {
        for (policy, backend) in [
            (PolicyKind::Basic, Backend::InProcess),
            (PolicyKind::Incremented { delta: 0.2 }, Backend::Threaded),
            (PolicyKind::Chernoff { gamma: 0.9 }, Backend::Simulated),
            (PolicyKind::Basic, Backend::Pipelined { workers: 2 }),
        ] {
            let epoch = sample_epoch(policy, backend);
            let bytes = encode_epoch(&epoch);
            let back = decode_epoch(&bytes).expect("roundtrip");
            assert_eq!(back.index(), epoch.index());
            assert_eq!(back.decisions(), epoch.decisions());
            assert_eq!(back.thresholds(), epoch.thresholds());
            assert_eq!(back.shares(), epoch.shares());
            assert_eq!(back.epsilons(), epoch.epsilons());
            assert_eq!(back.lambda(), epoch.lambda());
            assert_eq!(back.common_count(), epoch.common_count());
            assert_eq!(back.epoch(), epoch.epoch());
            assert_eq!(back.config(), epoch.config());
        }
    }

    #[test]
    fn bare_pipelined_tag_is_rejected() {
        // Discriminant 3 with a zero worker count is not a value the
        // encoder can produce; the decoder must not invent workers.
        let epoch = sample_epoch(PolicyKind::Basic, Backend::InProcess);
        let bytes = patched(&encode_epoch(&epoch), 63, &[3]);
        assert!(matches!(
            decode_epoch(&bytes),
            Err(StoreError::Codec(CodecError::UnknownTag {
                field: "backend",
                ..
            }))
        ));
    }

    #[test]
    fn corrupt_bytes_yield_typed_errors() {
        let epoch = sample_epoch(PolicyKind::Basic, Backend::InProcess);
        let bytes = encode_epoch(&epoch);
        // Flip one byte in the middle: the CRC rejects it.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            decode_epoch(&flipped),
            Err(StoreError::Codec(CodecError::BadChecksum { .. }))
        ));
        // Truncation is detected before any allocation-heavy work.
        assert!(matches!(
            decode_epoch(&bytes[..bytes.len() - 3]),
            Err(StoreError::Codec(_))
        ));
    }

    /// A 9 × 5 record in plain data (no protocol run): 45 bitmap bits,
    /// 5 decision bits, three 4-bit share vectors.
    fn sample_record() -> IndexEpoch {
        let mut m = MembershipMatrix::new(9, 5);
        for (p, o) in [(0u32, 0u32), (3, 2), (8, 4), (5, 0), (2, 3)] {
            m.set(ProviderId(p), OwnerId(o), true);
        }
        IndexEpoch::resume(EpochState {
            index: PublishedIndex::new(m, vec![0.0, 0.25, 0.5, 0.75, 1.0]),
            decisions: (0..5).map(|o| o % 2 == 0).collect(),
            lambda: 0.375,
            common_count: 3,
            epoch: 17,
            thresholds: (0..5u64).map(|o| o * 3 + 1).collect(),
            epsilons: [0.0, 0.2, 0.4, 0.8, 1.0]
                .iter()
                .map(|&v| Epsilon::new(v).unwrap())
                .collect(),
            shares: (0..3u64)
                .map(|c| (0..5u64).map(|o| (c * 5 + o * 7) % 16).collect())
                .collect(),
            config: ProtocolConfig {
                c: 3,
                policy: PolicyKind::Chernoff { gamma: 0.9 },
                coin_bits: 16,
                link: LinkModel {
                    latency_us: 200.0,
                    bandwidth_bytes_per_us: 125.0,
                },
                backend: Backend::InProcess,
                seed: 0xfeed_beef,
            },
        })
        .unwrap()
    }

    fn codec_err(bytes: &[u8]) -> CodecError {
        match decode_epoch(bytes) {
            Err(StoreError::Codec(e)) => e,
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn epoch_record_roundtrips() {
        let record = sample_record();
        let bytes = encode_epoch(&record);
        let back = decode_epoch(&bytes).expect("roundtrip");
        assert_eq!(back.index(), record.index());
        assert_eq!(back.decisions(), record.decisions());
        assert_eq!(back.shares(), record.shares());
        assert_eq!(back.epsilons(), record.epsilons());
        assert_eq!(back.config(), record.config());
        assert_eq!(encode_epoch(&back), bytes);
    }

    #[test]
    fn epoch_record_truncation_is_detected() {
        let bytes = encode_epoch(&sample_record());
        for cut in [0usize, 3, 5, 40, 81, bytes.len() - 5, bytes.len() - 1] {
            assert!(
                matches!(codec_err(&bytes[..cut]), CodecError::Truncated { .. }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn epoch_record_flipped_byte_fails_checksum() {
        let clean = encode_epoch(&sample_record());
        // Flip one byte in the body (past the header fields with their
        // own domain checks): the CRC must catch it.
        let mut bytes = clean.clone();
        bytes[HEADER + 1] ^= 0x10;
        assert!(matches!(codec_err(&bytes), CodecError::BadChecksum { .. }));
    }

    #[test]
    fn epoch_record_rejects_v1_and_vice_versa() {
        let v1 = encode_index(sample_record().index());
        assert_eq!(codec_err(&v1), CodecError::UnsupportedVersion(1));
        let bytes = encode_epoch(&sample_record());
        assert_eq!(decode_index(&bytes), Err(CodecError::UnsupportedVersion(2)));
        assert_eq!(
            eppi_index::decode_serve_snapshot(&bytes),
            Err(CodecError::UnsupportedVersion(2))
        );
        let mut v3 = v1;
        v3[4] = 3;
        assert_eq!(codec_err(&v3), CodecError::UnsupportedVersion(3));
    }

    #[test]
    fn epoch_record_rejects_unknown_tags_and_bad_scalars() {
        let bytes = encode_epoch(&sample_record());
        assert_eq!(
            codec_err(&patched(&bytes, 34, &[9])),
            CodecError::UnknownTag {
                field: "policy",
                tag: 9
            }
        );
        assert_eq!(
            codec_err(&patched(&bytes, 63, &[7])),
            CodecError::UnknownTag {
                field: "backend",
                tag: 7
            }
        );
        // The pipelined packing (low bits 3, workers above) is in
        // domain; a bare 3 with zero workers is not.
        assert!(decode_epoch(&patched(&bytes, 63, &[3 | (2 << 3)])).is_ok());
        assert_eq!(
            codec_err(&patched(&bytes, 63, &[3])),
            CodecError::UnknownTag {
                field: "backend",
                tag: 3
            }
        );
        assert_eq!(
            codec_err(&patched(&bytes, 14, &f64::NAN.to_le_bytes())),
            CodecError::InvalidField { field: "lambda" }
        );
        // ε₁ sits after the 6-byte bitmap, 5 β's, 1 decision byte and
        // 5 thresholds.
        let eps_1 = HEADER + 6 + 40 + 1 + 40 + 8;
        assert_eq!(
            codec_err(&patched(&bytes, eps_1, &3.0f64.to_le_bytes())),
            CodecError::InvalidEpsilon { owner: 1 }
        );
    }

    #[test]
    fn epoch_record_rejects_trailing_bytes() {
        let mut bytes = encode_epoch(&sample_record());
        bytes.push(0);
        assert_eq!(codec_err(&bytes), CodecError::TrailingBytes(1));
    }

    #[test]
    fn epoch_record_huge_dimensions_do_not_allocate() {
        // Corrupt the owner-count field to u32::MAX: the decoder must
        // answer Truncated from the length check, not attempt a
        // 32-GiB allocation (and the CRC would catch it anyway).
        let mut bytes = encode_epoch(&sample_record());
        bytes[HEADER - 4..HEADER].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(codec_err(&bytes), CodecError::Truncated { .. }));
    }
}
