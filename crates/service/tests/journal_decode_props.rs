//! `journal::decode` on arbitrary bytes, in both modes, never panics:
//!
//! * `Strict` either fails with a typed error or returns a valid journal
//!   — one whose records re-encode to exactly the input bytes;
//! * `Recover` either fails exactly as `Strict` does (corruption is an
//!   error in both modes) or returns the records of a prefix of the
//!   input, the rest being one torn record that starts with the magic
//!   byte.
//!
//! Uniform bytes almost never pass the magic and checksum checks, so the
//! generator also frames arbitrary and mutated payloads with valid
//! checksums: every payload decoder meets garbage.

use lcakp_core::{DegradationReason, ResponseTier};
use lcakp_service::{
    decode, Answered, DecodeMode, FallbackTrigger, JournalRecord, NodeId, RecoveryError, RingEpoch,
    ShedReason, WorkerSnapshot,
};
use proptest::collection::vec;
use proptest::prelude::*;

const MAGIC: u8 = 0xA5;
const HEADER_LEN: usize = 6;
const CRC_LEN: usize = 4;

/// FNV-1a over `tag ‖ len ‖ payload`, the record checksum.
fn checksum(tag: u8, payload: &[u8]) -> u32 {
    let len = (payload.len() as u32).to_le_bytes();
    [tag]
        .iter()
        .chain(&len)
        .chain(payload)
        .fold(0x811c_9dc5u32, |hash, &byte| {
            (hash ^ u32::from(byte)).wrapping_mul(0x0100_0193)
        })
}

/// A checksum-valid record frame around `tag` and `payload`.
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![MAGIC, tag];
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(tag, payload).to_le_bytes());
    out
}

/// A record of kind `kind % 5` built from three arbitrary words.
fn record(kind: u8, a: u64, b: u64, c: u64) -> JournalRecord {
    match kind % 5 {
        0 => JournalRecord::Admitted { index: a, item: b },
        1 => JournalRecord::Answered {
            index: a,
            answer: Answered {
                include: b % 2 == 1,
                tier: [
                    ResponseTier::Full,
                    ResponseTier::CachedRule,
                    ResponseTier::Trivial,
                ][(b / 2 % 3) as usize],
                fallback: match b / 6 % 3 {
                    0 => None,
                    1 => Some(FallbackTrigger::BreakerOpen),
                    _ => Some(FallbackTrigger::Degraded(
                        DegradationReason::BudgetExhausted { spent: a, cap: c },
                    )),
                },
                attempts: (b >> 32) as u32,
                retries_used: b,
                accesses: c,
                start_tick: a,
                end_tick: c,
                deadline_met: c % 2 == 1,
                worker: (c >> 32) as usize,
            },
        },
        2 => JournalRecord::Shed {
            index: a,
            reason: ShedReason::BudgetInsufficient {
                needed: b,
                remaining: c,
            },
        },
        3 => JournalRecord::Snapshot(WorkerSnapshot::initial(a)),
        _ => JournalRecord::RingChange {
            epoch: RingEpoch(a),
            shard: b,
            from: NodeId((c >> 32) as usize),
            to: NodeId(c as u32 as usize),
        },
    }
}

/// One piece of a generated journal, of kind `kind % 4`: a valid
/// record; a valid record with one payload byte overwritten, re-framed
/// so that the checksum holds; a checksum-valid frame around a small tag
/// and arbitrary payload bytes; or the arbitrary bytes alone.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let words = (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX);
    let noise = (
        0usize..=usize::MAX,
        0u8..=u8::MAX,
        vec(0u8..=u8::MAX, 0..96),
    );
    (0u8..4, 0u8..10, words, noise).prop_map(|(kind, tag, (a, b, c), (at, byte, raw))| {
        let encoded = record(tag, a, b, c).encode();
        match kind {
            0 => encoded,
            1 => {
                let mut payload = encoded[HEADER_LEN..encoded.len() - CRC_LEN].to_vec();
                if !payload.is_empty() {
                    let at = at % payload.len();
                    payload[at] = byte;
                }
                frame(encoded[1], &payload)
            }
            2 => frame(tag, &raw),
            _ => raw,
        }
    })
}

/// Pieces concatenated, then cut short half the time.
fn journal_bytes() -> impl Strategy<Value = Vec<u8>> {
    (vec(piece(), 0..6), 0u8..2, 0usize..=usize::MAX).prop_map(|(pieces, cut, at)| {
        let mut bytes = pieces.concat();
        if cut == 1 {
            bytes.truncate(at % (bytes.len() + 1));
        }
        bytes
    })
}

fn encode_all(records: &[JournalRecord]) -> Vec<u8> {
    records.iter().flat_map(JournalRecord::encode).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn strict_decode_returns_an_error_or_a_valid_journal(bytes in journal_bytes()) {
        if let Ok(journal) = decode(&bytes, DecodeMode::Strict) {
            prop_assert_eq!(journal.torn_bytes, 0);
            prop_assert_eq!(encode_all(&journal.records), bytes);
        }
    }

    #[test]
    fn recover_decode_returns_a_prefix_of_records(bytes in journal_bytes()) {
        let strict = decode(&bytes, DecodeMode::Strict);
        match decode(&bytes, DecodeMode::Recover) {
            Ok(journal) => {
                let kept = bytes.len() - journal.torn_bytes;
                prop_assert_eq!(&encode_all(&journal.records)[..], &bytes[..kept]);
                if journal.torn_bytes == 0 {
                    prop_assert_eq!(strict, Ok(journal));
                } else {
                    // The tail is one incomplete record.
                    prop_assert_eq!(bytes[kept], MAGIC);
                    prop_assert_eq!(strict, Err(RecoveryError::ShortRead { offset: kept }));
                }
            }
            Err(error) => prop_assert_eq!(strict, Err(error)),
        }
    }
}
