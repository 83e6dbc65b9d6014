//! The write-ahead journal behind deterministic crash–recovery.
//!
//! Each worker keeps a journal of everything that must survive its own
//! death: the queries it was handed ([`JournalRecord::Admitted`],
//! written before any of them runs), every completed disposition
//! ([`JournalRecord::Answered`] / [`JournalRecord::Shed`]), and a
//! [`JournalRecord::Snapshot`] of its full serving state after every
//! completed query. Because the runtime lives on virtual time and every
//! random stream derives from the batch position, that snapshot is tiny
//! — a clock tick, a budget counter, the breaker state machine, and the
//! shard cursor — which is exactly the space-efficient-LCA observation:
//! per-query state small enough to checkpoint for free.
//!
//! # Canonical byte encoding
//!
//! One record is framed as
//!
//! ```text
//! 0xA5 · tag:u8 · len:u32le · payload[len] · fnv1a32(tag‖len‖payload)
//! ```
//!
//! with every integer little-endian and every enum a fixed `u8` tag.
//! The encoding is *canonical*: a record has exactly one byte form, so
//! "the same answer was journaled twice" can be checked by byte
//! equality (the duplicate-answer invariant of the E15 simulator).
//!
//! # Torn tails versus corruption
//!
//! A crash mid-append leaves a *prefix* of a valid record at the end of
//! the journal. [`DecodeMode::Recover`] tolerates exactly that shape —
//! a trailing incomplete record that still starts with the magic byte —
//! and reports how many bytes were discarded. Everything else (a bad
//! magic byte, a checksum mismatch, an unknown tag, payload bytes left
//! over after decoding, an implausible length) is corruption and fails
//! with a typed [`RecoveryError`] in both modes; nothing in this module
//! panics on untrusted bytes.

use crate::admission::ShedReason;
use crate::breaker::{BreakerEvent, BreakerSnapshot, BreakerState, TransitionCause};
use crate::ring::{NodeId, RingEpoch};
use crate::service::{Answered, FallbackTrigger};
use lcakp_core::{DegradationReason, ResponseTier};
use std::fmt;

/// First byte of every record.
pub const MAGIC: u8 = 0xA5;

/// Bytes of framing around the payload: magic + tag + length prefix.
const HEADER_LEN: usize = 6;
/// Checksum bytes after the payload.
const CRC_LEN: usize = 4;
/// Upper bound on a plausible payload. A torn write can only ever
/// produce a *prefix* of real bytes, so a complete length prefix above
/// this bound is corruption, not tearing.
const MAX_PAYLOAD: u32 = 1 << 20;

const TAG_ADMITTED: u8 = 1;
const TAG_ANSWERED: u8 = 2;
const TAG_SHED: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_RING_CHANGE: u8 = 5;

/// Why journal bytes could not be decoded (or a recovery could not
/// proceed). Every variant names the byte offset of the offending
/// record so a repro can point at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The bytes end before the record at `offset` is complete
    /// (strict mode only; [`DecodeMode::Recover`] reports this shape as
    /// a torn tail instead).
    ShortRead {
        /// Offset of the incomplete record.
        offset: usize,
    },
    /// The byte at `offset` is not the record magic — trailing garbage
    /// or a misaligned read.
    BadMagic {
        /// Offset of the bad byte.
        offset: usize,
        /// What was found there.
        found: u8,
    },
    /// A complete length prefix claims an implausibly large payload.
    OversizedRecord {
        /// Offset of the record.
        offset: usize,
        /// The claimed payload length.
        len: u32,
    },
    /// The stored checksum does not match the record bytes (a bit flip,
    /// not a torn write — torn writes shorten, they do not alter).
    ChecksumMismatch {
        /// Offset of the record.
        offset: usize,
    },
    /// The record tag is not one this version writes.
    UnknownTag {
        /// Offset of the record.
        offset: usize,
        /// The unknown tag.
        tag: u8,
    },
    /// The payload is internally malformed (truncated field, bad enum
    /// tag, or trailing bytes after the last field).
    InvalidPayload {
        /// Offset of the record.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Recovery needs a snapshot and the journal holds no complete one.
    MissingSnapshot,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::ShortRead { offset } => {
                write!(f, "journal ends inside the record at byte {offset}")
            }
            RecoveryError::BadMagic { offset, found } => {
                write!(
                    f,
                    "byte {offset}: expected record magic {MAGIC:#04x}, found {found:#04x}"
                )
            }
            RecoveryError::OversizedRecord { offset, len } => {
                write!(
                    f,
                    "record at byte {offset} claims a {len}-byte payload (max {MAX_PAYLOAD})"
                )
            }
            RecoveryError::ChecksumMismatch { offset } => {
                write!(f, "checksum mismatch in the record at byte {offset}")
            }
            RecoveryError::UnknownTag { offset, tag } => {
                write!(f, "record at byte {offset} has unknown tag {tag}")
            }
            RecoveryError::InvalidPayload { offset, what } => {
                write!(f, "record at byte {offset}: {what}")
            }
            RecoveryError::MissingSnapshot => {
                write!(f, "journal holds no complete worker snapshot")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Everything a worker needs to resume exactly where a snapshot was
/// taken: the virtual clock, the budget spend, the breaker state
/// machine (including its event log), and the shard cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker this snapshot belongs to.
    pub worker: u64,
    /// The worker's virtual-clock tick at snapshot time.
    pub tick: u64,
    /// Accesses already charged against the worker's budget slice.
    pub budget_spent: u64,
    /// Shard-local position of the next query to serve.
    pub next_position: u64,
    /// The circuit breaker, frozen.
    pub breaker: BreakerSnapshot,
}

impl WorkerSnapshot {
    /// The snapshot of a worker that has not served anything yet.
    #[must_use]
    pub fn initial(worker: u64) -> Self {
        WorkerSnapshot {
            worker,
            tick: 0,
            budget_spent: 0,
            next_position: 0,
            breaker: BreakerSnapshot::initial(),
        }
    }
}

/// One durable journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A query was handed to this worker (written *before* it runs).
    Admitted {
        /// Global batch position.
        index: u64,
        /// The queried item id.
        item: u64,
    },
    /// A query completed with an answer.
    Answered {
        /// Global batch position.
        index: u64,
        /// The full answer, byte-for-byte.
        answer: Answered,
    },
    /// A query completed with a typed rejection.
    Shed {
        /// Global batch position.
        index: u64,
        /// Why it was refused.
        reason: ShedReason,
    },
    /// The worker's full serving state after the preceding record.
    Snapshot(WorkerSnapshot),
    /// The cluster's ring advanced one epoch: a rebalance promoted a
    /// replica to acting owner of a shard. Written to every live node's
    /// journal so failover recovery replays the epoch the cluster had
    /// actually reached — not the boot view — before re-routing.
    RingChange {
        /// The epoch the ring advanced *to*.
        epoch: RingEpoch,
        /// The shard whose acting owner changed.
        shard: u64,
        /// The node that donated the shard.
        from: NodeId,
        /// The replica promoted to acting owner.
        to: NodeId,
    },
}

impl JournalRecord {
    /// The canonical byte encoding of this record (framing, payload,
    /// and checksum).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.encode_into(&mut scratch, &mut out);
        out
    }

    /// Appends the canonical byte encoding of this record to `out`,
    /// building the payload in `scratch` (cleared first). Both buffers
    /// retain their capacity across calls, so a worker that reuses them
    /// encodes without allocating on the serving hot path.
    pub fn encode_into(&self, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
        scratch.clear();
        let mut enc = Enc { out: scratch };
        let tag = match self {
            JournalRecord::Admitted { index, item } => {
                enc.u64(*index);
                enc.u64(*item);
                TAG_ADMITTED
            }
            JournalRecord::Answered { index, answer } => {
                enc.u64(*index);
                encode_answered(&mut enc, answer);
                TAG_ANSWERED
            }
            JournalRecord::Shed { index, reason } => {
                enc.u64(*index);
                encode_shed_reason(&mut enc, reason);
                TAG_SHED
            }
            JournalRecord::Snapshot(snapshot) => {
                encode_snapshot(&mut enc, snapshot);
                TAG_SNAPSHOT
            }
            JournalRecord::RingChange {
                epoch,
                shard,
                from,
                to,
            } => {
                enc.u64(epoch.get());
                enc.u64(*shard);
                enc.u64(from.0 as u64);
                enc.u64(to.0 as u64);
                TAG_RING_CHANGE
            }
        };
        frame_into(tag, scratch, out);
    }

    /// The batch position this record is about (`None` for snapshots
    /// and ring changes, which are about the worker/cluster, not a
    /// query).
    #[must_use]
    pub fn index(&self) -> Option<u64> {
        match self {
            JournalRecord::Admitted { index, .. }
            | JournalRecord::Answered { index, .. }
            | JournalRecord::Shed { index, .. } => Some(*index),
            JournalRecord::Snapshot(_) | JournalRecord::RingChange { .. } => None,
        }
    }
}

/// How strictly to treat an incomplete final record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    /// Any incomplete tail is an error — for journals that were closed
    /// cleanly and for round-trip tests.
    Strict,
    /// A trailing *prefix* of a record (a torn crash-time write) is
    /// dropped and counted, not an error — for recovery.
    Recover,
}

/// The outcome of decoding a journal byte string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedJournal {
    /// Every complete, checksum-valid record, in journal order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded as a torn tail (always 0 in strict mode).
    pub torn_bytes: usize,
}

/// Decodes journal bytes.
///
/// # Errors
///
/// Any [`RecoveryError`] except [`RecoveryError::MissingSnapshot`];
/// see [`DecodeMode`] for how the two modes treat an incomplete tail.
pub fn decode(bytes: &[u8], mode: DecodeMode) -> Result<DecodedJournal, RecoveryError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        if bytes[offset] != MAGIC {
            return Err(RecoveryError::BadMagic {
                offset,
                found: bytes[offset],
            });
        }
        let remaining = bytes.len() - offset;
        if remaining < HEADER_LEN {
            return torn(mode, offset, remaining, records);
        }
        let tag = bytes[offset + 1];
        let len = u32::from_le_bytes([
            bytes[offset + 2],
            bytes[offset + 3],
            bytes[offset + 4],
            bytes[offset + 5],
        ]);
        if len > MAX_PAYLOAD {
            // A torn write can only shorten a record, never invent a
            // length, so an absurd complete prefix is corruption.
            return Err(RecoveryError::OversizedRecord { offset, len });
        }
        let total = HEADER_LEN + len as usize + CRC_LEN;
        if remaining < total {
            return torn(mode, offset, remaining, records);
        }
        let payload = &bytes[offset + HEADER_LEN..offset + HEADER_LEN + len as usize];
        let stored_crc = u32::from_le_bytes([
            bytes[offset + total - 4],
            bytes[offset + total - 3],
            bytes[offset + total - 2],
            bytes[offset + total - 1],
        ]);
        if stored_crc != record_crc(tag, payload) {
            return Err(RecoveryError::ChecksumMismatch { offset });
        }
        records.push(decode_payload(tag, payload, offset)?);
        offset += total;
    }
    Ok(DecodedJournal {
        records,
        torn_bytes: 0,
    })
}

fn torn(
    mode: DecodeMode,
    offset: usize,
    remaining: usize,
    records: Vec<JournalRecord>,
) -> Result<DecodedJournal, RecoveryError> {
    match mode {
        DecodeMode::Strict => Err(RecoveryError::ShortRead { offset }),
        DecodeMode::Recover => Ok(DecodedJournal {
            records,
            torn_bytes: remaining,
        }),
    }
}

fn decode_payload(tag: u8, payload: &[u8], offset: usize) -> Result<JournalRecord, RecoveryError> {
    let mut dec = Dec::new(payload, offset);
    let record = match tag {
        TAG_ADMITTED => JournalRecord::Admitted {
            index: dec.u64()?,
            item: dec.u64()?,
        },
        TAG_ANSWERED => JournalRecord::Answered {
            index: dec.u64()?,
            answer: decode_answered(&mut dec)?,
        },
        TAG_SHED => JournalRecord::Shed {
            index: dec.u64()?,
            reason: decode_shed_reason(&mut dec)?,
        },
        TAG_SNAPSHOT => JournalRecord::Snapshot(decode_snapshot(&mut dec)?),
        TAG_RING_CHANGE => JournalRecord::RingChange {
            epoch: RingEpoch(dec.u64()?),
            shard: dec.u64()?,
            from: NodeId(dec.u64()? as usize),
            to: NodeId(dec.u64()? as usize),
        },
        other => return Err(RecoveryError::UnknownTag { offset, tag: other }),
    };
    dec.finish()?;
    Ok(record)
}

/// An in-memory worker journal: an append-only byte string plus the
/// crash-time torn-append used by the chaos harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    bytes: Vec<u8>,
}

impl Journal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Journal::default()
    }

    /// The raw journal bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends one record atomically.
    pub fn append(&mut self, record: &JournalRecord) {
        self.bytes.extend_from_slice(&record.encode());
    }

    /// Appends already-encoded record bytes atomically.
    pub fn append_encoded(&mut self, encoded: &[u8]) {
        self.bytes.extend_from_slice(encoded);
    }

    /// Appends only the first `keep` bytes of `encoded` — a simulated
    /// crash mid-write. `keep ≥ encoded.len()` degenerates to a full
    /// append.
    pub fn append_torn(&mut self, encoded: &[u8], keep: usize) {
        let keep = keep.min(encoded.len());
        self.bytes.extend_from_slice(&encoded[..keep]);
    }

    /// Drops every byte past `len` — how recovery discards a torn tail
    /// before the revived worker resumes appending (appending after
    /// torn garbage would corrupt the journal mid-stream).
    pub fn truncate(&mut self, len: usize) {
        self.bytes.truncate(len);
    }

    /// Decodes the journal.
    ///
    /// # Errors
    ///
    /// See [`decode`].
    pub fn decode(&self, mode: DecodeMode) -> Result<DecodedJournal, RecoveryError> {
        decode(&self.bytes, mode)
    }

    /// Recovery view: decodes tolerantly, drops any torn tail, and
    /// locates the last complete snapshot.
    ///
    /// # Errors
    ///
    /// Corruption errors from [`decode`], or
    /// [`RecoveryError::MissingSnapshot`] when no snapshot survived.
    pub fn recover(&self) -> Result<Recovered, RecoveryError> {
        let decoded = self.decode(DecodeMode::Recover)?;
        let snapshot = decoded
            .records
            .iter()
            .rev()
            .find_map(|record| match record {
                JournalRecord::Snapshot(snapshot) => Some(snapshot.clone()),
                _ => None,
            })
            .ok_or(RecoveryError::MissingSnapshot)?;
        Ok(Recovered {
            records: decoded.records,
            torn_bytes: decoded.torn_bytes,
            snapshot,
        })
    }
}

/// What [`Journal::recover`] reconstructs from the surviving bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Every surviving record, in order.
    pub records: Vec<JournalRecord>,
    /// Bytes dropped as a torn tail.
    pub torn_bytes: usize,
    /// The last complete snapshot — the state to resume from.
    pub snapshot: WorkerSnapshot,
}

// ---------------------------------------------------------------- framing

fn frame_into(tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("journal payloads are tiny");
    out.reserve(HEADER_LEN + payload.len() + CRC_LEN);
    out.push(MAGIC);
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&record_crc(tag, payload).to_le_bytes());
}

fn record_crc(tag: u8, payload: &[u8]) -> u32 {
    let mut hash = fnv1a32_init();
    hash = fnv1a32_step(hash, &[tag]);
    let len = u32::try_from(payload.len()).expect("journal payloads are tiny");
    hash = fnv1a32_step(hash, &len.to_le_bytes());
    fnv1a32_step(hash, payload)
}

fn fnv1a32_init() -> u32 {
    0x811c_9dc5
}

fn fnv1a32_step(mut hash: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

// --------------------------------------------------------- field encoding

/// Little-endian field writer over a borrowed payload buffer, so the
/// serving path can reuse one buffer across every record it encodes.
struct Enc<'a> {
    out: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, value: u8) {
        // lcakp-lint: allow(D011) reason="appends into the caller's reusable payload buffer; capacity is retained across records"
        self.out.push(value);
    }
    fn u32(&mut self, value: u32) {
        self.out.extend_from_slice(&value.to_le_bytes());
    }
    fn u64(&mut self, value: u64) {
        self.out.extend_from_slice(&value.to_le_bytes());
    }
    fn bool(&mut self, value: bool) {
        // lcakp-lint: allow(D011) reason="appends into the caller's reusable payload buffer; capacity is retained across records"
        self.out.push(u8::from(value));
    }
}

struct Dec<'a> {
    payload: &'a [u8],
    pos: usize,
    offset: usize,
}

impl<'a> Dec<'a> {
    fn new(payload: &'a [u8], offset: usize) -> Self {
        Dec {
            payload,
            pos: 0,
            offset,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        if self.pos + n > self.payload.len() {
            return Err(RecoveryError::InvalidPayload {
                offset: self.offset,
                what: "payload ends mid-field",
            });
        }
        let slice = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, RecoveryError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RecoveryError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn u64(&mut self) -> Result<u64, RecoveryError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes([
            bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
        ]))
    }

    fn bool(&mut self) -> Result<bool, RecoveryError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.bad("boolean field is neither 0 nor 1")),
        }
    }

    fn bad(&self, what: &'static str) -> RecoveryError {
        RecoveryError::InvalidPayload {
            offset: self.offset,
            what,
        }
    }

    fn finish(&self) -> Result<(), RecoveryError> {
        if self.pos == self.payload.len() {
            Ok(())
        } else {
            Err(RecoveryError::InvalidPayload {
                offset: self.offset,
                what: "trailing bytes after the last payload field",
            })
        }
    }
}

fn encode_answered(enc: &mut Enc<'_>, answer: &Answered) {
    enc.bool(answer.include);
    enc.u8(match answer.tier {
        ResponseTier::Full => 0,
        ResponseTier::CachedRule => 1,
        ResponseTier::Trivial => 2,
        _ => unreachable!("the serving ladder has exactly three tiers"),
    });
    match answer.fallback {
        None => enc.u8(0),
        Some(FallbackTrigger::BreakerOpen) => enc.u8(1),
        Some(FallbackTrigger::Degraded(reason)) => {
            enc.u8(2);
            match reason {
                DegradationReason::RetriesExhausted => enc.u8(0),
                DegradationReason::CorruptionDetected => enc.u8(1),
                DegradationReason::BudgetExhausted { spent, cap } => {
                    enc.u8(2);
                    enc.u64(spent);
                    enc.u64(cap);
                }
                DegradationReason::DeadlineExceeded => enc.u8(3),
                _ => unreachable!("unknown degradation reason cannot be journaled"),
            }
        }
    }
    enc.u32(answer.attempts);
    enc.u64(answer.retries_used);
    enc.u64(answer.accesses);
    enc.u64(answer.start_tick);
    enc.u64(answer.end_tick);
    enc.bool(answer.deadline_met);
    enc.u64(answer.worker as u64);
}

fn decode_answered(dec: &mut Dec<'_>) -> Result<Answered, RecoveryError> {
    let include = dec.bool()?;
    let tier = match dec.u8()? {
        0 => ResponseTier::Full,
        1 => ResponseTier::CachedRule,
        2 => ResponseTier::Trivial,
        _ => return Err(dec.bad("unknown response-tier tag")),
    };
    let fallback = match dec.u8()? {
        0 => None,
        1 => Some(FallbackTrigger::BreakerOpen),
        2 => Some(FallbackTrigger::Degraded(match dec.u8()? {
            0 => DegradationReason::RetriesExhausted,
            1 => DegradationReason::CorruptionDetected,
            2 => DegradationReason::BudgetExhausted {
                spent: dec.u64()?,
                cap: dec.u64()?,
            },
            3 => DegradationReason::DeadlineExceeded,
            _ => return Err(dec.bad("unknown degradation-reason tag")),
        })),
        _ => return Err(dec.bad("unknown fallback tag")),
    };
    Ok(Answered {
        include,
        tier,
        fallback,
        attempts: dec.u32()?,
        retries_used: dec.u64()?,
        accesses: dec.u64()?,
        start_tick: dec.u64()?,
        end_tick: dec.u64()?,
        deadline_met: dec.bool()?,
        worker: dec.u64()? as usize,
    })
}

fn encode_shed_reason(enc: &mut Enc<'_>, reason: &ShedReason) {
    match reason {
        ShedReason::QueueFull { depth } => {
            enc.u8(0);
            enc.u64(*depth as u64);
        }
        ShedReason::BudgetInsufficient { needed, remaining } => {
            enc.u8(1);
            enc.u64(*needed);
            enc.u64(*remaining);
        }
        ShedReason::WorkerCrashed { worker } => {
            enc.u8(2);
            enc.u64(*worker as u64);
        }
        ShedReason::NodeUnreachable { shard } => {
            enc.u8(3);
            enc.u64(*shard as u64);
        }
        ShedReason::Partitioned { shard } => {
            enc.u8(4);
            enc.u64(*shard as u64);
        }
        ShedReason::Overload { signal } => {
            enc.u8(5);
            enc.u32(signal.queue_depth);
            enc.u32(signal.shed_permille);
            enc.u32(signal.deadline_miss_permille);
        }
        ShedReason::StaleRingEpoch {
            shard,
            seen,
            current,
        } => {
            enc.u8(6);
            enc.u64(*shard as u64);
            enc.u64(seen.get());
            enc.u64(current.get());
        }
    }
}

fn decode_shed_reason(dec: &mut Dec<'_>) -> Result<ShedReason, RecoveryError> {
    match dec.u8()? {
        0 => Ok(ShedReason::QueueFull {
            depth: dec.u64()? as usize,
        }),
        1 => Ok(ShedReason::BudgetInsufficient {
            needed: dec.u64()?,
            remaining: dec.u64()?,
        }),
        2 => Ok(ShedReason::WorkerCrashed {
            worker: dec.u64()? as usize,
        }),
        3 => Ok(ShedReason::NodeUnreachable {
            shard: dec.u64()? as usize,
        }),
        4 => Ok(ShedReason::Partitioned {
            shard: dec.u64()? as usize,
        }),
        5 => Ok(ShedReason::Overload {
            signal: crate::slo::LoadSignal {
                queue_depth: dec.u32()?,
                shed_permille: dec.u32()?,
                deadline_miss_permille: dec.u32()?,
            },
        }),
        6 => Ok(ShedReason::StaleRingEpoch {
            shard: dec.u64()? as usize,
            seen: RingEpoch(dec.u64()?),
            current: RingEpoch(dec.u64()?),
        }),
        _ => Err(dec.bad("unknown shed-reason tag")),
    }
}

fn breaker_state_tag(state: BreakerState) -> u8 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

fn breaker_state_from(tag: u8, dec: &Dec<'_>) -> Result<BreakerState, RecoveryError> {
    match tag {
        0 => Ok(BreakerState::Closed),
        1 => Ok(BreakerState::Open),
        2 => Ok(BreakerState::HalfOpen),
        _ => Err(dec.bad("unknown breaker-state tag")),
    }
}

fn encode_snapshot(enc: &mut Enc<'_>, snapshot: &WorkerSnapshot) {
    enc.u64(snapshot.worker);
    enc.u64(snapshot.tick);
    enc.u64(snapshot.budget_spent);
    enc.u64(snapshot.next_position);
    let breaker = &snapshot.breaker;
    enc.u8(breaker_state_tag(breaker.state));
    enc.u32(breaker.consecutive_failures);
    enc.u64(breaker.opened_at);
    enc.u32(breaker.probes_issued);
    enc.u32(breaker.probes_succeeded);
    enc.u32(u32::try_from(breaker.events.len()).expect("breaker event logs are tiny"));
    // lcakp-lint: loop-bound(breaker-transitions) reason="genuinely data-dependent: one entry per circuit-breaker state transition, which faults (not the query) drive; snapshots are taken off the per-query path"
    for event in &breaker.events {
        enc.u64(event.at_tick);
        enc.u8(breaker_state_tag(event.from));
        enc.u8(breaker_state_tag(event.to));
        enc.u8(match event.cause {
            TransitionCause::FailureThreshold => 0,
            TransitionCause::CooldownElapsed => 1,
            TransitionCause::ProbesSucceeded => 2,
            TransitionCause::ProbeFailed => 3,
        });
    }
}

fn decode_snapshot(dec: &mut Dec<'_>) -> Result<WorkerSnapshot, RecoveryError> {
    let worker = dec.u64()?;
    let tick = dec.u64()?;
    let budget_spent = dec.u64()?;
    let next_position = dec.u64()?;
    let state_tag = dec.u8()?;
    let state = breaker_state_from(state_tag, dec)?;
    let consecutive_failures = dec.u32()?;
    let opened_at = dec.u64()?;
    let probes_issued = dec.u32()?;
    let probes_succeeded = dec.u32()?;
    let n_events = dec.u32()?;
    let mut events = Vec::with_capacity(n_events.min(1024) as usize);
    for _ in 0..n_events {
        let at_tick = dec.u64()?;
        let from_tag = dec.u8()?;
        let from = breaker_state_from(from_tag, dec)?;
        let to_tag = dec.u8()?;
        let to = breaker_state_from(to_tag, dec)?;
        let cause = match dec.u8()? {
            0 => TransitionCause::FailureThreshold,
            1 => TransitionCause::CooldownElapsed,
            2 => TransitionCause::ProbesSucceeded,
            3 => TransitionCause::ProbeFailed,
            _ => return Err(dec.bad("unknown transition-cause tag")),
        };
        events.push(BreakerEvent {
            at_tick,
            from,
            to,
            cause,
        });
    }
    Ok(WorkerSnapshot {
        worker,
        tick,
        budget_spent,
        next_position,
        breaker: BreakerSnapshot {
            state,
            consecutive_failures,
            opened_at,
            probes_issued,
            probes_succeeded,
            events,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_answered() -> Answered {
        Answered {
            include: true,
            tier: ResponseTier::CachedRule,
            fallback: Some(FallbackTrigger::Degraded(
                DegradationReason::BudgetExhausted { spent: 7, cap: 9 },
            )),
            attempts: 3,
            retries_used: 11,
            accesses: 42,
            start_tick: 100,
            end_tick: 250,
            deadline_met: false,
            worker: 2,
        }
    }

    fn sample_snapshot() -> WorkerSnapshot {
        WorkerSnapshot {
            worker: 1,
            tick: 999,
            budget_spent: 123,
            next_position: 4,
            breaker: BreakerSnapshot {
                state: BreakerState::HalfOpen,
                consecutive_failures: 1,
                opened_at: 800,
                probes_issued: 1,
                probes_succeeded: 0,
                events: vec![
                    BreakerEvent {
                        at_tick: 500,
                        from: BreakerState::Closed,
                        to: BreakerState::Open,
                        cause: TransitionCause::FailureThreshold,
                    },
                    BreakerEvent {
                        at_tick: 800,
                        from: BreakerState::Open,
                        to: BreakerState::HalfOpen,
                        cause: TransitionCause::CooldownElapsed,
                    },
                ],
            },
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Admitted { index: 0, item: 17 },
            JournalRecord::Shed {
                index: 0,
                reason: ShedReason::BudgetInsufficient {
                    needed: 50,
                    remaining: 3,
                },
            },
            JournalRecord::Answered {
                index: 1,
                answer: sample_answered(),
            },
            JournalRecord::Shed {
                index: 2,
                reason: ShedReason::NodeUnreachable { shard: 6 },
            },
            JournalRecord::Shed {
                index: 3,
                reason: ShedReason::Partitioned { shard: 1 },
            },
            JournalRecord::Shed {
                index: 4,
                reason: ShedReason::Overload {
                    signal: crate::slo::LoadSignal {
                        queue_depth: 9,
                        shed_permille: 125,
                        deadline_miss_permille: 300,
                    },
                },
            },
            JournalRecord::Shed {
                index: 5,
                reason: ShedReason::StaleRingEpoch {
                    shard: 3,
                    seen: RingEpoch(0),
                    current: RingEpoch(2),
                },
            },
            JournalRecord::Snapshot(sample_snapshot()),
            JournalRecord::RingChange {
                epoch: RingEpoch(2),
                shard: 3,
                from: NodeId(0),
                to: NodeId(2),
            },
        ]
    }

    #[test]
    fn records_round_trip_byte_identically() {
        let mut journal = Journal::new();
        for record in sample_records() {
            journal.append(&record);
        }
        let decoded = journal.decode(DecodeMode::Strict).unwrap();
        assert_eq!(decoded.records, sample_records());
        assert_eq!(decoded.torn_bytes, 0);
        // Canonical: re-encoding reproduces the exact bytes.
        let reencoded: Vec<u8> = decoded
            .records
            .iter()
            .flat_map(|record| record.encode())
            .collect();
        assert_eq!(reencoded, journal.bytes());
    }

    #[test]
    fn empty_journal_decodes_to_nothing_and_recovery_reports_it() {
        let journal = Journal::new();
        let decoded = journal.decode(DecodeMode::Strict).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(journal.recover(), Err(RecoveryError::MissingSnapshot));
    }

    #[test]
    fn truncated_tail_is_short_read_in_strict_and_torn_in_recover() {
        let mut journal = Journal::new();
        journal.append(&JournalRecord::Admitted { index: 0, item: 1 });
        let full = JournalRecord::Snapshot(sample_snapshot()).encode();
        let offset = journal.bytes().len();
        // Every proper prefix of the trailing record is a torn tail.
        for keep in 1..full.len() {
            let mut torn = journal.clone();
            torn.append_torn(&full, keep);
            assert_eq!(
                torn.decode(DecodeMode::Strict),
                Err(RecoveryError::ShortRead { offset }),
                "keep={keep}"
            );
            let recovered = torn.decode(DecodeMode::Recover).unwrap();
            assert_eq!(recovered.records.len(), 1, "keep={keep}");
            assert_eq!(recovered.torn_bytes, keep, "keep={keep}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut journal = Journal::new();
        journal.append(&JournalRecord::Answered {
            index: 5,
            answer: sample_answered(),
        });
        let clean = journal.bytes().to_vec();
        for byte_index in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[byte_index] ^= 1;
            assert!(
                decode(&flipped, DecodeMode::Strict).is_err(),
                "flipping bit 0 of byte {byte_index} went undetected in strict mode"
            );
            // Recover mode may read a flipped length field of the *last*
            // record as a torn tail (the two are indistinguishable from
            // the bytes alone), but it must never surface a corrupted
            // record as decoded.
            if let Ok(decoded) = decode(&flipped, DecodeMode::Recover) {
                assert!(
                    decoded.records.is_empty() && decoded.torn_bytes > 0,
                    "byte {byte_index}: recover mode surfaced a corrupted record"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_not_panicked_on() {
        let mut journal = Journal::new();
        journal.append(&JournalRecord::Admitted { index: 2, item: 3 });
        let offset = journal.bytes().len();
        let mut bytes = journal.bytes().to_vec();
        bytes.extend_from_slice(&[0x00, 0xFF, 0x42]);
        assert_eq!(
            decode(&bytes, DecodeMode::Recover),
            Err(RecoveryError::BadMagic {
                offset,
                found: 0x00
            })
        );
    }

    #[test]
    fn payload_with_extra_bytes_is_invalid() {
        // Hand-frame an Admitted record with one byte too many; the
        // checksum is valid, so only the payload check can catch it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(0xEE);
        let mut bytes = Vec::new();
        frame_into(TAG_ADMITTED, &payload, &mut bytes);
        assert_eq!(
            decode(&bytes, DecodeMode::Strict),
            Err(RecoveryError::InvalidPayload {
                offset: 0,
                what: "trailing bytes after the last payload field",
            })
        );
    }

    #[test]
    fn unknown_tag_with_valid_checksum_is_typed() {
        let mut bytes = Vec::new();
        frame_into(0x7F, &[], &mut bytes);
        assert_eq!(
            decode(&bytes, DecodeMode::Strict),
            Err(RecoveryError::UnknownTag {
                offset: 0,
                tag: 0x7F
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_corruption_even_in_recover_mode() {
        let mut bytes = vec![MAGIC, TAG_ADMITTED];
        bytes.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes, DecodeMode::Recover),
            Err(RecoveryError::OversizedRecord {
                offset: 0,
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn recover_finds_the_last_complete_snapshot_past_a_torn_tail() {
        let mut journal = Journal::new();
        journal.append(&JournalRecord::Snapshot(WorkerSnapshot::initial(1)));
        journal.append(&JournalRecord::Answered {
            index: 1,
            answer: sample_answered(),
        });
        let later = sample_snapshot();
        journal.append(&JournalRecord::Snapshot(later.clone()));
        let torn_write = JournalRecord::Admitted { index: 9, item: 9 }.encode();
        journal.append_torn(&torn_write, 4);
        let recovered = journal.recover().unwrap();
        assert_eq!(recovered.snapshot, later);
        assert_eq!(recovered.torn_bytes, 4);
        assert_eq!(recovered.records.len(), 3);
    }
}
