//! The fleet wire protocol: every [`crate::server`] request and
//! response as one CRC-framed message.
//!
//! ## Framing
//!
//! One message = one `sccf_util::framing` frame: `[len u32 le][crc32 u32
//! le][payload]`, the same layout (and the same corruption discipline)
//! as the WAL and checkpoint files — a torn TCP stream or a flipped bit
//! surfaces as a decode **error**, never a panic and never a silently
//! wrong message. [`write_message`]/[`read_message`] are the only
//! socket touch points; everything else in this module is pure bytes in
//! → value out, which is what makes the codec proptestable without a
//! socket (see `tests/serialization.rs`).
//!
//! ## Payloads
//!
//! `payload = [tag u8][body]`, little-endian throughout. Floats travel
//! as their IEEE-754 bit patterns (`to_le_bytes`), so a slate's scores
//! and the timing accumulators cross the wire **bit-identically** —
//! the fleet's pinned equivalence (`tests/fleet.rs`) compares float
//! bits, not approximations. Aggregated timings serialize via
//! [`TimingStats::parts`] — the Welford accumulator plus the non-empty
//! latency buckets — preserving the exact merge algebra, so a fleet's
//! merged percentiles equal one recorder's.
//!
//! [`ServingError`] crosses the wire structurally for every variant a
//! caller can match on; the two variants that cannot round-trip
//! structurally (`Snapshot` wraps a decode-error enum, `EpochInFlight`
//! carries `&'static str`s) degrade to their display text and arrive as
//! [`ServingError::Wire`].
//!
//! Decoding consumes the whole payload: trailing bytes are an error,
//! so a frame holds exactly one message and framing bugs cannot hide.

use sccf_core::{CandidateSource, EngineTimings, EventTiming, Exclusion, FrozenTierMode};
use sccf_serving::api::{
    DurabilityStats, MigrationStats, NeighborhoodStats, PressureStats, RecQuery, RecResponse,
    ServingError, ServingStats, TransportStats,
};
use sccf_serving::sharded::ShardReport;
use sccf_util::codec::{
    put_blob, put_bool, put_f32, put_f64, put_u32, put_u32s, put_u64, put_u8, DecodeError, Reader,
};
use sccf_util::stats::OnlineStats;
use sccf_util::timer::{TimingStats, TIMING_BUCKETS};
use sccf_util::topk::Scored;

/// Wire protocol version, checked by the [`Request::Hello`] handshake.
/// Bump on any incompatible payload change.
/// v2: `TransportStats` block appended to the stats payload.
/// v3: every timing record carries its non-empty latency buckets.
pub const PROTOCOL_VERSION: u32 = 3;

// ----------------------------------------------------------- transport

/// Read / write one payload as one CRC-framed message — the same frame
/// (and the same error taxonomy) as the WAL scanner: `Ok(None)` = the
/// peer closed cleanly at a frame boundary; a torn header/payload is
/// `UnexpectedEof`; a checksum mismatch or impossible length is
/// `InvalidData`; a payload above `MAX_FRAME_LEN` is `InvalidInput`,
/// reported before any byte is written.
pub use sccf_util::framing::{read_frame as read_message, write_frame as write_message};

// --------------------------------------------------------- wire errors

/// Why a payload failed to decode. Every path out of the decoders is
/// one of these — malformed input can never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value it promised.
    Truncated,
    /// An enum discriminant outside the protocol.
    BadTag { what: &'static str, tag: u8 },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Bytes left over after the message — a framing bug or corruption.
    TrailingBytes { left: usize },
    /// A field decoded but is structurally impossible (says which).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "payload truncated"),
            Self::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            Self::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            Self::TrailingBytes { left } => write!(f, "{left} trailing bytes after message"),
            Self::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for ServingError {
    fn from(e: WireError) -> Self {
        ServingError::Wire(e.to_string())
    }
}

impl From<DecodeError> for WireError {
    /// The cursor's only structural complaint on this path is a string
    /// that is not UTF-8 (trailing bytes are counted by `finish` below).
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Invalid(_) => WireError::BadUtf8,
            DecodeError::Truncated | DecodeError::BadMagic => WireError::Truncated,
        }
    }
}

// ------------------------------------------------------ codec plumbing

/// A payload holds exactly one message.
fn finish(r: Reader<'_>) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        left => Err(WireError::TrailingBytes { left }),
    }
}

fn get_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    let n = r.count(1)?;
    Ok(r.string(n)?)
}

fn put_u32_list(out: &mut Vec<u8>, v: &[u32]) {
    put_u64(out, v.len() as u64);
    put_u32s(out, v);
}

fn get_u32_list(r: &mut Reader<'_>) -> Result<Vec<u32>, WireError> {
    let n = r.count(4)?;
    Ok(r.u32s(n)?)
}

// ------------------------------------------------------- shared shapes

fn put_query(out: &mut Vec<u8>, q: &RecQuery) {
    put_u64(out, q.k as u64);
    put_u8(
        out,
        match q.source {
            CandidateSource::Configured => 0,
            CandidateSource::Exact => 1,
            CandidateSource::Ann => 2,
        },
    );
    match &q.exclude {
        Exclusion::History => put_u8(out, 0),
        Exclusion::HistoryAnd(extra) => {
            put_u8(out, 1);
            put_u32_list(out, extra);
        }
        Exclusion::Nothing => put_u8(out, 2),
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<RecQuery, WireError> {
    let k = r.u64()? as usize;
    let source = match r.u8()? {
        0 => CandidateSource::Configured,
        1 => CandidateSource::Exact,
        2 => CandidateSource::Ann,
        tag => {
            return Err(WireError::BadTag {
                what: "source",
                tag,
            })
        }
    };
    let exclude = match r.u8()? {
        0 => Exclusion::History,
        1 => Exclusion::HistoryAnd(get_u32_list(r)?),
        2 => Exclusion::Nothing,
        tag => {
            return Err(WireError::BadTag {
                what: "exclusion",
                tag,
            })
        }
    };
    Ok(RecQuery { k, source, exclude })
}

fn put_slate(out: &mut Vec<u8>, s: &RecResponse) {
    put_u64(out, s.items.len() as u64);
    for item in &s.items {
        put_u32(out, item.id);
        put_f32(out, item.score);
    }
    put_f64(out, s.timing.infer_ms);
    put_f64(out, s.timing.identify_ms);
}

fn get_slate(r: &mut Reader<'_>) -> Result<RecResponse, WireError> {
    let n = r.count(8)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let score = r.f32()?;
        items.push(Scored { score, id });
    }
    Ok(RecResponse {
        items,
        timing: EventTiming {
            infer_ms: r.f64()?,
            identify_ms: r.f64()?,
        },
    })
}

/// One [`TimingStats`]: the Welford accumulator — `n` + four raw f64s
/// ([`OnlineStats::parts`]) — then `[pairs u64]` and that many
/// `(index u32, count u64)` for the non-empty buckets, ascending. Both
/// halves merge exactly, so the merge algebra survives the trip.
fn put_timing(out: &mut Vec<u8>, t: &TimingStats) {
    let (stats, buckets) = t.parts();
    let (n, mean, m2, min, max) = stats.parts();
    put_u64(out, n);
    put_f64(out, mean);
    put_f64(out, m2);
    put_f64(out, min);
    put_f64(out, max);
    let filled = || buckets.iter().enumerate().filter(|&(_, &c)| c > 0);
    put_u64(out, filled().count() as u64);
    for (index, &count) in filled() {
        put_u32(out, index as u32);
        put_u64(out, count);
    }
}

/// The inverse of [`put_timing`]. The bucket section has one encoding
/// per recorder: indices in range and strictly ascending, no zero
/// count, counts summing to `n` — anything else is a typed error.
/// Each record costs one fixed `TIMING_BUCKETS` array (4.3 KiB) per
/// ≥ [`TIMING_LEN`] payload bytes, so decoded memory is bounded by the
/// payload length.
fn get_timing(r: &mut Reader<'_>) -> Result<TimingStats, WireError> {
    let n = r.u64()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    let pairs = r.count(BUCKET_PAIR_LEN)?;
    let mut buckets = Box::new([0u64; TIMING_BUCKETS]);
    let (mut next, mut total) = (0usize, 0u128);
    for _ in 0..pairs {
        let (index, count) = (r.u32()? as usize, r.u64()?);
        if index < next || index >= TIMING_BUCKETS || count == 0 {
            return Err(WireError::Invalid(
                "bucket pair out of range, not ascending or empty",
            ));
        }
        buckets[index] = count;
        next = index + 1;
        total += u128::from(count);
    }
    if total != u128::from(n) {
        return Err(WireError::Invalid("bucket counts do not sum to n"));
    }
    Ok(TimingStats::from_parts(
        OnlineStats::from_parts(n, mean, m2, min, max),
        buckets,
    ))
}

/// One encoded `(index, count)` bucket pair.
const BUCKET_PAIR_LEN: usize = 4 + 8;
/// Size of one encoded [`put_timing`] record with no bucket pairs.
const TIMING_LEN: usize = 8 + 4 * 8 + 8;

fn put_timings(out: &mut Vec<u8>, t: &EngineTimings) {
    put_timing(out, &t.infer);
    put_timing(out, &t.identify);
}

fn get_timings(r: &mut Reader<'_>) -> Result<EngineTimings, WireError> {
    Ok(EngineTimings {
        infer: get_timing(r)?,
        identify: get_timing(r)?,
    })
}

fn put_tier_mode(out: &mut Vec<u8>, m: FrozenTierMode) {
    match m {
        FrozenTierMode::Flat => put_u8(out, 0),
        FrozenTierMode::Hnsw { ef } => {
            put_u8(out, 1);
            put_u64(out, ef as u64);
        }
    }
}

fn get_tier_mode(r: &mut Reader<'_>) -> Result<FrozenTierMode, WireError> {
    match r.u8()? {
        0 => Ok(FrozenTierMode::Flat),
        1 => Ok(FrozenTierMode::Hnsw {
            ef: r.u64()? as usize,
        }),
        tag => Err(WireError::BadTag {
            what: "tier mode",
            tag,
        }),
    }
}

fn put_stats(out: &mut Vec<u8>, s: &ServingStats) {
    put_u64(out, s.events);
    put_u64(out, s.recommends);
    put_timings(out, &s.timings);
    put_u64(out, s.shards.len() as u64);
    for sh in &s.shards {
        put_u64(out, sh.shard as u64);
        put_u64(out, sh.events);
        put_u64(out, sh.recommends);
        put_timings(out, &sh.timings);
        put_bool(out, sh.retired);
        put_u64(out, sh.queue_capacity as u64);
        put_u64(out, sh.tier_dirty);
    }
    let m = &s.migration;
    put_bool(out, m.in_progress);
    put_u64(out, m.migrated_users);
    put_u64(out, m.pending_users);
    put_u64(out, m.batches);
    let n = &s.neighborhood;
    put_bool(out, n.two_tier);
    put_u64(out, n.epoch);
    put_u64(out, n.users_covered);
    put_u64(out, n.events_since_refresh);
    put_f64(out, n.last_refresh_ms);
    put_bool(out, n.refresh_in_progress);
    put_tier_mode(out, n.tier_mode);
    put_u64(out, n.tier_bytes);
    put_f64(out, n.tier_search_ns);
    put_u64(out, n.last_refresh_users);
    put_bool(out, n.delta_ready);
    let d = &s.durability;
    put_bool(out, d.enabled);
    put_u64(out, d.wal_records);
    put_u64(out, d.wal_bytes);
    put_u64(out, d.wal_unsynced_bytes);
    put_u64(out, d.wal_syncs);
    put_u64(out, d.checkpoints);
    put_u64(out, d.checkpoint_watermark);
    put_u64(out, d.last_checkpoint_bytes);
    put_u64(out, d.events_since_checkpoint);
    let p = &s.pressure;
    put_u64(out, p.sends);
    put_u64(out, p.stalls);
    put_f64(out, p.stall_ms);
    put_u64(out, p.queue_capacity);
    put_u64(out, p.peak_queue);
    let t = &s.transport;
    put_u64(out, t.requests);
    put_u64(out, t.read_ahead_hits);
    put_u64(out, t.peak_read_ahead);
    put_u64(out, t.read_ahead_capacity);
}

fn get_stats(r: &mut Reader<'_>) -> Result<ServingStats, WireError> {
    let events = r.u64()?;
    let recommends = r.u64()?;
    let timings = get_timings(r)?;
    let n_shards = r.count(5 * 8 + 2 * TIMING_LEN + 1)?;
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        shards.push(ShardReport {
            shard: r.u64()? as usize,
            events: r.u64()?,
            recommends: r.u64()?,
            timings: get_timings(r)?,
            retired: r.bool()?,
            queue_capacity: r.u64()? as usize,
            tier_dirty: r.u64()?,
        });
    }
    let migration = MigrationStats {
        in_progress: r.bool()?,
        migrated_users: r.u64()?,
        pending_users: r.u64()?,
        batches: r.u64()?,
    };
    let neighborhood = NeighborhoodStats {
        two_tier: r.bool()?,
        epoch: r.u64()?,
        users_covered: r.u64()?,
        events_since_refresh: r.u64()?,
        last_refresh_ms: r.f64()?,
        refresh_in_progress: r.bool()?,
        tier_mode: get_tier_mode(r)?,
        tier_bytes: r.u64()?,
        tier_search_ns: r.f64()?,
        last_refresh_users: r.u64()?,
        delta_ready: r.bool()?,
    };
    let durability = DurabilityStats {
        enabled: r.bool()?,
        wal_records: r.u64()?,
        wal_bytes: r.u64()?,
        wal_unsynced_bytes: r.u64()?,
        wal_syncs: r.u64()?,
        checkpoints: r.u64()?,
        checkpoint_watermark: r.u64()?,
        last_checkpoint_bytes: r.u64()?,
        events_since_checkpoint: r.u64()?,
    };
    let pressure = PressureStats {
        sends: r.u64()?,
        stalls: r.u64()?,
        stall_ms: r.f64()?,
        queue_capacity: r.u64()?,
        peak_queue: r.u64()?,
    };
    let transport = TransportStats {
        requests: r.u64()?,
        read_ahead_hits: r.u64()?,
        peak_read_ahead: r.u64()?,
        read_ahead_capacity: r.u64()?,
    };
    Ok(ServingStats {
        events,
        recommends,
        timings,
        shards,
        migration,
        neighborhood,
        durability,
        pressure,
        transport,
    })
}

fn put_error(out: &mut Vec<u8>, e: &ServingError) {
    match e {
        ServingError::UnknownUser { user, n_users } => {
            put_u8(out, 0);
            put_u32(out, *user);
            put_u64(out, *n_users as u64);
        }
        ServingError::UnknownItem { item, n_items } => {
            put_u8(out, 1);
            put_u32(out, *item);
            put_u64(out, *n_items as u64);
        }
        ServingError::AnnUnavailable => put_u8(out, 2),
        ServingError::NotOwned { user } => {
            put_u8(out, 3);
            put_u32(out, *user);
        }
        ServingError::InvalidConfig(msg) => {
            put_u8(out, 4);
            put_blob(out, msg.as_bytes());
        }
        ServingError::Durability(msg) => {
            put_u8(out, 5);
            put_blob(out, msg.as_bytes());
        }
        ServingError::Wire(msg) => {
            put_u8(out, 6);
            put_blob(out, msg.as_bytes());
        }
        // Structurally unrepresentable variants degrade to display
        // text; they arrive as `ServingError::Wire`.
        other @ (ServingError::Snapshot(_) | ServingError::EpochInFlight { .. }) => {
            put_u8(out, 6);
            put_blob(out, other.to_string().as_bytes());
        }
    }
}

fn get_error(r: &mut Reader<'_>) -> Result<ServingError, WireError> {
    Ok(match r.u8()? {
        0 => ServingError::UnknownUser {
            user: r.u32()?,
            n_users: r.u64()? as usize,
        },
        1 => ServingError::UnknownItem {
            item: r.u32()?,
            n_items: r.u64()? as usize,
        },
        2 => ServingError::AnnUnavailable,
        3 => ServingError::NotOwned { user: r.u32()? },
        4 => ServingError::InvalidConfig(get_string(r)?),
        5 => ServingError::Durability(get_string(r)?),
        6 => ServingError::Wire(get_string(r)?),
        tag => return Err(WireError::BadTag { what: "error", tag }),
    })
}

// ------------------------------------------------------------ requests

/// Everything a router (or supervisor) can ask a shard server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: protocol-version check, returns the server's window.
    Hello { protocol: u32 },
    /// Liveness probe (the supervisor's health check).
    Ping,
    /// Ingest `(user, item)` events in order; all must belong to this
    /// server's window (atomic: validated before anything applies).
    IngestBatch(Vec<(u32, u32)>),
    /// Serve one recommendation.
    Recommend { user: u32, query: RecQuery },
    /// Serve the same query for many users (fan-out batching).
    RecommendMany { users: Vec<u32>, query: RecQuery },
    /// Barrier: every prior ingest reflected before the reply.
    Flush,
    /// This server's [`ServingStats`].
    Stats,
    /// This server's whole-population snapshot artifact (owned users
    /// populated, the rest empty — see
    /// [`sccf_serving::fleet::merge_fleet_snapshots`]).
    Snapshot,
    /// Write an incremental checkpoint; replies with the watermark.
    Checkpoint,
    /// Force-fsync every shard WAL.
    WalSync,
    /// Migration blobs ([`sccf_core::encode_user_state`]) for the given
    /// owned users, in input order.
    ExportUsers(Vec<u32>),
    /// Install an encoded [`sccf_core::GlobalNeighborSnapshot`] as the
    /// frozen global tier.
    InstallTier(Vec<u8>),
    /// Drop the frozen global tier (back to shard-local serving).
    ClearTier,
    /// Flush + sync, acknowledge, then exit the process.
    Shutdown,
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this request's payload to `out` (how the client builds a
    /// frame in one buffer).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { protocol } => {
                put_u8(out, 0);
                put_u32(out, *protocol);
            }
            Request::Ping => put_u8(out, 1),
            Request::IngestBatch(events) => {
                put_u8(out, 2);
                put_u64(out, events.len() as u64);
                for &(u, i) in events {
                    put_u32(out, u);
                    put_u32(out, i);
                }
            }
            Request::Recommend { user, query } => {
                put_u8(out, 3);
                put_u32(out, *user);
                put_query(out, query);
            }
            Request::RecommendMany { users, query } => {
                put_u8(out, 4);
                put_u32_list(out, users);
                put_query(out, query);
            }
            Request::Flush => put_u8(out, 5),
            Request::Stats => put_u8(out, 6),
            Request::Snapshot => put_u8(out, 7),
            Request::Checkpoint => put_u8(out, 8),
            Request::WalSync => put_u8(out, 9),
            Request::ExportUsers(users) => {
                put_u8(out, 10);
                put_u32_list(out, users);
            }
            Request::InstallTier(bytes) => {
                put_u8(out, 11);
                put_blob(out, bytes);
            }
            Request::ClearTier => put_u8(out, 12),
            Request::Shutdown => put_u8(out, 13),
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0 => Request::Hello { protocol: r.u32()? },
            1 => Request::Ping,
            2 => {
                let n = r.count(8)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push((r.u32()?, r.u32()?));
                }
                Request::IngestBatch(events)
            }
            3 => Request::Recommend {
                user: r.u32()?,
                query: get_query(&mut r)?,
            },
            4 => Request::RecommendMany {
                users: get_u32_list(&mut r)?,
                query: get_query(&mut r)?,
            },
            5 => Request::Flush,
            6 => Request::Stats,
            7 => Request::Snapshot,
            8 => Request::Checkpoint,
            9 => Request::WalSync,
            10 => Request::ExportUsers(get_u32_list(&mut r)?),
            11 => Request::InstallTier(r.blob()?.to_vec()),
            12 => Request::ClearTier,
            13 => Request::Shutdown,
            tag => {
                return Err(WireError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        finish(r)?;
        Ok(req)
    }
}

// ----------------------------------------------------------- responses

/// Everything a shard server can answer.
#[derive(Debug, Clone)]
pub enum Response {
    /// Handshake reply: protocol version plus the server's identity —
    /// population size and the global-ring window it hosts.
    HelloOk {
        protocol: u32,
        n_users: u64,
        n_items: u64,
        base: u64,
        count: u64,
        total: u64,
    },
    Pong,
    /// Events accepted by an [`Request::IngestBatch`].
    Ingested(u64),
    Slate(RecResponse),
    Slates(Vec<RecResponse>),
    /// Success with nothing to report (flush, sync, installs, shutdown
    /// acknowledgement).
    Done,
    Stats(Box<ServingStats>),
    /// A snapshot artifact or other opaque byte payload.
    Bytes(Vec<u8>),
    /// The watermark a [`Request::Checkpoint`] is consistent with.
    Watermark(u64),
    /// Per-user blobs for [`Request::ExportUsers`], in request order.
    Blobs(Vec<Vec<u8>>),
    /// The remote operation failed.
    Err(ServingError),
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::HelloOk {
                protocol,
                n_users,
                n_items,
                base,
                count,
                total,
            } => {
                put_u8(&mut out, 0);
                put_u32(&mut out, *protocol);
                put_u64(&mut out, *n_users);
                put_u64(&mut out, *n_items);
                put_u64(&mut out, *base);
                put_u64(&mut out, *count);
                put_u64(&mut out, *total);
            }
            Response::Pong => put_u8(&mut out, 1),
            Response::Ingested(n) => {
                put_u8(&mut out, 2);
                put_u64(&mut out, *n);
            }
            Response::Slate(s) => {
                put_u8(&mut out, 3);
                put_slate(&mut out, s);
            }
            Response::Slates(slates) => {
                put_u8(&mut out, 4);
                put_u64(&mut out, slates.len() as u64);
                for s in slates {
                    put_slate(&mut out, s);
                }
            }
            Response::Done => put_u8(&mut out, 5),
            Response::Stats(s) => {
                put_u8(&mut out, 6);
                put_stats(&mut out, s);
            }
            Response::Bytes(b) => {
                put_u8(&mut out, 7);
                put_blob(&mut out, b);
            }
            Response::Watermark(w) => {
                put_u8(&mut out, 8);
                put_u64(&mut out, *w);
            }
            Response::Blobs(blobs) => {
                put_u8(&mut out, 9);
                put_u64(&mut out, blobs.len() as u64);
                for b in blobs {
                    put_blob(&mut out, b);
                }
            }
            Response::Err(e) => {
                put_u8(&mut out, 10);
                put_error(&mut out, e);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0 => Response::HelloOk {
                protocol: r.u32()?,
                n_users: r.u64()?,
                n_items: r.u64()?,
                base: r.u64()?,
                count: r.u64()?,
                total: r.u64()?,
            },
            1 => Response::Pong,
            2 => Response::Ingested(r.u64()?),
            3 => Response::Slate(get_slate(&mut r)?),
            4 => {
                // Each slate is ≥ one count + two timing f64s.
                let n = r.count(8 + 16)?;
                let mut slates = Vec::with_capacity(n);
                for _ in 0..n {
                    slates.push(get_slate(&mut r)?);
                }
                Response::Slates(slates)
            }
            5 => Response::Done,
            6 => Response::Stats(Box::new(get_stats(&mut r)?)),
            7 => Response::Bytes(r.blob()?.to_vec()),
            8 => Response::Watermark(r.u64()?),
            9 => {
                let n = r.count(8)?;
                let mut blobs = Vec::with_capacity(n);
                for _ in 0..n {
                    blobs.push(r.blob()?.to_vec());
                }
                Response::Blobs(blobs)
            }
            10 => Response::Err(get_error(&mut r)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        finish(r)?;
        Ok(resp)
    }

    /// Promote a remote error to `Err`, pass everything else through.
    pub fn into_result(self) -> Result<Response, ServingError> {
        match self {
            Response::Err(e) => Err(e),
            other => Ok(other),
        }
    }

    /// The standard "server answered the wrong variant" error.
    pub(crate) fn unexpected(&self, wanted: &str) -> ServingError {
        let got = match self {
            Response::HelloOk { .. } => "HelloOk",
            Response::Pong => "Pong",
            Response::Ingested(_) => "Ingested",
            Response::Slate(_) => "Slate",
            Response::Slates(_) => "Slates",
            Response::Done => "Done",
            Response::Stats(_) => "Stats",
            Response::Bytes(_) => "Bytes",
            Response::Watermark(_) => "Watermark",
            Response::Blobs(_) => "Blobs",
            Response::Err(_) => "Err",
        };
        ServingError::Wire(format!("expected a {wanted} response, got {got}"))
    }
}

/// The typed take on a [`Response`]: `take!(resp, Ingested(n) => n)` is
/// `Ok(n)` when `resp` is that variant and the standard wrong-variant
/// error otherwise (`take!(resp, Done => ())` for the payload-free
/// ones).
macro_rules! take {
    ($resp:expr, $variant:ident $(($v:ident))? => $out:expr) => {
        match $resp {
            $crate::proto::Response::$variant $(($v))? => Ok($out),
            other => Err(other.unexpected(stringify!($variant))),
        }
    };
}
pub(crate) use take;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        let back = Request::decode(&bytes).expect("own encoding decodes");
        assert_eq!(back, req);
        // Decoding must consume everything: one extra byte is an error.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            Request::decode(&padded),
            Err(WireError::TrailingBytes { left: 1 })
        );
        // Every truncation fails cleanly.
        for cut in 0..bytes.len() {
            assert!(Request::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Hello {
                protocol: PROTOCOL_VERSION,
            },
            Request::Ping,
            Request::IngestBatch(vec![(0, 1), (7, 42), (u32::MAX, 0)]),
            Request::Recommend {
                user: 3,
                query: RecQuery::top(10),
            },
            Request::Recommend {
                user: 3,
                query: RecQuery {
                    k: 5,
                    source: CandidateSource::Exact,
                    exclude: Exclusion::HistoryAnd(vec![1, 2, 3]),
                },
            },
            Request::RecommendMany {
                users: vec![1, 2, 3],
                query: RecQuery::top(4).with_source(CandidateSource::Ann),
            },
            Request::Flush,
            Request::Stats,
            Request::Snapshot,
            Request::Checkpoint,
            Request::WalSync,
            Request::ExportUsers(vec![9, 8, 7]),
            Request::InstallTier(vec![1, 2, 3, 4, 5]),
            Request::ClearTier,
            Request::Shutdown,
        ] {
            roundtrip_request(req);
        }
    }

    /// Responses carry floats, so equality is checked on re-encoded
    /// bytes — which is also the stronger property (bit-identity).
    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        let back = Response::decode(&bytes).expect("own encoding decodes");
        assert_eq!(back.encode(), bytes, "re-encoding must be bit-identical");
        for cut in 0..bytes.len() {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let mut timings = EngineTimings::default();
        timings.record(EventTiming {
            infer_ms: 0.25,
            identify_ms: 0.5,
        });
        timings.record(EventTiming {
            infer_ms: 1.0 / 3.0,
            identify_ms: 2.0 / 7.0,
        });
        let stats = ServingStats {
            events: 12,
            recommends: 3,
            timings: timings.clone(),
            shards: vec![ShardReport {
                shard: 2,
                events: 12,
                recommends: 3,
                timings,
                retired: false,
                queue_capacity: 1024,
                tier_dirty: 7,
            }],
            migration: MigrationStats {
                in_progress: true,
                migrated_users: 4,
                pending_users: 5,
                batches: 6,
            },
            neighborhood: NeighborhoodStats {
                two_tier: true,
                epoch: 3,
                users_covered: 100,
                events_since_refresh: 17,
                last_refresh_ms: 1.5,
                refresh_in_progress: false,
                tier_mode: FrozenTierMode::Hnsw { ef: 48 },
                tier_bytes: 4096,
                tier_search_ns: 12345.6,
                last_refresh_users: 33,
                delta_ready: true,
            },
            durability: DurabilityStats {
                enabled: true,
                wal_records: 100,
                wal_bytes: 2500,
                wal_unsynced_bytes: 25,
                wal_syncs: 12,
                checkpoints: 2,
                checkpoint_watermark: 96,
                last_checkpoint_bytes: 999,
                events_since_checkpoint: 4,
            },
            pressure: PressureStats {
                sends: 900,
                stalls: 13,
                stall_ms: 2.75,
                queue_capacity: 1024,
                peak_queue: 768,
            },
            transport: TransportStats {
                requests: 4321,
                read_ahead_hits: 1234,
                peak_read_ahead: 4,
                read_ahead_capacity: 4,
            },
        };
        for resp in [
            Response::HelloOk {
                protocol: PROTOCOL_VERSION,
                n_users: 120,
                n_items: 60,
                base: 2,
                count: 2,
                total: 4,
            },
            Response::Pong,
            Response::Ingested(42),
            Response::Slate(RecResponse {
                items: vec![
                    Scored {
                        id: 7,
                        score: 0.125,
                    },
                    Scored {
                        id: 8,
                        score: -1.0 / 3.0,
                    },
                ],
                timing: EventTiming {
                    infer_ms: 0.1,
                    identify_ms: 0.2,
                },
            }),
            Response::Slates(vec![RecResponse {
                items: vec![],
                timing: EventTiming {
                    infer_ms: 0.0,
                    identify_ms: 0.0,
                },
            }]),
            Response::Done,
            Response::Stats(Box::new(stats)),
            Response::Bytes(vec![0xde, 0xad]),
            Response::Watermark(1234),
            Response::Blobs(vec![vec![1], vec![], vec![2, 3]]),
            Response::Err(ServingError::NotOwned { user: 5 }),
            Response::Err(ServingError::InvalidConfig("bad".into())),
        ] {
            roundtrip_response(resp);
        }
        // Tier-mode tag 2 named the retired IVF-PQ mode: a typed error
        // now, like any tag the protocol never had.
        for tag in [2u8, 3, 0xff] {
            let bytes = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
            assert_eq!(
                get_tier_mode(&mut Reader::new(&bytes)),
                Err(WireError::BadTag {
                    what: "tier mode",
                    tag
                })
            );
        }
    }

    /// A recorder crosses the wire exactly; and, unknown being an error
    /// (wire v3), every malformed bucket section is a typed `WireError`
    /// — never a panic, never an allocation (the buckets are a fixed
    /// array and the pair count is checked against the payload).
    #[test]
    fn timing_stats_cross_the_wire_exactly() {
        let mut t = TimingStats::new();
        for i in 0..37 {
            t.record_ms((i as f64).sin().abs() + 0.001);
        }
        let mut out = Vec::new();
        put_timing(&mut out, &t);
        let mut again = Vec::new();
        put_timing(&mut again, &get_timing(&mut Reader::new(&out)).unwrap());
        assert_eq!(again, out, "every f64 bit and every bucket count");

        // A Welford header for n = 2, then `pairs` and the given pairs.
        let decode = |pairs: u64, rows: &[(u32, u64)]| {
            let mut out = Vec::new();
            put_u64(&mut out, 2);
            for x in [1.0, 0.5, 0.5, 1.5] {
                put_f64(&mut out, x);
            }
            put_u64(&mut out, pairs);
            for &(index, count) in rows {
                put_u32(&mut out, index);
                put_u64(&mut out, count);
            }
            get_timing(&mut Reader::new(&out)).err()
        };
        use WireError::{Invalid, Truncated};
        let end = TIMING_BUCKETS as u32;
        assert_eq!(decode(2, &[(0, 1), (end - 1, 1)]), None);
        let pair = Invalid("bucket pair out of range, not ascending or empty");
        let sum = Invalid("bucket counts do not sum to n");
        for (pairs, rows, want) in [
            (2, &[(3, 1), (end, 1)][..], pair.clone()),
            (2, &[(9, 1), (3, 1)], pair.clone()),
            (2, &[(3, 1), (3, 1)], pair.clone()),
            (3, &[(3, 1), (4, 0), (5, 1)], pair),
            (1, &[(3, 1)], sum.clone()),
            (2, &[(3, u64::MAX), (4, 3)], sum),
            (u64::MAX, &[(3, 1), (4, 1)], Truncated),
            (3, &[(3, 1), (4, 1)], Truncated),
        ] {
            assert_eq!(decode(pairs, rows), Some(want));
        }
        // Through a whole stats response: an empty `ServingStats` whose
        // first pair count claims 2^64 - 1.
        let mut stats = Response::Stats(Box::default()).encode();
        stats[1 + 2 * 8 + 5 * 8..][..8].fill(0xff);
        assert_eq!(Response::decode(&stats).err(), Some(Truncated));
    }

    #[test]
    fn unrepresentable_errors_degrade_to_wire_text() {
        let e = ServingError::EpochInFlight {
            requested: "snapshot",
            in_flight: "reshard",
        };
        let mut out = Vec::new();
        put_error(&mut out, &e);
        let back = get_error(&mut Reader::new(&out)).unwrap();
        match back {
            ServingError::Wire(msg) => assert!(msg.contains("reshard")),
            other => panic!("expected Wire, got {other:?}"),
        }
    }
}
