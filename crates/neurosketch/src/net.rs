//! Async network front end: the jump from *library* to *service*.
//!
//! Every serving layer below this one — [`crate::serve::SketchServer`],
//! the scatter/gather [`crate::shard::ShardedServer`], the replicated
//! [`crate::cluster::Cluster`], the hot-swappable
//! [`crate::deploy::LiveDeployment`] — is driven in-process. This
//! module puts a socket in front: [`NetServer`] owns a
//! [`LiveDeployment`], speaks the small length-prefixed **NSKW** binary
//! frame protocol over TCP, and turns concurrent client traffic into
//! the batched GEMM work the deployment is fastest at.
//!
//! Design points, in the order they matter:
//!
//! * **Hand-rolled readiness loop.** The build container is offline
//!   (no tokio, no mio), so the server is a single-threaded
//!   non-blocking loop over `std::net` sockets: accept until
//!   `WouldBlock`, give every connection a read turn, parse complete
//!   frames, serve, flush. Parallelism lives where it pays — inside
//!   the deployment's batched scatter, on the [`par`] pool — not in
//!   per-connection threads.
//! * **Adaptive micro-batching.** Decoded queries queue per
//!   connection; each serving step coalesces *everything pending*
//!   (capped at [`NetOptions::max_batch`]) into one
//!   [`LiveDeployment::answer_batch_tagged`] call. Under light load a
//!   query is answered alone (minimum latency); under heavy load the
//!   batch grows to whatever arrived while the previous batch was
//!   being served (maximum throughput) — the batch size *adapts to the
//!   arrival rate* with no timer and no tuning. The micro-batch goes to
//!   the deployment as drained: a wire deployment that wants caching or
//!   in-batch dedup is a [`crate::cache::CachedDeployment`], like every
//!   other, and [`NetBatch::stats`] carries its tally.
//! * **Bounded queues, typed backpressure, fairness.** Each
//!   connection's pending queue is bounded
//!   ([`NetOptions::queue_cap`]); an over-budget query is answered
//!   with a typed [`Frame::Reject`] frame — never a hang, never a
//!   silent drop. Micro-batches drain connections **round-robin, one
//!   query per turn**, so a flooding client cannot starve others: in a
//!   batch of `B` over `c` active connections every client gets
//!   ⌈B/c⌉-ish slots regardless of how deep the flooder's queue is.
//! * **Bounded buffers.** A connection is read in 32 KiB steps, parsed
//!   after each, for at most 256 KiB per pass — and not at all while
//!   the responses it has not taken stand above a high-water mark, so
//!   a peer that floods without reading is stopped by TCP flow control
//!   instead of growing a buffer. What one connection can make the
//!   server hold is [`NetOptions::conn_buffer_bound`]; a connection
//!   whose peer is gone is reaped with its unsent tail discarded.
//! * **Generation stamping.** Every answer frame carries the NSKM
//!   generation that served it, taken from the *same*
//!   [`LiveDeployment`] snapshot as the answers — a batch (and hence
//!   every response in it) is answered by exactly one generation even
//!   while [`LiveDeployment::swap`] lands mid-traffic.
//! * **Corruption is typed and contained.** Frame decoding mirrors the
//!   NSK2 container's posture ([`crate::persist`]): magic, version and
//!   declared length are vetted before anything is buffered, an
//!   FNV-1a-64 trailer closes every frame, and every way a frame can
//!   be wrong is a [`NetError`] variant. A protocol violation earns
//!   the offending connection one final [`Frame::Error`] frame and a
//!   close — other connections never notice.
//!
//! # The hot path
//!
//! Between socket and deployment a served query allocates nothing
//! (`tests/net_alloc.rs` counts), because there is one of each moving
//! part and each works in place:
//!
//! * **One encoder.** [`encode_frame_into`] writes header, payload and
//!   checksum straight onto the end of the buffer that is about to be
//!   written to the socket — a connection's send buffer, a client's
//!   window ([`NetClient::send_queries`]: one `write` per window).
//!   [`encode_frame`] is an exact-capacity `Vec` around it.
//! * **One envelope validator.** Prologue, declared length and
//!   checksum are checked by one private function; [`decode_frame`] is
//!   that plus the payload decoder, and the server's query path is
//!   that plus the payload decoder's Query arm, called directly into a
//!   reused row — a served query never becomes a [`Frame`].
//! * **One receive buffer.** Server connections and [`NetClient`] read
//!   through the same `ReadBuf`: bytes land in spare room at its tail,
//!   frames are parsed where they landed, consuming one moves an
//!   offset. It compacts or grows only when the tail is short of a
//!   read step, so a client window arrives in one `read`.
//! * **Flat queues, reused batch state.** A waiting query is an id and
//!   `dims` coordinates in its connection's two flat ring buffers; a
//!   micro-batch drains them into one flat coordinate buffer the server
//!   keeps, hands that to the deployment as a [`QueryBatch`] — no row
//!   of its own — and encodes each [`Frame::Answer`] into its
//!   connection's send buffer.
//!
//! # Wire format
//!
//! All integers little-endian, matching NSK2/NSKM:
//!
//! ```text
//! offset size
//! 0      4    magic "NSKW"
//! 4      1    protocol version (1)
//! 5      1    frame kind (see below)
//! 6      4    payload length u32
//! 10     n    payload (kind-specific)
//! 10+n   8    FNV-1a-64 checksum of bytes [0, 10+n)
//! ```
//!
//! | kind | name         | payload                                      |
//! |------|--------------|----------------------------------------------|
//! | 1    | Query        | `id u64, dims u16, dims × f64`               |
//! | 2    | Answer       | `id u64, generation u64, value f64`          |
//! | 3    | Reject       | `id u64, code u8`                            |
//! | 4    | Error        | `code u8, len u16, utf-8 message`            |
//! | 5    | InfoRequest  | (empty)                                      |
//! | 6    | InfoResponse | `dims u16, generation u64, queue_cap u32, max_batch u32` |
//!
//! ```no_run
//! use neurosketch::deploy::LiveDeployment;
//! use neurosketch::net::{NetClient, NetOptions, NetServer};
//! use neurosketch::{NeuroSketch, NeuroSketchConfig};
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//!
//! let queries: Vec<Vec<f64>> = (0..120)
//!     .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
//!     .collect();
//! let labels: Vec<f64> = queries.iter().map(|q| 3.0 * q[0] + q[1]).collect();
//! let mut cfg = NeuroSketchConfig::small();
//! cfg.train.epochs = 10;
//! let (sketch, _) = NeuroSketch::build_from_labeled(&queries, &labels, &cfg).unwrap();
//! let live = Arc::new(LiveDeployment::new(sketch, 0));
//!
//! let mut server =
//!     NetServer::bind("127.0.0.1:0", live, 2, NetOptions::default()).unwrap();
//! let addr = server.local_addr();
//! let shutdown = Arc::new(AtomicBool::new(false));
//! let flag = shutdown.clone();
//! let handle = std::thread::spawn(move || {
//!     server.serve(&flag);
//!     server
//! });
//!
//! let mut client = NetClient::connect(addr).unwrap();
//! let answer = client.query(&queries[0]).unwrap();
//! assert_eq!(answer.generation, 0);
//! shutdown.store(true, Ordering::Relaxed);
//! handle.join().unwrap();
//! ```

use crate::deploy::{DeployStats, LiveDeployment, QueryBatch};
use query::exec::fnv1a_64;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The four magic bytes opening every frame.
pub const NET_MAGIC: [u8; 4] = *b"NSKW";
/// Newest protocol version this build speaks.
pub const NET_VERSION: u8 = 1;
/// Bytes before the payload: magic + version + kind + payload length.
pub const FRAME_HEADER: usize = 10;
/// Bytes after the payload: the FNV-1a-64 end-to-end checksum.
pub const FRAME_TRAILER: usize = 8;
/// Hard ceiling on the query dimensionality a frame may declare —
/// bounds what a `dims` field can make the decoder read, independent
/// of the (configurable) payload cap.
pub const MAX_QUERY_DIMS: usize = 512;

/// Why the server refused to enqueue a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The connection's pending queue is at [`NetOptions::queue_cap`];
    /// retry after draining some in-flight responses.
    QueueFull,
    /// The server is shutting down and no longer serves.
    ShuttingDown,
}

impl RejectCode {
    /// Wire encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            RejectCode::QueueFull => 1,
            RejectCode::ShuttingDown => 2,
        }
    }

    /// Decode a wire byte; `None` for unknown codes.
    pub fn from_u8(code: u8) -> Option<RejectCode> {
        match code {
            1 => Some(RejectCode::QueueFull),
            2 => Some(RejectCode::ShuttingDown),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectCode::QueueFull => write!(f, "queue full"),
            RejectCode::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

/// What a server is serving — the [`Frame::InfoResponse`] payload a
/// client (or a load generator pointed at an unknown address) reads
/// before sending queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Query dimensionality every [`Frame::Query`] must carry.
    pub dims: usize,
    /// NSKM generation the next batch will be served by.
    pub generation: u64,
    /// Per-connection pending-queue bound ([`NetOptions::queue_cap`]).
    pub queue_cap: u32,
    /// Micro-batch cap ([`NetOptions::max_batch`]).
    pub max_batch: u32,
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: answer this query.
    Query {
        /// Client-chosen request id, echoed on the response.
        id: u64,
        /// The query vector.
        query: Vec<f64>,
    },
    /// Server → client: the answer to request `id`.
    Answer {
        /// Request id this answers.
        id: u64,
        /// NSKM generation of the deployment snapshot that answered.
        generation: u64,
        /// The predicted aggregate value.
        value: f64,
    },
    /// Server → client: request `id` was refused (backpressure).
    Reject {
        /// Request id this refuses.
        id: u64,
        /// Why.
        code: RejectCode,
    },
    /// Server → client: the connection violated the protocol; this is
    /// the last frame before the server closes it.
    Error {
        /// [`NetError::code`] of the violation.
        code: u8,
        /// The rendered error.
        message: String,
    },
    /// Client → server: describe yourself.
    InfoRequest,
    /// Server → client: the [`ServerInfo`] answer.
    InfoResponse(ServerInfo),
}

/// Everything that can be wrong with a frame, a stream, or a request —
/// the typed-error surface the corruption suite fuzzes. Mirrors
/// [`crate::persist::PersistError`]'s posture: every corruption is a
/// variant, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The first four bytes were not [`NET_MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The version byte names a protocol this build does not speak.
    BadVersion {
        /// The version actually found.
        found: u8,
    },
    /// The kind byte names no known frame kind.
    BadKind {
        /// The kind actually found.
        found: u8,
    },
    /// The header declares a payload larger than the negotiated cap —
    /// refused before any of it is buffered.
    Oversized {
        /// Declared payload length.
        declared: u32,
        /// The cap in force.
        max: u32,
    },
    /// The frame's trailing checksum does not match its bytes.
    ChecksumMismatch {
        /// Checksum the trailer records.
        expected: u64,
        /// Checksum of the bytes actually received.
        found: u64,
    },
    /// The declared payload length is inconsistent with the structure
    /// the frame kind requires.
    PayloadMismatch {
        /// Frame kind byte.
        kind: u8,
        /// Payload length the header declared.
        declared: usize,
        /// Payload length the kind's structure requires.
        needed: usize,
    },
    /// A query frame declared an implausible or mismatched
    /// dimensionality.
    BadQueryDim {
        /// Dimensionality the frame carried.
        got: usize,
        /// Dimensionality the server serves (or [`MAX_QUERY_DIMS`] at
        /// decode time, before the server's check).
        expected: usize,
    },
    /// A query coordinate was NaN or infinite.
    NonFinite {
        /// Index of the offending coordinate.
        index: usize,
    },
    /// A reject frame carried an unknown [`RejectCode`].
    BadRejectCode {
        /// The code actually found.
        found: u8,
    },
    /// An error frame's message was not valid UTF-8.
    BadUtf8,
    /// A structurally valid frame arrived in a direction it never
    /// travels (e.g. a client sending [`Frame::Answer`]).
    UnexpectedKind {
        /// The kind byte.
        kind: u8,
    },
    /// The peer closed the stream mid-frame.
    Truncated {
        /// Bytes of the partial frame received.
        have: usize,
        /// Bytes the frame needed (header-derived; 0 when even the
        /// header was incomplete).
        need: usize,
    },
    /// The server is at [`NetOptions::max_clients`] connections.
    ServerFull {
        /// The connection cap in force.
        max: usize,
    },
    /// Client-side: the server rejected the request (backpressure).
    Rejected {
        /// The rejected request id.
        id: u64,
        /// The server's reason.
        code: RejectCode,
    },
    /// Client-side: the server reported a protocol violation and will
    /// close the connection.
    Remote {
        /// The violation's [`NetError::code`].
        code: u8,
        /// The server's rendered error.
        message: String,
    },
    /// A socket operation failed.
    Io(String),
}

impl NetError {
    /// The wire code identifying this variant in a [`Frame::Error`]
    /// payload. Stable: codes are part of the protocol.
    pub fn code(&self) -> u8 {
        match self {
            NetError::BadMagic { .. } => 1,
            NetError::BadVersion { .. } => 2,
            NetError::BadKind { .. } => 3,
            NetError::Oversized { .. } => 4,
            NetError::ChecksumMismatch { .. } => 5,
            NetError::PayloadMismatch { .. } => 6,
            NetError::BadQueryDim { .. } => 7,
            NetError::NonFinite { .. } => 8,
            NetError::BadRejectCode { .. } => 9,
            NetError::BadUtf8 => 10,
            NetError::UnexpectedKind { .. } => 11,
            NetError::Truncated { .. } => 12,
            NetError::ServerFull { .. } => 13,
            NetError::Rejected { .. } => 14,
            NetError::Remote { .. } => 15,
            NetError::Io(_) => 16,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (want {NET_MAGIC:?})")
            }
            NetError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (speak {NET_VERSION})")
            }
            NetError::BadKind { found } => write!(f, "unknown frame kind {found}"),
            NetError::Oversized { declared, max } => {
                write!(f, "declared payload {declared} B exceeds the {max} B cap")
            }
            NetError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: trailer says {expected:#018x}, bytes hash to {found:#018x}"
            ),
            NetError::PayloadMismatch {
                kind,
                declared,
                needed,
            } => write!(
                f,
                "kind-{kind} frame declares a {declared} B payload but its structure needs {needed} B"
            ),
            NetError::BadQueryDim { got, expected } => {
                write!(f, "query dimensionality {got}, server expects {expected}")
            }
            NetError::NonFinite { index } => {
                write!(f, "query coordinate {index} is not finite")
            }
            NetError::BadRejectCode { found } => write!(f, "unknown reject code {found}"),
            NetError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            NetError::UnexpectedKind { kind } => {
                write!(f, "kind-{kind} frame is not valid in this direction")
            }
            NetError::Truncated { have, need } => {
                write!(f, "stream closed mid-frame ({have} of {need} bytes)")
            }
            NetError::ServerFull { max } => {
                write!(f, "server at its {max}-connection cap")
            }
            NetError::Rejected { id, code } => write!(f, "request {id} rejected: {code}"),
            NetError::Remote { code, message } => {
                write!(f, "server reported violation {code}: {message}")
            }
            NetError::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e.to_string())
    }
}

const KIND_QUERY: u8 = 1;
const KIND_ANSWER: u8 = 2;
const KIND_REJECT: u8 = 3;
const KIND_ERROR: u8 = 4;
const KIND_INFO_REQUEST: u8 = 5;
const KIND_INFO_RESPONSE: u8 = 6;

/// Payload sizes by kind: the fixed ones whole, the variable ones
/// (Query, Error) up to where their counted tail starts.
const QUERY_PREFIX: usize = 10;
const ANSWER_PAYLOAD: usize = 24;
const REJECT_PAYLOAD: usize = 9;
const ERROR_PREFIX: usize = 3;
const INFO_PAYLOAD: usize = 18;

fn kind_of(frame: &Frame) -> u8 {
    match frame {
        Frame::Query { .. } => KIND_QUERY,
        Frame::Answer { .. } => KIND_ANSWER,
        Frame::Reject { .. } => KIND_REJECT,
        Frame::Error { .. } => KIND_ERROR,
        Frame::InfoRequest => KIND_INFO_REQUEST,
        Frame::InfoResponse(_) => KIND_INFO_RESPONSE,
    }
}

/// The one encoder: header, whatever `payload` appends, FNV-1a trailer,
/// written straight onto the end of `out`. The length field is patched
/// once the payload is in, so nothing is staged and nothing allocated
/// beyond `out`'s own growth.
fn put_frame(out: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&NET_MAGIC);
    out.push(NET_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let declared = (out.len() - start - FRAME_HEADER) as u32;
    out[start + 6..start + FRAME_HEADER].copy_from_slice(&declared.to_le_bytes());
    let sum = fnv1a_64(out[start..].iter().copied());
    out.extend_from_slice(&sum.to_le_bytes());
}

/// A [`Frame::Query`] from a borrowed row — what a client frames a
/// window with, no `Frame` (and so no owned `Vec`) in between.
fn put_query(out: &mut Vec<u8>, id: u64, query: &[f64]) {
    put_frame(out, KIND_QUERY, |p| {
        p.extend_from_slice(&id.to_le_bytes());
        p.extend_from_slice(&(query.len() as u16).to_le_bytes());
        for v in query {
            p.extend_from_slice(&v.to_le_bytes());
        }
    });
}

/// Bytes of an error message that fit the frame's `u16` length field.
fn error_message_bytes(message: &str) -> &[u8] {
    let msg = message.as_bytes();
    &msg[..msg.len().min(u16::MAX as usize)]
}

/// Append one encoded frame — header, payload, trailing checksum — to
/// `out`, leaving what `out` already holds untouched. The appended
/// bytes are exactly [`encode_frame`]'s.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Query { id, query } => put_query(out, *id, query),
        Frame::Answer {
            id,
            generation,
            value,
        } => put_frame(out, KIND_ANSWER, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&generation.to_le_bytes());
            p.extend_from_slice(&value.to_le_bytes());
        }),
        Frame::Reject { id, code } => put_frame(out, KIND_REJECT, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.push(code.to_u8());
        }),
        Frame::Error { code, message } => put_frame(out, KIND_ERROR, |p| {
            let msg = error_message_bytes(message);
            p.push(*code);
            p.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            p.extend_from_slice(msg);
        }),
        Frame::InfoRequest => put_frame(out, KIND_INFO_REQUEST, |_| {}),
        Frame::InfoResponse(info) => put_frame(out, KIND_INFO_RESPONSE, |p| {
            p.extend_from_slice(&(info.dims as u16).to_le_bytes());
            p.extend_from_slice(&info.generation.to_le_bytes());
            p.extend_from_slice(&info.queue_cap.to_le_bytes());
            p.extend_from_slice(&info.max_batch.to_le_bytes());
        }),
    }
}

/// Encode one frame: header, payload, trailing checksum — one
/// exact-capacity allocation around [`encode_frame_into`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = match frame {
        Frame::Query { query, .. } => QUERY_PREFIX + 8 * query.len(),
        Frame::Answer { .. } => ANSWER_PAYLOAD,
        Frame::Reject { .. } => REJECT_PAYLOAD,
        Frame::Error { message, .. } => ERROR_PREFIX + error_message_bytes(message).len(),
        Frame::InfoRequest => 0,
        Frame::InfoResponse(_) => INFO_PAYLOAD,
    };
    let mut out = Vec::with_capacity(FRAME_HEADER + payload + FRAME_TRAILER);
    encode_frame_into(frame, &mut out);
    out
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn mismatch(kind: u8, declared: usize, needed: usize) -> NetError {
    NetError::PayloadMismatch {
        kind,
        declared,
        needed,
    }
}

/// Decode a Query payload into `row` (cleared first, so a recycled row
/// costs no allocation) and return the request id. These are the only
/// Query checks there are: [`decode_frame`] reaches them through
/// [`decode_payload`], the server's query path calls them directly.
fn decode_query_into(p: &[u8], row: &mut Vec<f64>) -> Result<u64, NetError> {
    if p.len() < QUERY_PREFIX {
        return Err(mismatch(KIND_QUERY, p.len(), QUERY_PREFIX));
    }
    let id = le_u64(&p[0..8]);
    let dims = le_u16(&p[8..10]) as usize;
    if dims == 0 || dims > MAX_QUERY_DIMS {
        return Err(NetError::BadQueryDim {
            got: dims,
            expected: MAX_QUERY_DIMS,
        });
    }
    let needed = QUERY_PREFIX + 8 * dims;
    if p.len() != needed {
        return Err(mismatch(KIND_QUERY, p.len(), needed));
    }
    row.clear();
    row.reserve(dims);
    for (index, bytes) in p[QUERY_PREFIX..].chunks_exact(8).enumerate() {
        let v = le_f64(bytes);
        if !v.is_finite() {
            return Err(NetError::NonFinite { index });
        }
        row.push(v);
    }
    Ok(id)
}

fn decode_payload(kind: u8, p: &[u8]) -> Result<Frame, NetError> {
    match kind {
        KIND_QUERY => {
            let mut query = Vec::new();
            let id = decode_query_into(p, &mut query)?;
            Ok(Frame::Query { id, query })
        }
        KIND_ANSWER => {
            if p.len() != ANSWER_PAYLOAD {
                return Err(mismatch(kind, p.len(), ANSWER_PAYLOAD));
            }
            Ok(Frame::Answer {
                id: le_u64(&p[0..8]),
                generation: le_u64(&p[8..16]),
                value: le_f64(&p[16..24]),
            })
        }
        KIND_REJECT => {
            if p.len() != REJECT_PAYLOAD {
                return Err(mismatch(kind, p.len(), REJECT_PAYLOAD));
            }
            let code = RejectCode::from_u8(p[8]).ok_or(NetError::BadRejectCode { found: p[8] })?;
            Ok(Frame::Reject {
                id: le_u64(&p[0..8]),
                code,
            })
        }
        KIND_ERROR => {
            if p.len() < ERROR_PREFIX {
                return Err(mismatch(kind, p.len(), ERROR_PREFIX));
            }
            let code = p[0];
            let len = le_u16(&p[1..3]) as usize;
            if p.len() != ERROR_PREFIX + len {
                return Err(mismatch(kind, p.len(), ERROR_PREFIX + len));
            }
            let message = std::str::from_utf8(&p[3..]).map_err(|_| NetError::BadUtf8)?;
            Ok(Frame::Error {
                code,
                message: message.to_string(),
            })
        }
        KIND_INFO_REQUEST => {
            if !p.is_empty() {
                return Err(mismatch(kind, p.len(), 0));
            }
            Ok(Frame::InfoRequest)
        }
        KIND_INFO_RESPONSE => {
            if p.len() != INFO_PAYLOAD {
                return Err(mismatch(kind, p.len(), INFO_PAYLOAD));
            }
            Ok(Frame::InfoResponse(ServerInfo {
                dims: le_u16(&p[0..2]) as usize,
                generation: le_u64(&p[2..10]),
                queue_cap: le_u32(&p[10..14]),
                max_batch: le_u32(&p[14..18]),
            }))
        }
        other => Err(NetError::BadKind { found: other }),
    }
}

/// The one envelope validator: prologue, declared length, checksum of
/// the frame at the front of `buf`. `Ok(Some((kind, total)))` says a
/// whole, checksum-valid frame of `total` bytes sits there, payload at
/// `[FRAME_HEADER, total - FRAME_TRAILER)`; `Ok(None)` and `Err(_)` are
/// [`decode_frame`]'s.
///
/// `#[inline]`: out of line, handing the wide `Result` back through
/// memory costs [`decode_frame`] ≈ 5 ns on a 42-byte `Answer`.
#[inline]
fn check_envelope(buf: &[u8], max_payload: u32) -> Result<Option<(u8, usize)>, NetError> {
    if buf.len() < 4 {
        if buf.iter().zip(NET_MAGIC.iter()).any(|(a, b)| a != b) {
            // The prefix can never grow into a valid magic; fail now
            // rather than waiting for a 4th byte that may never come.
            let mut found = [0u8; 4];
            found[..buf.len()].copy_from_slice(buf);
            return Err(NetError::BadMagic { found });
        }
        return Ok(None);
    }
    if buf[0..4] != NET_MAGIC {
        return Err(NetError::BadMagic {
            found: [buf[0], buf[1], buf[2], buf[3]],
        });
    }
    if buf.len() < 5 {
        return Ok(None);
    }
    if buf[4] != NET_VERSION {
        return Err(NetError::BadVersion { found: buf[4] });
    }
    if buf.len() < 6 {
        return Ok(None);
    }
    let kind = buf[5];
    if !(KIND_QUERY..=KIND_INFO_RESPONSE).contains(&kind) {
        return Err(NetError::BadKind { found: kind });
    }
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let declared = le_u32(&buf[6..10]);
    if declared > max_payload {
        return Err(NetError::Oversized {
            declared,
            max: max_payload,
        });
    }
    let total = FRAME_HEADER + declared as usize + FRAME_TRAILER;
    if buf.len() < total {
        return Ok(None);
    }
    let body = FRAME_HEADER + declared as usize;
    let expected = le_u64(&buf[body..total]);
    let found = fnv1a_64(buf[..body].iter().copied());
    if expected != found {
        return Err(NetError::ChecksumMismatch { expected, found });
    }
    Ok(Some((kind, total)))
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete, checksum-valid frame;
///   the caller should drop the first `consumed` bytes.
/// * `Ok(None)` — the bytes so far are a plausible frame prefix; read
///   more.
/// * `Err(_)` — the stream is corrupt at the front of `buf`; the error
///   is typed and the connection should be torn down. Garbage
///   prologues fail as soon as the offending byte is present: bad
///   magic at 4 bytes, bad version at 5, bad kind at 6, an oversized
///   declared length at [`FRAME_HEADER`] — **before** any payload is
///   buffered or allocated.
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, NetError> {
    let Some((kind, total)) = check_envelope(buf, max_payload)? else {
        return Ok(None);
    };
    let frame = decode_payload(kind, &buf[FRAME_HEADER..total - FRAME_TRAILER])?;
    Ok(Some((frame, total)))
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetOptions {
    /// Micro-batch cap: a serving step coalesces at most this many
    /// pending queries into one deployment batch.
    pub max_batch: usize,
    /// Per-connection pending-queue bound; queries past it are
    /// answered with [`RejectCode::QueueFull`] frames.
    pub queue_cap: usize,
    /// Largest payload a frame header may declare, bytes.
    pub max_payload: u32,
    /// Connection cap; further accepts are turned away with a
    /// [`NetError::ServerFull`] error frame.
    pub max_clients: usize,
    /// How long [`NetServer::serve`] sleeps when a poll makes no
    /// progress (no new bytes, nothing pending).
    pub idle: Duration,
}

impl Default for NetOptions {
    /// 256-query micro-batches, 1024-deep per-connection queues, 64 KiB
    /// frames, 1024 connections, 100 µs idle backoff.
    fn default() -> NetOptions {
        NetOptions {
            max_batch: 256,
            queue_cap: 1024,
            max_payload: 64 * 1024,
            max_clients: 1024,
            idle: Duration::from_micros(100),
        }
    }
}

/// Bytes one socket `read` is offered, and the spare room a receive
/// buffer guarantees before it: one default client window (512 four-
/// dimensional queries, 30 KiB) arrives in a single `read`.
const READ_STEP: usize = 32 * 1024;
/// Bytes one connection may be read per [`NetServer::pump_io`] pass
/// before the pass moves on to the next connection — what keeps a
/// sender faster than the loop from holding it.
const READ_BUDGET: usize = 256 * 1024;
/// Floor of the unsent-output high-water mark.
const MIN_HIGH_WATER: usize = 64 * 1024;
/// Largest response one received byte can stage: an 18-byte
/// `InfoRequest` earns a 36-byte `InfoResponse`.
const REPLY_AMPLIFICATION: usize = 2;
/// Room for the one `Error` farewell a connection can be sent (its
/// message is a rendered [`NetError`], a line of text).
const FAREWELL_ROOM: usize = 512;

const ANSWER_FRAME: usize = FRAME_HEADER + ANSWER_PAYLOAD + FRAME_TRAILER;

impl NetOptions {
    /// Unsent output above which a connection is not read: a full
    /// queue's worth of answers, at least 64 KiB. A peer that stops
    /// reading its responses stops being read, and TCP flow control
    /// carries the pushback to its `write`.
    fn high_water(&self) -> usize {
        (self.queue_cap.max(1) * ANSWER_FRAME).max(MIN_HIGH_WATER)
    }

    /// Upper bound on the bytes of buffer memory one connection can
    /// make the server hold, whatever the peer does — a function of
    /// [`NetOptions::queue_cap`], [`NetOptions::max_payload`] and
    /// constants (docs/serving.md derives it):
    ///
    /// * receive: one largest frame plus one 32 KiB read step;
    /// * send: the high-water mark, plus what one read step can stage
    ///   on top of it (2 response bytes per received byte at worst),
    ///   plus the answers to a full pending queue, plus the farewell —
    ///   doubled, because the buffer grows by doubling.
    ///
    /// Decoded queries waiting for a batch are bounded separately, by
    /// `queue_cap` rows.
    pub fn conn_buffer_bound(&self) -> usize {
        let receive = FRAME_HEADER + self.max_payload as usize + FRAME_TRAILER + READ_STEP;
        let unsent = self.high_water()
            + REPLY_AMPLIFICATION * READ_STEP
            + self.queue_cap.max(1) * ANSWER_FRAME
            + FAREWELL_ROOM;
        receive + 2 * unsent
    }
}

/// Cumulative server-side tallies, drained via [`NetServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Query frames decoded.
    pub queries: u64,
    /// Answer frames sent.
    pub answered: u64,
    /// Reject frames sent (backpressure).
    pub rejected: u64,
    /// Connections torn down for protocol violations.
    pub protocol_errors: u64,
    /// Micro-batches served.
    pub batches: u64,
    /// Largest micro-batch coalesced so far.
    pub largest_batch: usize,
    /// Info requests answered.
    pub info_requests: u64,
    /// Every micro-batch's [`NetBatch::stats`], summed: where the served
    /// answers came from. Its cache and dedup counts stay zero unless
    /// the deployment is a [`crate::cache::CachedDeployment`] — the wire
    /// server adds no dedup or cache of its own.
    pub deploy: DeployStats,
    /// Read turns skipped because the connection's unsent output stood
    /// above the high-water mark (the peer is not reading its
    /// responses; see [`NetOptions::conn_buffer_bound`]).
    pub stalled_reads: u64,
}

/// What one serving step coalesced — the observable the composition
/// harness checks each micro-batch's fairness, tally and stamp against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetBatch {
    /// Queries in the micro-batch.
    pub size: usize,
    /// The deployment's tally for the micro-batch, as returned by
    /// [`LiveDeployment::answer_batch_tagged`].
    pub stats: DeployStats,
    /// Generation the whole batch was answered by.
    pub generation: u64,
    /// `(connection id, queries taken)` per contributing connection,
    /// in drain order.
    pub per_client: Vec<(u64, usize)>,
}

/// The one receive buffer, server and client side: bytes are read
/// straight into spare room at the tail (no staging copy), frames are
/// parsed in place from [`ReadBuf::window`], and consuming a frame moves
/// an offset, not the bytes behind it. Live bytes are `buf[start..end]`;
/// `buf.len()` is the room allocated (and zeroed) so far.
#[derive(Default)]
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// The received, not yet consumed bytes.
    fn window(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Drop the first `n` bytes of the window.
    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.end);
        if self.start == self.end {
            self.clear();
        }
    }

    /// Forget everything received.
    fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// One `read` of up to [`READ_STEP`] bytes onto the end of the
    /// window; the count read (0 = end of stream). Makes room first,
    /// and only if the tail is short of a step: by sliding the window
    /// to the front when bytes before it are dead, by growing (exactly,
    /// so a frame larger than a step costs its size, not double) when
    /// the window itself is in the way.
    fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        if self.buf.len() - self.end < READ_STEP {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let need = self.end + READ_STEP;
            if self.buf.len() < need {
                self.buf.reserve_exact(need - self.buf.len());
                self.buf.resize(need, 0);
            }
        }
        let n = src.read(&mut self.buf[self.end..self.end + READ_STEP])?;
        self.end += n;
        Ok(n)
    }
}

struct Conn {
    id: u64,
    stream: TcpStream,
    rbuf: ReadBuf,
    /// Staged, unsent output; [`NetServer::flush_all`] drops what it
    /// sends, so the length *is* the backlog the high-water mark reads.
    wbuf: Vec<u8>,
    /// Request ids of the decoded queries waiting for a micro-batch,
    /// and their coordinates flat, `dims` per id, in the same order —
    /// a waiting query owns no allocation of its own.
    pending: VecDeque<u64>,
    coords: VecDeque<f64>,
    /// A violation was sent (or the peer vanished); close once the
    /// write buffer drains. Pending queries are discarded, not served.
    dead: bool,
}

/// The non-blocking protocol server. One instance owns the listening
/// socket, every connection's buffers and queue, and (an [`Arc`] to)
/// the served [`LiveDeployment`] — swap the deployment from any other
/// thread and in-flight traffic migrates generations atomically,
/// batch by batch.
///
/// Drive it either with [`NetServer::serve`] (the production loop) or
/// step by step with [`NetServer::pump_io`] /
/// [`NetServer::serve_pending_batch`] — the decomposition the seeded
/// composition schedules and the deterministic protocol tests step.
pub struct NetServer {
    listener: TcpListener,
    live: Arc<LiveDeployment>,
    dims: usize,
    opts: NetOptions,
    conns: Vec<Conn>,
    next_conn: u64,
    cursor: u64,
    stats: NetStats,
    /// Scratch that lives across calls so a served query allocates
    /// nothing: the row a query payload is decoded into, and one
    /// micro-batch's `(conn index, request id)` jobs in drain order and
    /// their coordinates, flat (job `k`'s query is the `k`-th `dims`
    /// of them).
    row: Vec<f64>,
    jobs: Vec<(usize, u64)>,
    batch: Vec<f64>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `live`,
    /// validating every query against `dims` input dimensions.
    pub fn bind(
        addr: impl ToSocketAddrs,
        live: Arc<LiveDeployment>,
        dims: usize,
        opts: NetOptions,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            live,
            dims,
            opts,
            conns: Vec::new(),
            next_conn: 0,
            cursor: 0,
            stats: NetStats::default(),
            row: Vec::new(),
            jobs: Vec::new(),
            batch: Vec::new(),
        })
    }

    /// The bound address (the ephemeral port, after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Cumulative tallies.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Live connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Queries decoded and waiting for a micro-batch, across all
    /// connections.
    pub fn pending(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Bytes of receive and send buffer allocated across all
    /// connections — at most [`NetOptions::conn_buffer_bound`] each.
    pub fn buffer_bytes(&self) -> usize {
        self.conns
            .iter()
            .map(|c| c.rbuf.buf.capacity() + c.wbuf.capacity())
            .sum()
    }

    /// One I/O pass: accept new connections, flush what the last
    /// serving step staged, read and parse every connection (enqueueing
    /// queries, rejecting over-budget ones, answering info requests,
    /// tearing down violators), and flush what that staged. Returns
    /// whether any byte moved or any state changed — the idle signal
    /// [`NetServer::serve`] sleeps on.
    pub fn pump_io(&mut self) -> bool {
        let mut progress = self.accept_new();
        // Before reading, so the high-water check sees what the peer
        // has not taken, not what was never offered to it.
        progress |= self.flush_all();
        progress |= self.read_all();
        progress |= self.flush_all();
        self.reap();
        progress
    }

    /// Coalesce one adaptive micro-batch and serve it: drain pending
    /// queries **round-robin across connections** (one per turn, so no
    /// client can monopolize a batch), up to [`NetOptions::max_batch`],
    /// answer them in one [`LiveDeployment::answer_batch_tagged`] call,
    /// and stage one [`Frame::Answer`] per query stamped with the
    /// batch's generation. Returns what was coalesced, or `None` if
    /// nothing was pending. Responses are staged, not flushed — the
    /// next [`NetServer::pump_io`] pushes them out.
    pub fn serve_pending_batch(&mut self) -> Option<NetBatch> {
        if self.conns.is_empty() {
            return None;
        }
        self.jobs.clear();
        self.batch.clear();
        let n = self.conns.len();
        let start = (self.cursor % n as u64) as usize;
        'fill: loop {
            let mut took_any = false;
            for step in 0..n {
                let ci = (start + step) % n;
                let conn = &mut self.conns[ci];
                if conn.dead {
                    continue;
                }
                if let Some(id) = conn.pending.pop_front() {
                    self.batch.extend(conn.coords.drain(..self.dims));
                    self.jobs.push((ci, id));
                    took_any = true;
                    if self.jobs.len() >= self.opts.max_batch.max(1) {
                        break 'fill;
                    }
                }
            }
            if !took_any {
                break;
            }
        }
        let size = self.jobs.len();
        if size == 0 {
            return None;
        }
        // Start the next batch's rotation one connection later, so the
        // head-of-line slot itself rotates across batches.
        self.cursor = self.cursor.wrapping_add(1);
        let batch = QueryBatch::new(&self.batch, self.dims);
        let (answers, stats, generation) = self.live.answer_batch_tagged(batch);
        self.stats.deploy += stats;
        let mut per_client: Vec<(u64, usize)> = Vec::new();
        for (&(ci, id), &value) in self.jobs.iter().zip(&answers) {
            let conn = &mut self.conns[ci];
            encode_frame_into(
                &Frame::Answer {
                    id,
                    generation,
                    value,
                },
                &mut conn.wbuf,
            );
            match per_client.iter_mut().find(|(cid, _)| *cid == conn.id) {
                Some((_, count)) => *count += 1,
                None => per_client.push((conn.id, 1)),
            }
        }
        self.stats.batches += 1;
        self.stats.answered += size as u64;
        self.stats.largest_batch = self.stats.largest_batch.max(size);
        Some(NetBatch {
            size,
            stats,
            generation,
            per_client,
        })
    }

    /// The production loop until `shutdown` is set: each step is a
    /// [`NetServer::pump_io`], then at most one micro-batch and a flush
    /// of its responses, and a step that moves nothing sleeps
    /// [`NetOptions::idle`]. On shutdown, still-queued requests are
    /// answered with [`RejectCode::ShuttingDown`] frames and a
    /// best-effort flush.
    pub fn serve(&mut self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::Relaxed) {
            let mut progress = self.pump_io();
            if self.serve_pending_batch().is_some() {
                progress = true;
                self.flush_all();
                self.reap();
            }
            if !progress {
                std::thread::sleep(self.opts.idle);
            }
        }
        // Drain: refuse queued work typed, then flush what we can.
        for conn in &mut self.conns {
            conn.coords.clear();
            while let Some(id) = conn.pending.pop_front() {
                self.stats.rejected += 1;
                encode_frame_into(
                    &Frame::Reject {
                        id,
                        code: RejectCode::ShuttingDown,
                    },
                    &mut conn.wbuf,
                );
            }
        }
        self.flush_all();
    }

    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    progress = true;
                    if self.conns.len() >= self.opts.max_clients {
                        // Turn the connection away typed; blocking is
                        // fine for a one-frame farewell.
                        let err = NetError::ServerFull {
                            max: self.opts.max_clients,
                        };
                        let _ = stream.write_all(&encode_frame(&error_frame(&err)));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.stats.accepted += 1;
                    self.conns.push(Conn {
                        id: self.next_conn,
                        stream,
                        rbuf: ReadBuf::default(),
                        wbuf: Vec::new(),
                        pending: VecDeque::new(),
                        coords: VecDeque::new(),
                        dead: false,
                    });
                    self.next_conn += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        progress
    }

    /// Give every live connection one read turn: read a step, parse
    /// what it completed, repeat — until the socket runs dry, the
    /// turn's [`READ_BUDGET`] is spent (the rest waits for the next
    /// pass, so no sender can hold this one), or the connection's
    /// unsent output stands above the high-water mark (a peer that does
    /// not read its responses is not read either). Parsing after every
    /// step is what bounds the receive buffer at a frame plus a step.
    fn read_all(&mut self) -> bool {
        let mut progress = false;
        let high_water = self.opts.high_water();
        for ci in 0..self.conns.len() {
            let mut budget = READ_BUDGET;
            let mut eof = false;
            while budget > 0 && !self.conns[ci].dead {
                let conn = &mut self.conns[ci];
                if conn.wbuf.len() > high_water {
                    self.stats.stalled_reads += 1;
                    break;
                }
                match conn.rbuf.fill(&mut conn.stream) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        budget = budget.saturating_sub(n);
                        self.parse_conn(ci);
                        if n < READ_STEP {
                            // A short read drained the socket; skip the
                            // `read` that would only say `WouldBlock`.
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            let conn = &mut self.conns[ci];
            if eof && !conn.dead {
                if !conn.rbuf.window().is_empty() {
                    // The peer hung up mid-frame: a truncated stream is
                    // a typed protocol error even though there is no
                    // one left to tell.
                    self.stats.protocol_errors += 1;
                }
                conn.dead = true;
                progress = true;
            }
        }
        progress
    }

    /// Parse every complete frame in `conns[ci].rbuf`, in place: the
    /// envelope validator, then — for a query — the payload straight
    /// into the connection's flat queue, never a [`Frame`]. A decode
    /// error or direction violation stages one [`Frame::Error`] and
    /// marks the connection dead — its remaining bytes and queued
    /// queries are discarded; no other connection is touched.
    fn parse_conn(&mut self, ci: usize) {
        let max_payload = self.opts.max_payload;
        let queue_cap = self.opts.queue_cap.max(1);
        let dims = self.dims;
        let conn = &mut self.conns[ci];
        let err = loop {
            let window = conn.rbuf.window();
            let (kind, total) = match check_envelope(window, max_payload) {
                Ok(None) => return,
                Ok(Some(frame)) => frame,
                Err(e) => break e,
            };
            let payload = &window[FRAME_HEADER..total - FRAME_TRAILER];
            let violation = if kind == KIND_QUERY {
                match decode_query_into(payload, &mut self.row) {
                    Err(e) => Some(e),
                    Ok(id) => {
                        self.stats.queries += 1;
                        if self.row.len() != dims {
                            Some(NetError::BadQueryDim {
                                got: self.row.len(),
                                expected: dims,
                            })
                        } else if conn.pending.len() >= queue_cap {
                            self.stats.rejected += 1;
                            encode_frame_into(
                                &Frame::Reject {
                                    id,
                                    code: RejectCode::QueueFull,
                                },
                                &mut conn.wbuf,
                            );
                            None
                        } else {
                            conn.pending.push_back(id);
                            conn.coords.extend(&self.row);
                            None
                        }
                    }
                }
            } else {
                match decode_payload(kind, payload) {
                    Err(e) => Some(e),
                    Ok(Frame::InfoRequest) => {
                        self.stats.info_requests += 1;
                        let info = ServerInfo {
                            dims,
                            generation: self.live.generation(),
                            queue_cap: queue_cap.min(u32::MAX as usize) as u32,
                            max_batch: self.opts.max_batch.min(u32::MAX as usize) as u32,
                        };
                        encode_frame_into(&Frame::InfoResponse(info), &mut conn.wbuf);
                        None
                    }
                    Ok(_) => Some(NetError::UnexpectedKind { kind }),
                }
            };
            if let Some(err) = violation {
                break err;
            }
            conn.rbuf.consume(total);
        };
        self.stats.protocol_errors += 1;
        encode_frame_into(&error_frame(&err), &mut conn.wbuf);
        conn.dead = true;
        conn.rbuf.clear();
        conn.pending.clear();
        conn.coords.clear();
    }

    /// Write every connection's staged output until the socket would
    /// block, and drop what was sent. A connection whose peer is gone
    /// (a failed or zero-length write) is marked dead and its unsent
    /// tail discarded — there is no one to send it to, and keeping it
    /// would keep the connection from ever being reaped.
    fn flush_all(&mut self) -> bool {
        let mut progress = false;
        for conn in &mut self.conns {
            let mut sent = 0usize;
            while sent < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[sent..]) {
                    Ok(n) if n > 0 => {
                        sent += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Ok(_) | Err(_) => {
                        conn.dead = true;
                        sent = conn.wbuf.len();
                    }
                }
            }
            conn.wbuf.drain(..sent);
        }
        progress
    }

    /// Drop connections that are dead with nothing left to flush.
    fn reap(&mut self) {
        let before = self.conns.len();
        self.conns.retain(|c| !(c.dead && c.wbuf.is_empty()));
        self.stats.closed += (before - self.conns.len()) as u64;
    }
}

/// The farewell frame for a violation.
fn error_frame(err: &NetError) -> Frame {
    Frame::Error {
        code: err.code(),
        message: err.to_string(),
    }
}

/// A response a pipelined client collected: answered or refused.
#[derive(Debug, Clone, PartialEq)]
pub enum NetResponse {
    /// The server answered.
    Answered(NetAnswer),
    /// The server refused (backpressure).
    Rejected {
        /// The refused request id.
        id: u64,
        /// Why.
        code: RejectCode,
    },
}

/// One answered query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetAnswer {
    /// The request id this answers.
    pub id: u64,
    /// Generation of the deployment snapshot that answered.
    pub generation: u64,
    /// The predicted aggregate value.
    pub value: f64,
}

/// A blocking protocol client over one TCP connection — what the
/// tests, the loopback example and the `netbench` load generator
/// drive. Request ids are assigned sequentially per connection.
///
/// Pipelining callers must keep reading: a server stops reading a
/// connection whose responses pile up unread
/// ([`NetOptions::conn_buffer_bound`]), so a client that sends without
/// bound and never calls [`NetClient::recv`] ends up blocked in its own
/// `write`. A window of at most the server's `queue_cap`
/// ([`NetClient::info`]) never gets there.
pub struct NetClient {
    stream: TcpStream,
    rbuf: ReadBuf,
    /// Frames of the window being sent; reused send after send.
    wbuf: Vec<u8>,
    next_id: u64,
    max_payload: u32,
}

impl NetClient {
    /// Connect (blocking I/O, `TCP_NODELAY` on).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            next_id: 0,
            max_payload: NetOptions::default().max_payload,
        })
    }

    /// Bound further blocking reads (None = wait forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Send a query frame without waiting for its response; returns
    /// the request id that will come back on the answer.
    pub fn send_query(&mut self, query: &[f64]) -> Result<u64, NetError> {
        self.send_queries(&[query])
    }

    /// Send one query frame per element without waiting for responses:
    /// the whole window is framed into one buffer and written with one
    /// `write_all` — one system call per window, not per query. Returns
    /// the request id of the first; the rest follow consecutively.
    pub fn send_queries<Q: AsRef<[f64]>>(&mut self, queries: &[Q]) -> Result<u64, NetError> {
        let first = self.next_id;
        self.wbuf.clear();
        for query in queries {
            put_query(&mut self.wbuf, self.next_id, query.as_ref());
            self.next_id += 1;
        }
        self.stream.write_all(&self.wbuf)?;
        Ok(first)
    }

    /// Send raw bytes on the wire — the corruption suite's way of
    /// putting damaged frames in front of the server.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// The next complete frame among the bytes already received, without
    /// touching the socket; `None` when there is not a whole one — how a
    /// pipelining caller collects every response a `read` brought in
    /// before it refills its window.
    pub fn recv_buffered(&mut self) -> Result<Option<Frame>, NetError> {
        let Some((frame, used)) = decode_frame(self.rbuf.window(), self.max_payload)? else {
            return Ok(None);
        };
        self.rbuf.consume(used);
        Ok(Some(frame))
    }

    /// Block until the next complete frame arrives.
    pub fn recv(&mut self) -> Result<Frame, NetError> {
        loop {
            if let Some(frame) = self.recv_buffered()? {
                return Ok(frame);
            }
            if self.rbuf.fill(&mut self.stream)? == 0 {
                return Err(NetError::Truncated {
                    have: self.rbuf.window().len(),
                    need: 0,
                });
            }
        }
    }

    /// One blocking round trip. [`Frame::Reject`] and [`Frame::Error`]
    /// responses come back as typed errors.
    pub fn query(&mut self, query: &[f64]) -> Result<NetAnswer, NetError> {
        self.send_query(query)?;
        match response_of(self.recv()?)? {
            NetResponse::Answered(answer) => Ok(answer),
            NetResponse::Rejected { id, code } => Err(NetError::Rejected { id, code }),
        }
    }

    /// Ask the server to describe itself.
    pub fn info(&mut self) -> Result<ServerInfo, NetError> {
        self.wbuf.clear();
        encode_frame_into(&Frame::InfoRequest, &mut self.wbuf);
        self.stream.write_all(&self.wbuf)?;
        match self.recv()? {
            Frame::InfoResponse(info) => Ok(info),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::UnexpectedKind {
                kind: kind_of(&other),
            }),
        }
    }

    /// Pipelined stream: keep up to `window` requests outstanding,
    /// collect every response. Each refill of the window is one
    /// [`NetClient::send_queries`] call, made after every response
    /// already received has been collected — so the writes track the
    /// server's batches, not the queries. Responses come back in
    /// request order on a single connection (the server drains each
    /// connection FIFO); they are returned in arrival order, one per
    /// query.
    pub fn query_stream(
        &mut self,
        queries: &[Vec<f64>],
        window: usize,
    ) -> Result<Vec<NetResponse>, NetError> {
        let window = window.max(1);
        let mut responses = Vec::with_capacity(queries.len());
        let mut sent = 0usize;
        while responses.len() < queries.len() {
            let refill = (window - (sent - responses.len())).min(queries.len() - sent);
            if refill > 0 {
                self.send_queries(&queries[sent..sent + refill])?;
                sent += refill;
            }
            responses.push(response_of(self.recv()?)?);
            while responses.len() < sent {
                match self.recv_buffered()? {
                    Some(frame) => responses.push(response_of(frame)?),
                    None => break,
                }
            }
        }
        Ok(responses)
    }
}

/// A server → client frame as the response it carries; an
/// [`Frame::Error`] farewell or a frame that never travels this way is
/// the typed error.
fn response_of(frame: Frame) -> Result<NetResponse, NetError> {
    match frame {
        Frame::Answer {
            id,
            generation,
            value,
        } => Ok(NetResponse::Answered(NetAnswer {
            id,
            generation,
            value,
        })),
        Frame::Reject { id, code } => Ok(NetResponse::Rejected { id, code }),
        Frame::Error { code, message } => Err(NetError::Remote { code, message }),
        other => Err(NetError::UnexpectedKind {
            kind: kind_of(&other),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes, u32::MAX).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Query {
            id: 7,
            query: vec![0.25, -1.5, 3.0],
        });
        roundtrip(Frame::Answer {
            id: 7,
            generation: 3,
            value: 42.5,
        });
        roundtrip(Frame::Reject {
            id: 9,
            code: RejectCode::QueueFull,
        });
        roundtrip(Frame::Error {
            code: 5,
            message: "checksum mismatch".into(),
        });
        roundtrip(Frame::InfoRequest);
        roundtrip(Frame::InfoResponse(ServerInfo {
            dims: 3,
            generation: 11,
            queue_cap: 64,
            max_batch: 256,
        }));
    }

    /// One frame of every kind, with the bytes the protocol has put on
    /// the wire for it since version 1 (taken from the encoder as it
    /// stood before it wrote in place). An optimisation that moves a
    /// byte fails here, not in a peer built last month.
    fn golden_frames() -> Vec<(Frame, &'static str)> {
        vec![
            (
                Frame::Query {
                    id: 0x0102_0304_0506_0708,
                    query: vec![0.25, -1.5, 3.0],
                },
                "4e534b5701012200000008070605040302010300000000000000d03f000000000000f8bf\
                 0000000000000840e734cef3c970a704",
            ),
            (
                Frame::Answer {
                    id: 7,
                    generation: 3,
                    value: 42.5,
                },
                "4e534b57010218000000070000000000000003000000000000000000000000404540\
                 a28b9a2705d14513",
            ),
            (
                Frame::Reject {
                    id: 9,
                    code: RejectCode::QueueFull,
                },
                "4e534b57010309000000090000000000000001b3fb7d0db398157e",
            ),
            (
                Frame::Error {
                    code: 5,
                    message: "bad sum".into(),
                },
                "4e534b5701040a0000000507006261642073756d7f28cc0543a5854c",
            ),
            (Frame::InfoRequest, "4e534b57010500000000423baa548e77eeb6"),
            (
                Frame::InfoResponse(ServerInfo {
                    dims: 3,
                    generation: 11,
                    queue_cap: 64,
                    max_batch: 256,
                }),
                "4e534b5701061200000003000b000000000000004000000000010000ca2980ca357565ec",
            ),
        ]
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn wire_bytes_of_every_kind_are_frozen() {
        for (frame, hex) in golden_frames() {
            let golden = unhex(hex);
            assert_eq!(encode_frame(&frame), golden, "{frame:?}");
            let (decoded, used) = decode_frame(&golden, u32::MAX).unwrap().unwrap();
            assert_eq!((decoded, used), (frame, golden.len()));
        }
    }

    #[test]
    fn encode_into_appends_exactly_the_encoded_frame() {
        let mut out = b"already here".to_vec();
        let mut want = out.clone();
        for (frame, _) in golden_frames() {
            encode_frame_into(&frame, &mut out);
            let bytes = encode_frame(&frame);
            assert_eq!(bytes.capacity(), bytes.len(), "exact-capacity encode");
            want.extend_from_slice(&bytes);
            assert_eq!(out, want);
        }
        // An error message past the u16 length field is cut, in both.
        let long = Frame::Error {
            code: 1,
            message: "x".repeat(70_000),
        };
        let bytes = encode_frame(&long);
        assert_eq!(bytes.len(), FRAME_HEADER + 3 + 65_535 + FRAME_TRAILER);
        let mut appended = vec![0xAA];
        encode_frame_into(&long, &mut appended);
        assert_eq!(appended[1..], bytes[..]);
    }

    /// A byte source that hands out at most `chunk` bytes per `read`.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Whatever the read granularity — one byte, around a frame, around
    /// the old 4 KiB step, whole — a [`ReadBuf`] yields the same frames,
    /// through compaction (small frames marching across the buffer) and
    /// growth (frames larger than a read step), and never holds more
    /// than a largest frame plus a step.
    #[test]
    fn read_buf_yields_the_same_frames_at_any_chunking() {
        let mut frames: Vec<Frame> = Vec::new();
        for i in 0..1500u64 {
            frames.push(Frame::Query {
                id: i,
                query: vec![i as f64, 0.5, -2.0, 8.0],
            });
        }
        frames.push(Frame::Error {
            code: 4,
            message: "m".repeat(65_535),
        });
        frames.push(Frame::Query {
            id: 9_000,
            query: (0..MAX_QUERY_DIMS).map(|d| d as f64).collect(),
        });
        frames.push(Frame::InfoRequest);
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame_into(frame, &mut stream);
        }
        let largest = FRAME_HEADER + 3 + 65_535 + FRAME_TRAILER;
        for chunk in [1, 59, 60, 61, 4095, 4096, 4097, usize::MAX] {
            let mut src = Chunked {
                bytes: &stream,
                chunk,
            };
            let mut rbuf = ReadBuf::default();
            let mut decoded = Vec::new();
            loop {
                while let Some((frame, used)) = decode_frame(rbuf.window(), u32::MAX).unwrap() {
                    decoded.push(frame);
                    rbuf.consume(used);
                }
                if rbuf.fill(&mut src).unwrap() == 0 {
                    break;
                }
                assert!(rbuf.buf.len() < largest + READ_STEP, "chunk {chunk}");
            }
            assert!(rbuf.window().is_empty(), "chunk {chunk}");
            assert!(decoded == frames, "chunk {chunk}: frames differ");
        }
    }

    #[test]
    fn partial_prefixes_ask_for_more_bytes() {
        let bytes = encode_frame(&Frame::Query {
            id: 1,
            query: vec![0.5, 0.5],
        });
        for cut in 0..bytes.len() {
            let r = decode_frame(&bytes[..cut], u32::MAX).unwrap();
            assert!(r.is_none(), "prefix of {cut} bytes decoded early");
        }
    }

    #[test]
    fn two_frames_decode_back_to_back() {
        let a = Frame::Query {
            id: 1,
            query: vec![0.5],
        };
        let b = Frame::InfoRequest;
        let mut bytes = encode_frame(&a);
        bytes.extend_from_slice(&encode_frame(&b));
        let (f1, used) = decode_frame(&bytes, u32::MAX).unwrap().unwrap();
        assert_eq!(f1, a);
        let (f2, used2) = decode_frame(&bytes[used..], u32::MAX).unwrap().unwrap();
        assert_eq!(f2, b);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn prologue_damage_is_typed_immediately() {
        // Bad magic fails with as few bytes as prove it.
        assert!(matches!(
            decode_frame(b"XS", u32::MAX),
            Err(NetError::BadMagic { .. })
        ));
        assert!(matches!(
            decode_frame(b"XSKW", u32::MAX),
            Err(NetError::BadMagic { .. })
        ));
        // Bad version at 5 bytes.
        assert!(matches!(
            decode_frame(b"NSKW\x09", u32::MAX),
            Err(NetError::BadVersion { found: 9 })
        ));
        // Bad kind at 6 bytes.
        assert!(matches!(
            decode_frame(b"NSKW\x01\x63", u32::MAX),
            Err(NetError::BadKind { found: 0x63 })
        ));
        // Oversized declared length at the full header, before any
        // payload exists.
        let mut hdr = Vec::new();
        hdr.extend_from_slice(b"NSKW\x01\x01");
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&hdr, 1024),
            Err(NetError::Oversized {
                declared: u32::MAX,
                max: 1024
            })
        ));
    }

    #[test]
    fn flipped_byte_is_checksum_mismatch() {
        let bytes = encode_frame(&Frame::Answer {
            id: 3,
            generation: 1,
            value: 7.5,
        });
        // Any flip past the 6-byte magic/version/kind prologue is
        // caught: either the checksum refuses the frame, or (for a
        // flip in the length field) the frame now claims bytes that
        // will never arrive — a stall, not a mis-decode.
        for pos in 6..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x40;
            match decode_frame(&damaged, u32::MAX) {
                Ok(Some(_)) => panic!("flip at {pos} decoded"),
                Ok(None) => assert!(
                    (6..FRAME_HEADER).contains(&pos),
                    "flip at {pos} asked for more bytes"
                ),
                Err(err) => assert!(
                    matches!(err, NetError::ChecksumMismatch { .. }),
                    "flip at {pos}: {err}"
                ),
            }
        }
    }

    #[test]
    fn payload_structure_violations_are_typed() {
        // A query declaring more dims than its payload holds: rebuild
        // the frame with a doctored payload and a valid checksum, so
        // only the structural check can refuse it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&4u16.to_le_bytes()); // claims 4 dims
        payload.extend_from_slice(&0.5f64.to_le_bytes()); // carries 1
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&NET_MAGIC);
        bytes.push(NET_VERSION);
        bytes.push(KIND_QUERY);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let sum = fnv1a_64(bytes.iter().copied());
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes, u32::MAX),
            Err(NetError::PayloadMismatch {
                kind: KIND_QUERY,
                declared: 18,
                needed: 42
            })
        ));
    }

    #[test]
    fn non_finite_query_coordinates_are_refused() {
        let bytes = encode_frame(&Frame::Query {
            id: 1,
            query: vec![0.5, f64::NAN],
        });
        assert_eq!(
            decode_frame(&bytes, u32::MAX).unwrap_err(),
            NetError::NonFinite { index: 1 }
        );
        let bytes = encode_frame(&Frame::Query {
            id: 1,
            query: vec![f64::INFINITY],
        });
        assert_eq!(
            decode_frame(&bytes, u32::MAX).unwrap_err(),
            NetError::NonFinite { index: 0 }
        );
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let variants = [
            NetError::BadMagic { found: [0; 4] },
            NetError::BadVersion { found: 0 },
            NetError::BadKind { found: 0 },
            NetError::Oversized {
                declared: 0,
                max: 0,
            },
            NetError::ChecksumMismatch {
                expected: 0,
                found: 0,
            },
            NetError::PayloadMismatch {
                kind: 0,
                declared: 0,
                needed: 0,
            },
            NetError::BadQueryDim {
                got: 0,
                expected: 0,
            },
            NetError::NonFinite { index: 0 },
            NetError::BadRejectCode { found: 0 },
            NetError::BadUtf8,
            NetError::UnexpectedKind { kind: 0 },
            NetError::Truncated { have: 0, need: 0 },
            NetError::ServerFull { max: 0 },
            NetError::Rejected {
                id: 0,
                code: RejectCode::QueueFull,
            },
            NetError::Remote {
                code: 0,
                message: String::new(),
            },
            NetError::Io(String::new()),
        ];
        let mut codes: Vec<u8> = variants.iter().map(NetError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len(), "codes must be distinct");
    }
}
