//! Request and response types for the resident server.
//!
//! Reads and writes share one backpressure vocabulary: every submission
//! resolves to `Accepted` / `Throttled{retry_after}` / `Shed` (the
//! aa-ingest contract, extended to the query path), and every admitted read
//! later resolves to exactly one [`ReadOutcome`] — served against a
//! published [`SnapshotFrame`](aa_core::SnapshotFrame), or shed with a
//! reason. Nothing ever hangs: resolution happens at a turn boundary, and
//! deadline expiry sheds a request the server can no longer serve in time.

use aa_core::SnapshotMeta;
use aa_graph::VertexId;
use aa_ingest::Admission;
use aa_query::TopKAnswer;

/// What a read wants from the published snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// The `k` highest-closeness vertices, descending.
    TopK(usize),
    /// The closeness estimate of one vertex.
    Vertex(VertexId),
}

/// The payload of a served read.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadValue {
    /// The anytime top-k answer for [`ReadKind::TopK`]: ranked members plus
    /// a [`Confidence`](aa_query::Confidence) stating whether they are the
    /// proven-exact top-k or a bound-backed anytime superset description.
    /// Boxed so the rare large payload doesn't inflate every [`ReadOutcome`].
    TopK(Box<TopKAnswer>),
    /// Estimates for one vertex.
    Vertex {
        /// Closeness estimate (0.0 for dead/unreached slots).
        closeness: f64,
    },
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The read queue was at hard capacity.
    Capacity,
    /// The deadline passed (or provably could not be met at admission).
    Deadline,
    /// The per-turn write token budget was exhausted (tightened further in
    /// degraded mode).
    WriteBudget,
}

impl ShedReason {
    /// Metric label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::Capacity => "capacity",
            ShedReason::Deadline => "deadline",
            ShedReason::WriteBudget => "write-budget",
        }
    }
}

/// Admission ticket returned by `submit_read`: the request id plus the
/// backpressure decision. A `Shed` ticket means the read was **not** queued
/// and will never produce a [`ReadOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTicket {
    /// Server-assigned request id, echoed in the outcome.
    pub id: u64,
    /// Backpressure decision at submission time.
    pub admission: Admission,
}

/// Final resolution of an admitted read.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// Served from a published snapshot frame.
    Served {
        /// Request id from the [`ReadTicket`].
        id: u64,
        /// Virtual µs between submission and service.
        latency_us: f64,
        /// True when the server was in degraded mode at service time; the
        /// `meta` stamp then carries the (finite) staleness bounds.
        degraded: bool,
        /// Consistency stamp of the frame the value was computed from.
        meta: SnapshotMeta,
        /// The requested value.
        value: ReadValue,
    },
    /// Shed after admission (deadline expiry while queued).
    Shed {
        /// Request id from the [`ReadTicket`].
        id: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
}

impl ReadOutcome {
    /// The request id this outcome resolves.
    pub fn id(&self) -> u64 {
        match self {
            ReadOutcome::Served { id, .. } | ReadOutcome::Shed { id, .. } => *id,
        }
    }
}

/// Resolution of one submitted write.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOutcome {
    /// The op reached the ingest queue; its admission decision applies
    /// (`Accepted` and `Throttled` ops are buffered, `Shed` ops dropped at
    /// hard capacity).
    Ingest(Admission),
    /// Durable server: the op reached the ingest queue **and** was recorded
    /// in the write-ahead log under `seq`. It becomes crash-durable at the
    /// next turn's group commit — once a [`TurnReport`] reports
    /// `durable_seq >= seq`, the op survives `kill -9`; until then a crash
    /// may drop it (and a failed commit aborts it without applying it).
    ///
    /// [`TurnReport`]: crate::TurnReport
    Logged {
        /// WAL sequence number assigned to the op.
        seq: u64,
        /// The ingest queue's admission decision.
        admission: Admission,
    },
    /// Shed by the server before reaching the queue (token budget).
    Shed(ShedReason),
    /// Invalid op, rejected with an error; nothing was buffered.
    Rejected(String),
}

impl WriteOutcome {
    /// True when the op was buffered and will be applied (for a durable
    /// server, pending the next successful group commit).
    pub fn is_admitted(&self) -> bool {
        match self {
            WriteOutcome::Ingest(a) | WriteOutcome::Logged { admission: a, .. } => a.is_admitted(),
            WriteOutcome::Shed(_) | WriteOutcome::Rejected(_) => false,
        }
    }

    /// The WAL sequence number, when the op was logged by a durable server.
    pub fn logged_seq(&self) -> Option<u64> {
        match self {
            WriteOutcome::Logged { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

/// A client operation a load generator can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Submit a read.
    Read(ReadKind),
    /// Submit a write.
    Write(aa_ingest::UpdateOp),
}
