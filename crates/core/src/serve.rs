//! `pombm serve` — a resident micro-batched matching service.
//!
//! The paper's setting is inherently a *service*: workers and tasks report
//! obfuscated locations to an untrusted server which matches online. Every
//! other entry point in this repo is batch; this module is the resident
//! counterpart. A serve session is one loop on the caller's thread: it
//! decodes requests off a framed transport (length-prefixed frames on the
//! in-repo `bytes` shim — no network crates) as they arrive, buffers them,
//! and executes them in **Δt micro-batches**: all activity whose *virtual*
//! timestamp falls into the same `batch_interval` window is applied in one
//! shot through the pool's batched entry points
//! ([`DynamicWorkerPool::insert_batch`] / `assign_batch`).
//!
//! # Frame layout
//!
//! Big-endian, length-prefixed (the length covers the payload only):
//!
//! ```text
//! frame     := u32 payload_len | payload
//! payload   := u8 opcode | body
//! 0x01 CHECK_IN  worker:u64  at:f64  x:f64  y:f64     (shift start)
//! 0x02 CHECK_OUT worker:u64  at:f64                   (shift end)
//! 0x03 TASK      task:u64    at:f64  x:f64  y:f64     (task arrival)
//! 0x04 SHUTDOWN                                       (drain and exit)
//! ```
//!
//! # Δt semantics
//!
//! `at` timestamps are *virtual* seconds on the workload timeline; frame
//! `at` belongs to window `⌊at / batch_interval⌋`. When a frame for a
//! later window arrives (or on shutdown), the current window flushes in
//! three phases:
//!
//! 1. **check-ins** — all buffered worker locations are obfuscated in one
//!    [`PointReporter::report_batch`] call on the session's one reporter
//!    (bit-identical to the scalar loop at any thread count) and
//!    registered via `insert_batch`;
//! 2. **check-outs** — buffered withdrawals are applied (no-ops for
//!    workers already assigned);
//! 3. **tasks** — the queue depth is recorded, task locations are
//!    batch-obfuscated, and the window drains through `assign_batch` in
//!    arrival order.
//!
//! # Per-request cost
//!
//! Outside the flush, a load-generator request costs constant time. The
//! codec writes and reads a frame as one slice. The session keeps accepted
//! task ids and checked-in worker locations in tables indexed by id over
//! `0..num_tasks` and `0..num_workers`, the ids the load generator issues;
//! any other id (a hand-built script's, a fault plan's, a hostile frame's)
//! falls back to an ordered map with the same first-write-wins dedup. The
//! latency percentiles are selected in place, not sorted.
//!
//! # Determinism contract
//!
//! The assignment sequence is a pure function of
//! `(seed, plan, batch_interval)`. Wall-clock enters only through the
//! load generator's *pacing* (QPS throttling slows delivery, never
//! reorders it) and the optional, `timings`-gated latency percentiles —
//! which are [`None`]-skipped from the JSON exactly like the sweep's
//! `wall_ms` precedent, so a timings-off [`ServeReport`] is a
//! byte-checkable artifact. Two runs at different QPS, or at `--threads 1`
//! vs auto, produce identical assignments; `tests/serve.rs` pins this with
//! golden fingerprints and replay tests, and CI's `serve-smoke` job
//! byte-compares live runs. The schedule deliberately differs from the
//! event-sequential dynamic driver ([`crate::dynamic::run_dynamic_spec`]):
//! obfuscation draws are grouped per window, so outcomes depend on Δt —
//! that dependence is part of the artifact's identity, like a seed.
//!
//! # Fault injection & degraded mode
//!
//! The unhappy paths are held to the same contract. A [`crate::fault`]
//! plan rewrites the generated frame script *before* delivery starts
//! (drawing from its own [`crate::fault::FAULT_STREAM`]), so every
//! injected fault is a pure function of `(seed, plan name, rate)` and is
//! invariant under QPS pacing and thread counts. The session never aborts
//! on a bad frame: each decode failure is counted per
//! [`PipelineError::Transport`] class (a stream that ends without a
//! shutdown frame counts as [`CHANNEL_CLOSED`], a NaN or infinite field
//! as [`NON_FINITE`], a timestamp no Δt window index holds as
//! [`WINDOW_RANGE`]), duplicate deliveries are absorbed by id, and the
//! session keeps serving.
//!
//! With `queue_cap` set, the task backlog becomes a bounded admission
//! queue: an arriving task that would overflow it is shed per the
//! configured [`crate::fault::ShedPolicy`]. A shed submission retries
//! with deterministic *virtual-time* exponential backoff (`Δt·2^attempt`
//! past its current timestamp — the service-side stand-in for client
//! retry, which a wall-clock implementation could not keep
//! replay-identical), re-entering its retry window ahead of that window's
//! fresh arrivals. The retry budget is [`crate::fault::MAX_RETRIES`]
//! attempts under the counting policies, or a virtual deadline of
//! [`crate::fault::DEADLINE_WINDOWS`]`·Δt` past arrival under `deadline`
//! (exhaustion counts as `shed` / `expired` respectively). All of it
//! lands in the report's skip-if-`None` `faults` block, so clean-run
//! golden JSON stays byte-identical while faulted runs get their own
//! pinned fingerprints.

use crate::algorithm::{
    DynamicAssignStrategy, DynamicWorkerPool, PipelineError, PointReporter, Report, ReportMechanism,
};
use crate::dynamic::EventKind;
use crate::fault::{FaultPlan, ShedPolicy, DEADLINE_WINDOWS, DEFAULT_FAULT_RATE, FAULT_STREAM};
use crate::fingerprint::Fnv1a;
use crate::registry::registry;
use crate::scenario::{Scenario, DEFAULT_SCENARIO};
use crate::server::{check_epsilon, check_grid_side, Server};
use bytes::{Buf, Bytes};
use pombm_geom::{seeded_rng, Point};
use pombm_privacy::Epsilon;
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::Instance;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one serve session (service + load generator).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Workload scenario generating the fleet/timeline ([`crate::scenario`]
    /// registry lookup); `None` means the legacy `uniform` default and
    /// keeps the field absent from serialized configs, so pre-scenario
    /// JSON round-trips unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Stage-1 mechanism name (registry lookup).
    pub mechanism: String,
    /// Dynamic matcher name (registry lookup).
    pub matcher: String,
    /// Shift-plan kind for the generated fleet (`always-on`, `short`,
    /// `long`).
    pub plan: String,
    /// Tasks in the generated timeline.
    pub num_tasks: usize,
    /// Workers in the generated fleet.
    pub num_workers: usize,
    /// Privacy budget per report.
    pub epsilon: f64,
    /// Predefined-point grid side.
    pub grid_side: usize,
    /// Base seed; with `plan` and `batch_interval` it fully determines the
    /// assignment sequence.
    pub seed: u64,
    /// Δt — the micro-batch window in virtual seconds.
    pub batch_interval: f64,
    /// Load-generator target rate in requests per wall-clock second;
    /// `0.0` = unthrottled. Pacing only — never affects assignments.
    pub qps: f64,
    /// Stop the load generator after this many requests (the service
    /// drains what arrived); `None` replays the whole timeline.
    pub max_requests: Option<usize>,
    /// Obfuscation threads per window (`0` = auto, `1` = scalar); output
    /// is bit-identical for every value.
    pub threads: usize,
    /// Record wall-clock assignment-latency percentiles. Off by default:
    /// the percentiles are machine-dependent and are skipped — absent, not
    /// `null` — from the JSON so byte comparisons stay exact.
    pub timings: bool,
    /// Fault plan injected between the load generator and the engine
    /// ([`crate::fault`] registry lookup); `None` means no injection and
    /// keeps the field absent from serialized configs, so pre-fault JSON
    /// round-trips unchanged (the scenario-field precedent).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fault_plan: Option<String>,
    /// Fault firing probability in `[0, 1]`; requires `fault_plan` and
    /// defaults to [`DEFAULT_FAULT_RATE`] when a plan is set.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fault_rate: Option<f64>,
    /// Bound on the task admission queue; `None` keeps the legacy
    /// unbounded backlog.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub queue_cap: Option<usize>,
    /// Shedding policy for a bounded queue (`drop-newest`, `drop-oldest`,
    /// `deadline`); requires `queue_cap` and defaults to `drop-newest`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shed_policy: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scenario: None,
            mechanism: "hst".into(),
            matcher: "hst-greedy".into(),
            plan: "short".into(),
            num_tasks: 200,
            num_workers: 100,
            epsilon: 0.6,
            grid_side: 32,
            seed: 0,
            batch_interval: 5.0,
            qps: 0.0,
            max_requests: None,
            threads: 1,
            timings: false,
            fault_plan: None,
            fault_rate: None,
            queue_cap: None,
            shed_policy: None,
        }
    }
}

/// Wall-clock assignment-latency percentiles over one session (frame
/// ingest of a task to the drain of its window), in milliseconds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServeLatency {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

/// The degraded-operation ledger of one serve session: what the fault
/// plan injected, what the transport rejected, and what the bounded
/// admission queue shed. Every counter is virtual-time-deterministic —
/// the block gets the same golden treatment as the clean fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultReport {
    /// Fault plan injected; absent when faults arose without one (e.g. a
    /// hand-built corrupt script or a bare `queue_cap`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub plan: Option<String>,
    /// Firing probability the plan ran at; absent without a plan.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rate: Option<f64>,
    /// Admission-queue bound; absent for the legacy unbounded backlog.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub queue_cap: Option<usize>,
    /// Shedding policy in force; absent without a `queue_cap`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shed_policy: Option<String>,
    /// Frames the fault plan touched (corrupted, duplicated, time-warped).
    pub injected: usize,
    /// Frames the transport rejected (sum of `corrupt_classes`).
    pub corrupt: usize,
    /// Rejected frames bucketed by [`PipelineError::Transport`] class.
    pub corrupt_classes: BTreeMap<String, usize>,
    /// Duplicate check-ins/tasks absorbed by the admission dedup.
    pub duplicates: usize,
    /// Distinct tasks submitted. Invariant, per policy:
    /// `submitted == assigned + dropped + shed + expired`.
    pub submitted: usize,
    /// Tasks terminally shed after exhausting their retry budget.
    pub shed: usize,
    /// Retry re-admissions performed (one task may retry several times).
    pub retried: usize,
    /// Tasks expired at their virtual deadline (`deadline` policy only).
    pub expired: usize,
}

/// Serializable outcome of one serve session. Every field except
/// `latency` is a pure function of `(seed, plan, batch_interval)` — and,
/// when chaos is configured, of the fault plan, rate, queue cap and shed
/// policy — QPS, thread count and wall-clock never reach them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Workload scenario replayed; absent — not `null` — for the legacy
    /// `uniform` default, so pre-scenario golden JSON byte-compares
    /// exactly (the same contract as the sweep cells).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Mechanism driven.
    pub mechanism: String,
    /// Dynamic matcher driven.
    pub matcher: String,
    /// Shift-plan kind replayed.
    pub plan: String,
    /// Tasks in the configured timeline.
    pub num_tasks: usize,
    /// Workers in the configured fleet.
    pub num_workers: usize,
    /// Privacy budget per report.
    pub epsilon: f64,
    /// Base seed.
    pub seed: u64,
    /// Δt window in virtual seconds.
    pub batch_interval: f64,
    /// Frames ingested (shutdown excluded).
    pub requests: usize,
    /// Non-empty windows flushed.
    pub batches: usize,
    /// Tasks assigned a worker.
    pub assigned: usize,
    /// Tasks that drained against an empty pool.
    pub dropped: usize,
    /// `assigned / (assigned + dropped)` (`1.0` when no tasks arrived).
    pub assignment_rate: f64,
    /// `dropped / (assigned + dropped)` (`0.0` when no tasks arrived).
    pub drop_rate: f64,
    /// Total true-location travel distance of the assigned pairs.
    pub total_distance: f64,
    /// Largest task-queue depth observed at a flush.
    pub peak_queue_depth: usize,
    /// Mean task-queue depth over flushed windows.
    pub mean_queue_depth: f64,
    /// FNV-1a fingerprint of the assignment sequence — the byte-checkable
    /// identity of the run (see [`assignment_fingerprint`]).
    pub assignment_fingerprint: String,
    /// Latency percentiles; present only with [`ServeConfig::timings`]
    /// (and absent — not `null` — from the JSON otherwise, mirroring the
    /// sweep's `wall_ms`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency: Option<ServeLatency>,
    /// Fault-and-shedding ledger; present only when chaos was configured
    /// or an anomaly actually occurred (and absent — not `null` — from
    /// the JSON otherwise), so every pre-fault golden byte-compares
    /// exactly.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultReport>,
}

/// A completed serve session: the report plus the raw assignment sequence
/// (`(task id, assigned worker)` in drain order) for replay comparisons.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The serializable session report.
    pub report: ServeReport,
    /// `(task, Some(worker) | None)` in drain order — what the
    /// fingerprint digests.
    pub assignments: Vec<(u64, Option<u64>)>,
}

/// The Transport class recorded when the frame stream ends before a
/// shutdown frame. The serve loop counts it as a [`FaultReport`] anomaly
/// and drains the buffered tail, so a truncated stream still yields a
/// well-formed [`ServeReport`].
pub const CHANNEL_CLOSED: &str = "channel closed";

/// The Transport class of a frame whose timestamp or coordinate is NaN
/// or infinite: no window or pool can place it.
pub const NON_FINITE: &str = "non-finite timestamp or coordinate";

/// The Transport class of a frame whose window index `⌊at/Δt⌋` is
/// negative or at least 2⁶⁴: no `u64` window holds it, and a saturating
/// cast would merge it into the first or last window.
pub const WINDOW_RANGE: &str = "timestamp outside the window range";

/// 2⁶⁴, the first window index past `u64::MAX`.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

const OP_CHECK_IN: u8 = 0x01;
const OP_CHECK_OUT: u8 = 0x02;
const OP_TASK: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;

// Each opcode's body size in bytes: the payload after the opcode byte.
const CHECK_IN_BODY: usize = 32;
const CHECK_OUT_BODY: usize = 16;
const TASK_BODY: usize = 32;
const SHUTDOWN_BODY: usize = 0;

/// One request on the serve transport (see the module docs for the wire
/// layout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeRequest {
    /// Shift start: a worker checks in at its true location (obfuscated
    /// server-side by the session's mechanism, like the batch drivers).
    CheckIn {
        /// Worker id (unique among live workers).
        worker: u64,
        /// Virtual timestamp.
        at: f64,
        /// True x coordinate.
        x: f64,
        /// True y coordinate.
        y: f64,
    },
    /// Shift end: an unassigned worker withdraws.
    CheckOut {
        /// Worker id.
        worker: u64,
        /// Virtual timestamp.
        at: f64,
    },
    /// Task arrival.
    Task {
        /// Task id.
        task: u64,
        /// Virtual timestamp.
        at: f64,
        /// True x coordinate.
        x: f64,
        /// True y coordinate.
        y: f64,
    },
    /// Drain every buffered window and end the session.
    Shutdown,
}

impl ServeRequest {
    /// Encodes the request as one length-prefixed frame.
    pub fn encode(&self) -> Bytes {
        // A body is the first `body / 8` of these words, big-endian: the
        // id, then the bits of `at`, `x` and `y`.
        let (opcode, body, id, [at, x, y]) = match *self {
            ServeRequest::CheckIn {
                worker: id,
                at,
                x,
                y,
            } => (OP_CHECK_IN, CHECK_IN_BODY, id, [at, x, y]),
            ServeRequest::Task { task: id, at, x, y } => (OP_TASK, TASK_BODY, id, [at, x, y]),
            ServeRequest::CheckOut { worker, at } => {
                (OP_CHECK_OUT, CHECK_OUT_BODY, worker, [at, 0.0, 0.0])
            }
            ServeRequest::Shutdown => (OP_SHUTDOWN, SHUTDOWN_BODY, 0, [0.0; 3]),
        };
        let words = [id, at.to_bits(), x.to_bits(), y.to_bits()];
        // Prefix, opcode and the largest body (CHECK_IN's and TASK's).
        let mut frame = [0u8; 5 + CHECK_IN_BODY];
        frame[..4].copy_from_slice(&(1 + body as u32).to_be_bytes());
        frame[4] = opcode;
        for (slot, word) in frame[5..5 + body].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_be_bytes());
        }
        Bytes::from(&frame[..5 + body])
    }

    /// Decodes one frame, consuming it from `buf`. Truncated frames,
    /// unknown opcodes, length/opcode mismatches and non-finite
    /// timestamps or coordinates ([`NON_FINITE`]) are typed
    /// [`PipelineError::Transport`] errors, never panics.
    pub fn decode(buf: &mut Bytes) -> Result<Self, PipelineError> {
        let (consumed, request) = Self::decode_fields(buf.chunk());
        buf.advance(consumed);
        let request = request?;
        let finite = match request {
            ServeRequest::CheckIn { at, x, y, .. } | ServeRequest::Task { at, x, y, .. } => {
                at.is_finite() && x.is_finite() && y.is_finite()
            }
            ServeRequest::CheckOut { at, .. } => at.is_finite(),
            ServeRequest::Shutdown => true,
        };
        if finite {
            Ok(request)
        } else {
            Err(PipelineError::Transport { why: NON_FINITE })
        }
    }

    /// Reads the frame at the front of `bytes` as one slice. Returns the
    /// request and how many bytes it consumes: none when the length prefix
    /// is cut short, the prefix alone when the payload is short or empty,
    /// prefix and opcode when the opcode is unknown or its body size does
    /// not match, and the whole frame otherwise.
    fn decode_fields(bytes: &[u8]) -> (usize, Result<Self, PipelineError>) {
        let transport = |why| Err(PipelineError::Transport { why });
        let Some((prefix, rest)) = bytes.split_first_chunk::<4>() else {
            return (0, transport("truncated frame: missing length prefix"));
        };
        let Some(payload) = rest.get(..u32::from_be_bytes(*prefix) as usize) else {
            return (
                4,
                transport("truncated frame: payload shorter than its length prefix"),
            );
        };
        let Some((&opcode, body)) = payload.split_first() else {
            return (
                4,
                transport("empty payload: a frame needs at least an opcode"),
            );
        };
        // The `at`, `x` and `y` fields of a body, after its 8-byte id.
        let field = |i: usize| f64::from_bits(word(body, 1 + i));
        let request = match (opcode, body.len()) {
            (OP_CHECK_IN, CHECK_IN_BODY) => ServeRequest::CheckIn {
                worker: word(body, 0),
                at: field(0),
                x: field(1),
                y: field(2),
            },
            (OP_CHECK_OUT, CHECK_OUT_BODY) => ServeRequest::CheckOut {
                worker: word(body, 0),
                at: field(0),
            },
            (OP_TASK, TASK_BODY) => ServeRequest::Task {
                task: word(body, 0),
                at: field(0),
                x: field(1),
                y: field(2),
            },
            (OP_SHUTDOWN, SHUTDOWN_BODY) => ServeRequest::Shutdown,
            (OP_CHECK_IN | OP_CHECK_OUT | OP_TASK | OP_SHUTDOWN, _) => {
                return (
                    5,
                    transport("length prefix does not match the opcode's body size"),
                );
            }
            _ => return (5, transport("unknown opcode")),
        };
        (5 + body.len(), Ok(request))
    }

    fn timestamp(&self) -> f64 {
        match *self {
            ServeRequest::CheckIn { at, .. }
            | ServeRequest::CheckOut { at, .. }
            | ServeRequest::Task { at, .. } => at,
            ServeRequest::Shutdown => f64::INFINITY,
        }
    }
}

/// The `i`th big-endian 8-byte word of a frame body.
fn word(body: &[u8], i: usize) -> u64 {
    u64::from_be_bytes(body[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// FNV-1a over the assignment sequence: each `(task, worker)` pair
/// digests as two little-endian u64s, with `None` (dropped) encoded as
/// `0` and `Some(w)` as `w + 1`. The serve counterpart of the sweep's
/// config fingerprint — two runs match iff their assignment sequences do.
pub fn assignment_fingerprint(assignments: &[(u64, Option<u64>)]) -> String {
    let mut hash = Fnv1a::new();
    for &(task, worker) in assignments {
        hash.write_u64(task).write_u64(worker.map_or(0, |w| w + 1));
    }
    hash.hex()
}

/// A task buffered in the current window (or parked for a retry window).
struct PendingTask {
    id: u64,
    location: Point,
    /// Virtual timestamp; a retry moves it forward by the backoff.
    at: f64,
    /// Virtual-time expiry under the `deadline` policy.
    deadline: f64,
    /// How many times this task has been shed and rescheduled.
    attempt: u32,
    /// Frame-ingest instant; `Some` only with `timings`.
    ingested: Option<std::time::Instant>,
}

/// A first-write-wins table keyed by wire id: a vector indexed by the ids
/// `0..len` the load generator issues (`timeline_frames` numbers workers
/// and tasks from 0), and an ordered map for any other id, such as a
/// hand-built script's or a hostile frame's. An id is stored at most once
/// and never leaves.
struct IdTable<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u64, T>,
}

impl<T: Copy> IdTable<T> {
    /// A table whose vector covers ids `0..len`: the session's configured
    /// task or worker count, for which the session has already derived
    /// one instance point each.
    fn new(len: usize) -> Self {
        IdTable {
            dense: vec![None; len],
            sparse: BTreeMap::new(),
        }
    }

    /// Stores `value` under `id` unless the id is present; returns whether
    /// it stored it.
    fn insert_new(&mut self, id: u64, value: T) -> bool {
        if let Some(slot) = usize::try_from(id).ok().and_then(|i| self.dense.get_mut(i)) {
            let vacant = slot.is_none();
            slot.get_or_insert(value);
            return vacant;
        }
        match self.sparse.entry(id) {
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// The value stored under `id`.
    fn get(&self, id: u64) -> Option<T> {
        match usize::try_from(id).ok().and_then(|i| self.dense.get(i)) {
            Some(&slot) => slot,
            None => self.sparse.get(&id).copied(),
        }
    }
}

/// Aggregates the resident half of a session: the pool, the two RNG
/// streams, the window buffers and the running counters.
struct Engine<'a> {
    /// The mechanism's per-run state, built once for the session.
    reporter: Box<dyn PointReporter + 'a>,
    pool: Box<dyn DynamicWorkerPool + 'a>,
    threads: usize,
    batch_interval: f64,
    timings: bool,
    mech_rng: StdRng,
    tie_rng: StdRng,
    window: Option<u64>,
    queue_cap: Option<usize>,
    shed_policy: ShedPolicy,
    pending_checkins: Vec<(u64, Point)>,
    pending_checkouts: Vec<u64>,
    /// The window's task queue, oldest first: drop-oldest shedding pops
    /// its front.
    pending_tasks: VecDeque<PendingTask>,
    /// Shed tasks parked for a later window, sorted by `(at, id)`.
    retry_queue: Vec<PendingTask>,
    /// Task ids already accepted — with `worker_locations`' ids, the
    /// at-least-once dedup layer. Dense over the configured task count.
    seen_tasks: IdTable<()>,
    /// True check-in locations by worker id, for the distance tally (the
    /// frame carries the exact f64 bits the workload generated). Dense
    /// over the configured worker count. No id is ever removed, so it also
    /// dedups replayed check-ins.
    worker_locations: IdTable<Point>,
    /// The running counters, handed back whole when the session ends.
    stats: SessionStats,
}

/// What the engine hands back when the session ends.
#[derive(Default)]
struct SessionStats {
    assignments: Vec<(u64, Option<u64>)>,
    requests: usize,
    batches: usize,
    peak_queue: usize,
    queue_sum: usize,
    total_distance: f64,
    corrupt_classes: BTreeMap<&'static str, usize>,
    duplicates: usize,
    submitted: usize,
    shed: usize,
    retried: usize,
    expired: usize,
    latencies_ms: Vec<f64>,
}

impl<'a> Engine<'a> {
    fn new(
        resolved: &'a Resolved,
        server: &'a Server,
        config: &ServeConfig,
    ) -> Result<Self, PipelineError> {
        let epsilon = Epsilon::new(config.epsilon);
        Ok(Engine {
            reporter: resolved.mechanism.reporter(epsilon, Some(server))?,
            pool: resolved.matcher.pool(Some(server))?,
            threads: config.threads,
            batch_interval: config.batch_interval,
            timings: config.timings,
            // The same stream ids as the event-sequential dynamic driver;
            // the *schedule* of draws differs (grouped per Δt window) and
            // is pinned by the serve goldens.
            mech_rng: seeded_rng(config.seed, 0xD1CE_0001),
            tie_rng: seeded_rng(config.seed, 0xD1CE_0002),
            window: None,
            queue_cap: config.queue_cap,
            shed_policy: resolved.shed_policy,
            pending_checkins: Vec::new(),
            pending_checkouts: Vec::new(),
            pending_tasks: VecDeque::new(),
            retry_queue: Vec::new(),
            seen_tasks: IdTable::new(config.num_tasks),
            worker_locations: IdTable::new(config.num_workers),
            stats: SessionStats::default(),
        })
    }

    /// Δt window index of a virtual timestamp. Saturates at the `u64`
    /// ends: [`Engine::ingest`] skips a frame outside them
    /// ([`WINDOW_RANGE`]), so only a retry backed off past 2⁶⁴ windows
    /// can saturate.
    fn window_of(&self, at: f64) -> u64 {
        (at / self.batch_interval).floor() as u64
    }

    /// Counts a Transport-class anomaly; the session keeps serving.
    fn note_corrupt(&mut self, why: &'static str) {
        *self.stats.corrupt_classes.entry(why).or_insert(0) += 1;
    }

    /// Earliest window holding a parked retry, if any (the retry queue is
    /// sorted by timestamp, so the head decides).
    fn next_retry_window(&self) -> Option<u64> {
        self.retry_queue.first().map(|t| self.window_of(t.at))
    }

    /// Re-admits every parked retry whose window has arrived, oldest
    /// first — retries enter a window ahead of its fresh frames.
    fn readmit_due(&mut self, window: u64) {
        let due = self
            .retry_queue
            .partition_point(|t| self.window_of(t.at) <= window);
        if due == 0 {
            return;
        }
        let due: Vec<PendingTask> = self.retry_queue.drain(..due).collect();
        for task in due {
            self.stats.retried += 1;
            self.admit(task);
        }
    }

    /// Moves the engine to `target`, flushing the current window and
    /// draining every retry window that falls strictly before it (each as
    /// its own micro-batch, exactly as if the frames had arrived then).
    fn advance_to(&mut self, target: u64) -> Result<(), PipelineError> {
        if self.window == Some(target) {
            return Ok(());
        }
        self.flush()?;
        while let Some(rw) = self.next_retry_window().filter(|&rw| rw < target) {
            self.window = Some(rw);
            self.readmit_due(rw);
            self.flush()?;
        }
        self.window = Some(target);
        self.readmit_due(target);
        Ok(())
    }

    /// Admits a task to the window queue, shedding per policy when the
    /// bounded queue is full — the queue never exceeds the cap.
    fn admit(&mut self, task: PendingTask) {
        match self.queue_cap {
            Some(cap) if self.pending_tasks.len() >= cap => match self.shed_policy {
                ShedPolicy::DropOldest => {
                    let oldest = self.pending_tasks.pop_front().expect("the cap is positive");
                    self.shed_task(oldest);
                    self.pending_tasks.push_back(task);
                }
                ShedPolicy::DropNewest | ShedPolicy::Deadline => self.shed_task(task),
            },
            _ => self.pending_tasks.push_back(task),
        }
        self.stats.peak_queue = self.stats.peak_queue.max(self.pending_tasks.len());
    }

    /// Parks a shed task for retry at `at + Δt·2^attempt` of *virtual*
    /// time — the deterministic service-side stand-in for client backoff —
    /// or records it as terminally shed/expired once its budget is gone.
    fn shed_task(&mut self, mut task: PendingTask) {
        let backoff = self.batch_interval * (1u64 << task.attempt.min(62)) as f64;
        let next_at = task.at + backoff;
        let terminal = match self.shed_policy {
            ShedPolicy::Deadline => next_at > task.deadline,
            ShedPolicy::DropNewest | ShedPolicy::DropOldest => {
                task.attempt >= crate::fault::MAX_RETRIES
            }
        };
        if terminal {
            if self.shed_policy == ShedPolicy::Deadline {
                self.stats.expired += 1;
            } else {
                self.stats.shed += 1;
            }
            return;
        }
        task.attempt += 1;
        task.at = next_at;
        let pos = self
            .retry_queue
            .partition_point(|t| t.at < task.at || (t.at == task.at && t.id <= task.id));
        self.retry_queue.insert(pos, task);
    }

    /// Drains the current window and every outstanding retry window — the
    /// shutdown/hangup path. Terminates because every parked task's
    /// budget (attempt count or deadline) is finite.
    fn end_session(&mut self) -> Result<(), PipelineError> {
        self.flush()?;
        while let Some(rw) = self.next_retry_window() {
            self.window = Some(rw);
            self.readmit_due(rw);
            self.flush()?;
        }
        Ok(())
    }

    /// Buffers one request, flushing first when it opens a new window.
    /// Returns `false` when the session should end (shutdown received).
    fn ingest(&mut self, request: ServeRequest) -> Result<bool, PipelineError> {
        if request == ServeRequest::Shutdown {
            self.end_session()?;
            return Ok(false);
        }
        let quotient = (request.timestamp() / self.batch_interval).floor();
        if !(0.0..TWO_POW_64).contains(&quotient) {
            self.note_corrupt(WINDOW_RANGE);
            return Ok(true);
        }
        self.stats.requests += 1;
        self.advance_to(quotient as u64)?;
        match request {
            ServeRequest::CheckIn { worker, x, y, .. } => {
                let location = Point::new(x, y);
                if self.worker_locations.insert_new(worker, location) {
                    self.pending_checkins.push((worker, location));
                } else {
                    // At-least-once delivery: replays of a known check-in
                    // are absorbed, never double-inserted into the pool.
                    self.stats.duplicates += 1;
                }
            }
            ServeRequest::CheckOut { worker, .. } => self.pending_checkouts.push(worker),
            ServeRequest::Task { task, at, x, y } => {
                if self.seen_tasks.insert_new(task, ()) {
                    self.stats.submitted += 1;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "timings-gated latency sampling only; the wall_ms precedent. Never reaches assignments or the deterministic report fields"
                    )]
                    let ingested = self.timings.then(std::time::Instant::now);
                    self.admit(PendingTask {
                        id: task,
                        location: Point::new(x, y),
                        at,
                        deadline: at + DEADLINE_WINDOWS * self.batch_interval,
                        attempt: 0,
                        ingested,
                    });
                } else {
                    self.stats.duplicates += 1;
                }
            }
            ServeRequest::Shutdown => unreachable!("handled above"),
        }
        Ok(true)
    }

    /// Flushes the current window through the three documented phases.
    fn flush(&mut self) -> Result<(), PipelineError> {
        if self.pending_checkins.is_empty()
            && self.pending_checkouts.is_empty()
            && self.pending_tasks.is_empty()
        {
            return Ok(());
        }
        self.stats.batches += 1;
        // Phase 1: batch-obfuscate and register the window's check-ins.
        if !self.pending_checkins.is_empty() {
            let points: Vec<Point> = self.pending_checkins.iter().map(|&(_, p)| p).collect();
            let reports = self
                .reporter
                .report_batch(&points, &mut self.mech_rng, self.threads);
            let batch: Vec<(u64, Report)> = self
                .pending_checkins
                .drain(..)
                .zip(reports)
                .map(|((id, _), report)| (id, report))
                .collect();
            self.pool.insert_batch(batch)?;
        }
        // Phase 2: apply check-outs (no-ops for assigned workers).
        for id in self.pending_checkouts.drain(..) {
            let _ = self.pool.withdraw(id);
        }
        // Phase 3: record queue depth, then drain the task queue. (Peak
        // depth is tracked at admission, where a bounded queue binds.)
        let depth = self.pending_tasks.len();
        self.stats.queue_sum += depth;
        if depth > 0 {
            let points: Vec<Point> = self.pending_tasks.iter().map(|t| t.location).collect();
            let reports = self
                .reporter
                .report_batch(&points, &mut self.mech_rng, self.threads);
            let tasks: Vec<PendingTask> = self.pending_tasks.drain(..).collect();
            let slots = self.pool.assign_batch(reports, &mut self.tie_rng)?;
            #[expect(
                clippy::disallowed_methods,
                reason = "timings-gated latency sampling only; the wall_ms precedent. One drain stamp per window"
            )]
            let drained = self.timings.then(std::time::Instant::now);
            for (task, &slot) in tasks.iter().zip(&slots) {
                self.stats.assignments.push((task.id, slot));
                if let Some(worker) = slot {
                    // True-location travel distance, from the exact f64
                    // bits the frames carried (bit-identical to summing
                    // over the instance arrays in assignment order).
                    let worker_location = self
                        .worker_locations
                        .get(worker)
                        .expect("the pool assigns only checked-in workers");
                    self.stats.total_distance += task.location.dist(&worker_location);
                }
                if let (Some(end), Some(start)) = (drained, task.ingested) {
                    self.stats
                        .latencies_ms
                        .push(end.duration_since(start).as_secs_f64() * 1e3);
                }
            }
        }
        Ok(())
    }
}

/// The resident serve loop: decodes frames off any ingress, in the order
/// the iterator yields them, and drives the engine until shutdown. A frame
/// the transport rejects is counted per class and the session keeps
/// serving; a stream that ends without a shutdown frame is counted as
/// [`CHANNEL_CLOSED`] before the buffered tail drains, so the session
/// always hands back well-formed stats.
fn serve_stream<I>(
    frames: I,
    resolved: &Resolved,
    server: &Server,
    config: &ServeConfig,
) -> Result<SessionStats, PipelineError>
where
    I: IntoIterator<Item = Bytes>,
{
    let mut engine = Engine::new(resolved, server, config)?;
    for mut frame in frames {
        match ServeRequest::decode(&mut frame) {
            Ok(request) => {
                if !engine.ingest(request)? {
                    return Ok(engine.stats);
                }
            }
            // Degraded mode: corrupt frames are counted, never fatal.
            Err(PipelineError::Transport { why }) => engine.note_corrupt(why),
            Err(other) => return Err(other),
        }
    }
    engine.note_corrupt(CHANNEL_CLOSED);
    engine.end_session()?;
    Ok(engine.stats)
}

/// Encodes the seed-derived workload timeline as transport frames — the
/// load generator's replay script. Pure in `(instance, plan, task_times)`;
/// `max_requests` truncates the tail. The shutdown frame is *not*
/// included: the caller appends it after fault injection, so chaos may
/// mangle the workload but never the session's ability to end cleanly.
fn timeline_frames(
    instance: &Instance,
    plan: &ShiftPlan,
    task_times: &[f64],
    max_requests: Option<usize>,
) -> Vec<Bytes> {
    let events = crate::dynamic::build_timeline(plan, task_times);
    let mut frames: Vec<Bytes> = events
        .iter()
        .map(|&(at, kind)| {
            match kind {
                EventKind::ShiftStart(w) => ServeRequest::CheckIn {
                    worker: w as u64,
                    at,
                    x: instance.workers[w].x,
                    y: instance.workers[w].y,
                },
                EventKind::ShiftEnd(w) => ServeRequest::CheckOut {
                    worker: w as u64,
                    at,
                },
                EventKind::Task(t) => ServeRequest::Task {
                    task: t as u64,
                    at,
                    x: instance.tasks[t].x,
                    y: instance.tasks[t].y,
                },
            }
            .encode()
        })
        .collect();
    if let Some(cap) = max_requests {
        frames.truncate(cap);
    }
    frames
}

/// The max, p99, p95 and p50 of `samples` at their nearest ranks, found by
/// selection in place (the order of `samples` is left unspecified). Each
/// rank is at most the one before it, so the next selection runs on the
/// prefix the previous pivot closes, which holds exactly the lower ranks.
fn select_percentiles(samples: &mut [f64]) -> [f64; 4] {
    let last = samples.len() - 1;
    let rank = |p: f64| ((p / 100.0) * last as f64).round() as usize;
    let mut prefix = samples.len();
    [last, rank(99.0), rank(95.0), rank(50.0)].map(|rank| {
        let (_, &mut value, _) = samples[..prefix].select_nth_unstable_by(rank, f64::total_cmp);
        prefix = rank + 1;
        value
    })
}

/// Everything a session resolves by name, plus the validated chaos knobs.
struct Resolved {
    mechanism: Arc<dyn ReportMechanism>,
    matcher: Arc<dyn DynamicAssignStrategy>,
    scenario: Arc<dyn Scenario>,
    fault_plan: Option<FaultPlan>,
    fault_rate: f64,
    shed_policy: ShedPolicy,
    /// Wall-clock pause between generator frames (`None`: unthrottled).
    pause: Option<Duration>,
}

/// Validates the config and resolves every registry name: these typed
/// errors surface before any workload is derived.
fn resolve(config: &ServeConfig) -> Result<Resolved, PipelineError> {
    check_grid_side(config.grid_side)?;
    check_epsilon("epsilon", config.epsilon)?;
    if !(config.batch_interval.is_finite() && config.batch_interval > 0.0) {
        return Err(PipelineError::InvalidConfig {
            field: "batch-interval",
            why: "Δt must be a positive, finite number of virtual seconds",
        });
    }
    if !(config.qps.is_finite() && config.qps >= 0.0) {
        return Err(PipelineError::InvalidConfig {
            field: "qps",
            why: "must be 0 (unthrottled) or a positive, finite rate",
        });
    }
    let pause = (config.qps > 0.0)
        .then(|| Duration::try_from_secs_f64(1.0 / config.qps))
        .transpose()
        .map_err(|_| PipelineError::InvalidConfig {
            field: "qps",
            why: "a rate this low spaces requests further apart than a Duration can hold",
        })?;
    if config.fault_rate.is_some() && config.fault_plan.is_none() {
        return Err(PipelineError::InvalidConfig {
            field: "fault-rate",
            why: "needs --fault-plan: a rate without a plan injects nothing",
        });
    }
    let fault_rate = config.fault_rate.unwrap_or(DEFAULT_FAULT_RATE);
    if !(fault_rate.is_finite() && (0.0..=1.0).contains(&fault_rate)) {
        return Err(PipelineError::InvalidConfig {
            field: "fault-rate",
            why: "must be a probability in [0, 1]",
        });
    }
    if config.queue_cap == Some(0) {
        return Err(PipelineError::InvalidConfig {
            field: "queue-cap",
            why: "a bounded queue must admit at least one task",
        });
    }
    if config.shed_policy.is_some() && config.queue_cap.is_none() {
        return Err(PipelineError::InvalidConfig {
            field: "shed-policy",
            why: "needs --queue-cap: shedding only applies to a bounded queue",
        });
    }
    let shed_policy = match config.shed_policy.as_deref() {
        Some(name) => ShedPolicy::parse(name)?,
        None => ShedPolicy::DropNewest,
    };
    let mechanism = registry().require_mechanism(&config.mechanism)?;
    let matcher = registry().require_dynamic_matcher(&config.matcher)?;
    let scenario =
        registry().require_scenario(config.scenario.as_deref().unwrap_or(DEFAULT_SCENARIO))?;
    let fault_plan = match config.fault_plan.as_deref() {
        Some(name) => Some(registry().require_fault_plan(name)?),
        None => None,
    };
    Ok(Resolved {
        mechanism,
        matcher,
        scenario,
        fault_plan,
        fault_rate,
        shed_policy,
        pause,
    })
}

/// Assembles the report from session stats — shared by the paced driver
/// and the raw-script ingress, so both speak the identical artifact.
fn build_outcome(
    config: &ServeConfig,
    resolved: &Resolved,
    mut stats: SessionStats,
    injected: usize,
) -> ServeOutcome {
    let assigned = stats
        .assignments
        .iter()
        .filter(|(_, slot)| slot.is_some())
        .count();
    let dropped = stats.assignments.len() - assigned;
    let arrived = stats.assignments.len();
    let latency = (config.timings && !stats.latencies_ms.is_empty()).then(|| {
        let [max_ms, p99_ms, p95_ms, p50_ms] = select_percentiles(&mut stats.latencies_ms);
        ServeLatency {
            p50_ms,
            p95_ms,
            p99_ms,
            max_ms,
        }
    });
    let corrupt: usize = stats.corrupt_classes.values().sum();
    let anomalies =
        injected + corrupt + stats.duplicates + stats.shed + stats.retried + stats.expired;
    // The block appears when chaos was *configured* (even if nothing
    // fired — zeros are informative there) or when an anomaly actually
    // occurred; otherwise it is skipped so pre-fault goldens hold.
    let faults =
        (config.fault_plan.is_some() || config.queue_cap.is_some() || anomalies > 0).then(|| {
            FaultReport {
                plan: resolved.fault_plan.map(|p| p.name().to_string()),
                rate: resolved.fault_plan.is_some().then_some(resolved.fault_rate),
                queue_cap: config.queue_cap,
                shed_policy: config
                    .queue_cap
                    .is_some()
                    .then(|| resolved.shed_policy.name().to_string()),
                injected,
                corrupt,
                corrupt_classes: stats
                    .corrupt_classes
                    .iter()
                    .map(|(&class, &count)| (class.to_string(), count))
                    .collect(),
                duplicates: stats.duplicates,
                submitted: stats.submitted,
                shed: stats.shed,
                retried: stats.retried,
                expired: stats.expired,
            }
        });
    let report = ServeReport {
        scenario: (resolved.scenario.name() != DEFAULT_SCENARIO)
            .then(|| resolved.scenario.name().to_string()),
        mechanism: config.mechanism.clone(),
        matcher: config.matcher.clone(),
        plan: config.plan.clone(),
        num_tasks: config.num_tasks,
        num_workers: config.num_workers,
        epsilon: config.epsilon,
        seed: config.seed,
        batch_interval: config.batch_interval,
        requests: stats.requests,
        batches: stats.batches,
        assigned,
        dropped,
        assignment_rate: if arrived == 0 {
            1.0
        } else {
            assigned as f64 / arrived as f64
        },
        drop_rate: if arrived == 0 {
            0.0
        } else {
            dropped as f64 / arrived as f64
        },
        total_distance: stats.total_distance,
        peak_queue_depth: stats.peak_queue,
        mean_queue_depth: if stats.batches == 0 {
            0.0
        } else {
            stats.queue_sum as f64 / stats.batches as f64
        },
        assignment_fingerprint: assignment_fingerprint(&stats.assignments),
        latency,
        faults,
    };
    ServeOutcome {
        report,
        assignments: stats.assignments,
    }
}

/// Derives the session's instance from the configured scenario and builds
/// the server over its region: the one derivation both ingresses share.
fn session_server(
    config: &ServeConfig,
    resolved: &Resolved,
) -> Result<(Instance, Server), PipelineError> {
    let instance =
        resolved
            .scenario
            .timeline_instance(config.seed, config.num_tasks, config.num_workers);
    let server = Server::try_new(instance.region, config.grid_side, config.seed ^ 0xD1CE)?;
    Ok((instance, server))
}

/// Runs one complete serve session on the calling thread: replays the
/// seed-derived request timeline — rewritten by the configured fault plan,
/// if any — through the built-in load generator at [`ServeConfig::qps`],
/// and returns once the shutdown frame has drained the last window.
///
/// The returned assignments are a pure function of
/// `(seed, plan, batch_interval)` plus the chaos knobs (see the module
/// docs); QPS and `threads` trade wall-clock for delivery pacing and
/// cores, never results.
pub fn run_serve(config: &ServeConfig) -> Result<ServeOutcome, PipelineError> {
    let resolved = resolve(config)?;

    // The same workload derivation as `pombm dynamic`: instance, arrival
    // times and shift plan are all pure functions of the seed (and, for
    // the `uniform` default, the exact pre-scenario streams).
    let scenario = &resolved.scenario;
    let plan = scenario.shift_plan(&config.plan, config.num_workers, config.seed)?;
    let (instance, server) = session_server(config, &resolved)?;
    let task_times = scenario.task_times(config.seed, config.num_tasks);
    let mut frames = timeline_frames(&instance, &plan, &task_times, config.max_requests);
    let injected = match resolved.fault_plan {
        Some(fault_plan) => {
            // Injection rewrites the script *before* delivery starts, off
            // its own stream: faults are invariant under pacing/threads
            // and never perturb the workload or obfuscation draws.
            let mut fault_rng = seeded_rng(config.seed, FAULT_STREAM);
            let (mutated, injected) = fault_plan.inject(
                std::mem::take(&mut frames),
                resolved.fault_rate,
                &mut fault_rng,
            );
            frames = mutated;
            injected
        }
        None => 0,
    };
    // Appended after injection: chaos may mangle the workload, never the
    // session's ability to end cleanly.
    frames.push(ServeRequest::Shutdown.encode());

    // Pacing delays delivery only: each frame after the first waits one
    // pause before the engine sees it.
    let pause = resolved.pause;
    let paced = frames.into_iter().enumerate().map(|(i, frame)| {
        if let Some(pause) = pause.filter(|_| i > 0) {
            std::thread::sleep(pause);
        }
        frame
    });
    let stats = serve_stream(paced, &resolved, &server, config)?;
    Ok(build_outcome(config, &resolved, stats, injected))
}

/// Drives one session over a raw frame script on the calling thread — no
/// load generator, no pacing, no fault injection: the replay-and-test
/// ingress. The server grid is derived from the configured scenario
/// exactly as in [`run_serve`], so a script captured from the generator
/// replays against the same published artifacts. A script that ends
/// without a shutdown frame is drained and counted as a
/// [`CHANNEL_CLOSED`] anomaly; the report is well-formed either way.
pub fn serve_frames(
    config: &ServeConfig,
    frames: Vec<Bytes>,
) -> Result<ServeOutcome, PipelineError> {
    let resolved = resolve(config)?;
    let (_, server) = session_server(config, &resolved)?;
    let stats = serve_stream(frames, &resolved, &server, config)?;
    Ok(build_outcome(config, &resolved, stats, 0))
}

#[cfg(test)]
mod tests {
    use super::select_percentiles;
    use pombm_geom::seeded_rng;
    use rand::Rng;

    /// The value at percentile `p`'s nearest rank of a sorted copy.
    fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
        let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
        sorted_ms[idx]
    }

    /// Selection finds the values a sort puts at the max, p99, p95 and p50
    /// ranks, for every length from 1 to 300, on samples drawn from a few
    /// distinct values (so most repeat) and on spread-out samples.
    #[test]
    fn selected_percentiles_match_a_sorted_copy() {
        let mut rng = seeded_rng(32, 0x5E1E);
        for len in 1..=300 {
            for distinct in [len.min(1 + len / 10), len] {
                let mut samples: Vec<f64> = (0..len)
                    .map(|_| rng.gen_range(0..distinct) as f64 * 0.125)
                    .collect();
                let mut sorted = samples.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                let expected = [
                    sorted[len - 1],
                    percentile(&sorted, 99.0),
                    percentile(&sorted, 95.0),
                    percentile(&sorted, 50.0),
                ];
                assert_eq!(
                    select_percentiles(&mut samples),
                    expected,
                    "length {len}, {distinct} distinct values"
                );
            }
        }
    }
}
