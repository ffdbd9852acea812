//! Deterministic fault injection and overload-shedding policy for the
//! serve transport — chaos that is itself a seedable, replayable axis.
//!
//! PR 7 proved the serve happy path is a pure function of
//! `(seed, plan, batch_interval)`; this module makes the *unhappy* paths
//! equally pure. A [`FaultPlan`] rewrites the load generator's frame
//! script **between the generator and the engine**, drawing every
//! decision from one dedicated RNG stream ([`FAULT_STREAM`]), so each
//! injected fault is a pure function of `(seed, plan name, rate)` — the
//! same golden-fingerprint treatment the clean path gets, extended to
//! degraded operation. Plans are catalogued in the
//! [registry](crate::registry()) next to mechanisms, matchers and
//! scenarios.
//!
//! # Registered fault plans
//!
//! * `none` — the identity plan: frames pass through untouched.
//! * `flaky-wire` — each frame is, with probability `rate`, corrupted on
//!   the wire: truncated at a random byte, stamped with an unknown
//!   opcode, or given a lying length prefix. Every corruption shape
//!   decodes to a typed [`PipelineError::Transport`] error, which the
//!   serve engine counts per class and survives.
//! * `dup-storm` — each frame is, with probability `rate`, delivered
//!   twice (at-least-once delivery). The engine's admission layer
//!   deduplicates by id, so a duplicate storm must leave the assignment
//!   fingerprint byte-identical to the clean run — pinned by test.
//! * `burst` — arrival-time compression: every timestamp is pulled
//!   toward the start of its [`BURST_WINDOW`]-second bucket with
//!   strength `rate` (`rate = 1` collapses whole buckets onto one
//!   instant). No frame is lost or reordered; the warp regroups the Δt
//!   windows and piles tasks up, which is what makes a bounded admission
//!   queue shed.
//!
//! # Shedding policies
//!
//! Independently of injection, `--queue-cap` bounds the engine's task
//! admission queue and a [`ShedPolicy`] decides what gives way when it
//! overflows — see the policy docs and the serve module's degraded-mode
//! section for the retry/expiry semantics.

use crate::algorithm::PipelineError;
use crate::serve::ServeRequest;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;

/// The RNG stream id every fault plan draws from — disjoint from the
/// workload (`0xD1CE_*`) and sweep streams, so injecting faults never
/// perturbs the clean-path noise schedule.
pub const FAULT_STREAM: u64 = 0xFA17_0001;

/// The bucket width, in virtual seconds, the `burst` plan compresses
/// arrival times within.
pub const BURST_WINDOW: f64 = 50.0;

/// Firing probability used when a fault plan is configured without an
/// explicit rate.
pub const DEFAULT_FAULT_RATE: f64 = 0.25;

/// Retry budget for shed submissions under the counting policies
/// (`drop-newest`, `drop-oldest`); the `deadline` policy bounds retries
/// by virtual time instead.
pub const MAX_RETRIES: u32 = 3;

/// Deadline horizon, in Δt windows, granted to every task under the
/// `deadline` policy: a task expires once its next retry would land
/// after `arrival + DEADLINE_WINDOWS * batch_interval`.
pub const DEADLINE_WINDOWS: f64 = 4.0;

/// A named, seedable frame-stream fault model, registered in the
/// [registry](crate::registry()) next to mechanisms, matchers and
/// scenarios.
///
/// A plan rewrites the whole frame script before delivery starts, which is
/// what keeps injection invariant under `--qps` pacing and thread counts:
/// the wire already carries the faults, however slowly it is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// `none`: the identity plan (the default when no `--fault-plan` is
    /// given); `rate` is ignored and the RNG is never drawn from.
    NoFault,
    /// `flaky-wire`: per-frame corruption. Exactly one gate draw per frame
    /// keeps the decision schedule stable; the corruption shape and cut
    /// point draw only when a fault fires.
    FlakyWire,
    /// `dup-storm`: at-least-once delivery — each frame is, with
    /// probability `rate`, delivered twice back to back.
    DupStorm,
    /// `burst`: arrival-time compression. Every decodable frame's
    /// timestamp is pulled toward the start of its [`BURST_WINDOW`] bucket
    /// with strength `rate`; relative order within and across buckets is
    /// preserved, so a time-sorted script stays time-sorted. Draws nothing
    /// from the RNG: the warp is a pure function of `(at, rate)`.
    Burst,
}

impl FaultPlan {
    /// Registry name (lower-case; lookup is case-insensitive).
    pub fn name(self) -> &'static str {
        match self {
            FaultPlan::NoFault => "none",
            FaultPlan::FlakyWire => "flaky-wire",
            FaultPlan::DupStorm => "dup-storm",
            FaultPlan::Burst => "burst",
        }
    }

    /// One-line description for the CLI catalogue.
    pub fn summary(self) -> &'static str {
        match self {
            FaultPlan::NoFault => "identity plan: every frame is delivered exactly as generated",
            FaultPlan::FlakyWire => {
                "corrupts frames in flight: truncation, unknown opcode, lying length prefix"
            }
            FaultPlan::DupStorm => {
                "delivers frames twice at random: at-least-once semantics on the wire"
            }
            FaultPlan::Burst => {
                "compresses arrival times into bursts at bucket starts (overload pressure)"
            }
        }
    }

    /// Rewrites the frame script, returning the delivered frames and the
    /// number of frames the plan touched (corrupted, duplicated or
    /// time-warped). A pure function of `(frames, rate, rng)` and total: a
    /// frame the plan cannot parse passes through verbatim.
    pub fn inject(self, frames: Vec<Bytes>, rate: f64, rng: &mut StdRng) -> (Vec<Bytes>, usize) {
        match self {
            FaultPlan::NoFault => (frames, 0),
            FaultPlan::FlakyWire => flaky_wire(frames, rate, rng),
            FaultPlan::DupStorm => dup_storm(frames, rate, rng),
            FaultPlan::Burst => burst(frames, rate),
        }
    }
}

fn flaky_wire(frames: Vec<Bytes>, rate: f64, rng: &mut StdRng) -> (Vec<Bytes>, usize) {
    let mut injected = 0usize;
    let frames = frames
        .into_iter()
        .map(|frame| {
            if rng.gen::<f64>() >= rate {
                return frame;
            }
            injected += 1;
            let mut raw = frame.to_vec();
            match rng.gen_range(0..3usize) {
                // Truncate at a random byte (possibly to nothing):
                // decodes to a typed "truncated frame" error.
                0 if !raw.is_empty() => {
                    let cut = rng.gen_range(0..raw.len());
                    raw.truncate(cut);
                }
                // Stamp an opcode no decoder knows.
                1 if raw.len() >= 5 => raw[4] = 0xEE,
                // Lie in the length prefix: one byte longer than the
                // payload that actually follows.
                2 if raw.len() >= 5 => {
                    let lie = (raw.len() as u32 - 4) + 1;
                    raw[..4].copy_from_slice(&lie.to_be_bytes());
                }
                // Frames too short to carry an opcode or prefix just
                // vanish entirely — the plan stays total.
                _ => raw.clear(),
            }
            Bytes::from(raw)
        })
        .collect();
    (frames, injected)
}

fn dup_storm(frames: Vec<Bytes>, rate: f64, rng: &mut StdRng) -> (Vec<Bytes>, usize) {
    let mut injected = 0usize;
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let duplicate = rng.gen::<f64>() < rate;
        if duplicate {
            injected += 1;
            out.push(frame.clone());
        }
        out.push(frame);
    }
    (out, injected)
}

fn burst(frames: Vec<Bytes>, rate: f64) -> (Vec<Bytes>, usize) {
    if rate <= 0.0 {
        // Identity strength: skip the decode/re-encode pass outright
        // (f64 `bucket + (at - bucket)` does not round-trip exactly).
        return (frames, 0);
    }
    let warp = |at: f64| {
        let bucket = (at / BURST_WINDOW).floor() * BURST_WINDOW;
        bucket + (at - bucket) * (1.0 - rate)
    };
    let mut injected = 0usize;
    let frames = frames
        .into_iter()
        .map(|frame| {
            let mut cursor = frame.clone();
            let Ok(request) = ServeRequest::decode(&mut cursor) else {
                return frame; // total: unparseable frames pass through
            };
            let warped = match request {
                ServeRequest::CheckIn { worker, at, x, y } => ServeRequest::CheckIn {
                    worker,
                    at: warp(at),
                    x,
                    y,
                },
                ServeRequest::CheckOut { worker, at } => ServeRequest::CheckOut {
                    worker,
                    at: warp(at),
                },
                ServeRequest::Task { task, at, x, y } => ServeRequest::Task {
                    task,
                    at: warp(at),
                    x,
                    y,
                },
                ServeRequest::Shutdown => ServeRequest::Shutdown,
            };
            if warped == request {
                frame
            } else {
                injected += 1;
                warped.encode()
            }
        })
        .collect();
    (frames, injected)
}

/// What gives way when the bounded admission queue overflows.
///
/// All three policies shed at *admission* time (the queue itself never
/// exceeds `--queue-cap`); they differ in which task is shed and what
/// bounds its retries — see [`crate::serve`] for the virtual-time
/// backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// The arriving task is shed; queued work is never disturbed.
    DropNewest,
    /// The oldest queued task is shed to make room for the newcomer.
    DropOldest,
    /// Like `drop-newest` at admission, but a shed task's retries are
    /// bounded by a virtual-time deadline
    /// ([`DEADLINE_WINDOWS`]` × Δt` past its arrival) instead of a
    /// retry count; a task whose next retry would miss the deadline
    /// *expires* — a terminal state the report counts separately from
    /// `shed`.
    Deadline,
}

impl ShedPolicy {
    /// Every registered policy name, in listing order.
    pub const NAMES: [&'static str; 3] = ["drop-newest", "drop-oldest", "deadline"];

    /// Case-insensitive lookup with a listing-rich typed error.
    pub fn parse(name: &str) -> Result<Self, PipelineError> {
        match name.to_ascii_lowercase().as_str() {
            "drop-newest" => Ok(ShedPolicy::DropNewest),
            "drop-oldest" => Ok(ShedPolicy::DropOldest),
            "deadline" => Ok(ShedPolicy::Deadline),
            _ => Err(PipelineError::UnknownEntry {
                kind: "shed policy",
                name: name.to_string(),
                known: Self::NAMES.iter().map(|n| n.to_string()).collect(),
            }),
        }
    }

    /// Registry name.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::DropNewest => "drop-newest",
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::Deadline => "deadline",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::seeded_rng;

    fn script() -> Vec<Bytes> {
        (0..64)
            .map(|i| {
                ServeRequest::Task {
                    task: i,
                    at: i as f64 * 3.0,
                    x: 1.0,
                    y: 2.0,
                }
                .encode()
            })
            .collect()
    }

    #[test]
    fn none_is_the_identity() {
        let frames = script();
        let mut rng = seeded_rng(1, FAULT_STREAM);
        let (out, injected) = FaultPlan::NoFault.inject(frames.clone(), 1.0, &mut rng);
        assert_eq!(out, frames);
        assert_eq!(injected, 0);
    }

    #[test]
    fn injection_is_a_pure_function_of_seed_plan_rate() {
        for plan in [FaultPlan::FlakyWire, FaultPlan::DupStorm, FaultPlan::Burst] {
            let (a, na) = plan.inject(script(), 0.4, &mut seeded_rng(9, FAULT_STREAM));
            let (b, nb) = plan.inject(script(), 0.4, &mut seeded_rng(9, FAULT_STREAM));
            assert_eq!(a, b, "{} must replay byte-identically", plan.name());
            assert_eq!(na, nb);
            assert!(na > 0, "{} at rate 0.4 must fire on 64 frames", plan.name());
            let (_, zero) = plan.inject(script(), 0.0, &mut seeded_rng(9, FAULT_STREAM));
            assert_eq!(zero, 0, "{} at rate 0 must be silent", plan.name());
        }
    }

    #[test]
    fn flaky_wire_corruptions_decode_to_typed_transport_errors() {
        let mut rng = seeded_rng(3, FAULT_STREAM);
        let (frames, injected) = FaultPlan::FlakyWire.inject(script(), 1.0, &mut rng);
        assert_eq!(injected, 64, "rate 1.0 corrupts every frame");
        for mut frame in frames {
            assert!(
                matches!(
                    ServeRequest::decode(&mut frame),
                    Err(PipelineError::Transport { .. })
                ),
                "every flaky-wire shape must be a typed decode error"
            );
        }
    }

    #[test]
    fn dup_storm_preserves_order_and_only_duplicates() {
        let mut rng = seeded_rng(5, FAULT_STREAM);
        let (frames, injected) = FaultPlan::DupStorm.inject(script(), 0.5, &mut rng);
        assert_eq!(frames.len(), 64 + injected);
        // Every frame decodes, and task ids are non-decreasing (order
        // preserved; duplicates adjacent).
        let mut last = 0u64;
        for mut frame in frames {
            let ServeRequest::Task { task, .. } = ServeRequest::decode(&mut frame).unwrap() else {
                panic!("dup-storm never changes frame kinds");
            };
            assert!(task == last || task == last + 1);
            last = task;
        }
    }

    #[test]
    fn burst_compresses_but_never_reorders() {
        let mut rng = seeded_rng(7, FAULT_STREAM);
        let (frames, injected) = FaultPlan::Burst.inject(script(), 1.0, &mut rng);
        assert!(injected > 0);
        let mut previous = f64::NEG_INFINITY;
        for mut frame in frames {
            let ServeRequest::Task { at, .. } = ServeRequest::decode(&mut frame).unwrap() else {
                panic!("burst never changes frame kinds");
            };
            assert!(at >= previous, "time-sorted scripts stay time-sorted");
            assert_eq!(
                at % BURST_WINDOW,
                0.0,
                "rate 1.0 collapses onto bucket starts"
            );
            previous = at;
        }
    }

    #[test]
    fn burst_is_total_over_garbage() {
        let garbage = vec![Bytes::from(vec![0xFFu8; 3])];
        let mut rng = seeded_rng(1, FAULT_STREAM);
        let (out, injected) = FaultPlan::Burst.inject(garbage.clone(), 1.0, &mut rng);
        assert_eq!(out, garbage, "unparseable frames pass through verbatim");
        assert_eq!(injected, 0);
    }

    #[test]
    fn shed_policies_parse_case_insensitively() {
        assert_eq!(
            ShedPolicy::parse("Drop-Newest").unwrap(),
            ShedPolicy::DropNewest
        );
        assert_eq!(
            ShedPolicy::parse("drop-oldest").unwrap(),
            ShedPolicy::DropOldest
        );
        assert_eq!(ShedPolicy::parse("DEADLINE").unwrap(), ShedPolicy::Deadline);
        let err = ShedPolicy::parse("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown shed policy `bogus`") && msg.contains("drop-oldest"),
            "{msg}"
        );
        for name in ShedPolicy::NAMES {
            assert_eq!(ShedPolicy::parse(name).unwrap().name(), name);
        }
    }
}
