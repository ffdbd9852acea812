//! Correctness harness for the deterministic-chaos layer
//! (`pombm::fault` + the serve engine's bounded admission queue):
//!
//! 1. transport totality — proptest that `ServeRequest::decode` is total
//!    over arbitrary byte strings (never panics, every non-frame input is
//!    a typed `Transport` error), including hostile length prefixes up to
//!    `u32::MAX`;
//! 2. shedding invariants — for every policy, the queue never exceeds
//!    `queue_cap`, `submitted == assigned + dropped + shed + expired`,
//!    and the whole report is byte-identical across `--threads 1` vs auto
//!    and `--qps 0` vs 4000 while a fault plan is actively firing;
//! 3. absorption — `none` plans, oversized caps and duplicate storms all
//!    leave the assignment fingerprint identical to the clean run;
//! 4. config validation — every chaos misconfiguration is a typed error;
//! 5. non-finite frame fields — NaN and ±∞ timestamps or coordinates are
//!    one typed `Transport` class under every registered dynamic matcher,
//!    never a panic;
//! 6. window range — a timestamp whose Δt window index is negative or
//!    past `u64` is one typed `Transport` class, never clamped into a
//!    window;
//! 7. the codec against a cursor reference — proptests that `encode`
//!    writes, and `decode` reads and consumes, exactly what the
//!    `Buf`/`BufMut` cursor codec does, on arbitrary bytes, on runs of
//!    valid frames with a damaged tail, and on every `f64` bit pattern.

use bytes::{Buf, Bytes};
use pombm::serve::{NON_FINITE, WINDOW_RANGE};
use pombm::{registry, run_serve, serve_frames, PipelineError, ServeConfig, ServeRequest};
use proptest::prelude::*;

fn chaos(seed: u64) -> ServeConfig {
    ServeConfig {
        num_tasks: 120,
        num_workers: 90,
        seed,
        ..ServeConfig::default()
    }
}

// --- transport totality -------------------------------------------------

proptest! {
    /// `decode` over arbitrary bytes: never panics, and anything that is
    /// not a well-formed frame is a typed `Transport` error. A successful
    /// decode must have consumed a canonical frame — re-encoding
    /// reproduces the consumed prefix bit-for-bit.
    #[test]
    fn decode_is_total_over_arbitrary_bytes(
        raw in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let mut frame = Bytes::from(raw.clone());
        match ServeRequest::decode(&mut frame) {
            Ok(request) => {
                let encoded = request.encode();
                prop_assert!(raw.len() >= encoded.len());
                prop_assert_eq!(&raw[..encoded.len()], &encoded[..]);
            }
            Err(PipelineError::Transport { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("non-transport error: {other}")));
            }
        }
    }

    /// Hostile length prefixes — all the way to `u32::MAX` — never panic
    /// or over-read: a prefix longer than the bytes that follow is the
    /// typed truncation error.
    #[test]
    fn decode_survives_hostile_length_prefixes(
        len in 0u32..=u32::MAX,
        body in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut raw = len.to_be_bytes().to_vec();
        raw.extend_from_slice(&body);
        let mut frame = Bytes::from(raw);
        match ServeRequest::decode(&mut frame) {
            Ok(_) => prop_assert!((len as usize) <= body.len()),
            Err(PipelineError::Transport { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("non-transport error: {other}")));
            }
        }
    }
}

#[test]
fn maximal_length_prefix_is_a_typed_truncation() {
    let mut raw = u32::MAX.to_be_bytes().to_vec();
    raw.push(0x01);
    assert!(matches!(
        ServeRequest::decode(&mut Bytes::from(raw)),
        Err(PipelineError::Transport { why }) if why.contains("shorter than its length prefix")
    ));
}

// --- shedding invariants ------------------------------------------------

/// For every policy: the bounded queue never exceeds its cap, every
/// submitted task ends in exactly one terminal state, the retry budget
/// semantics match the policy, and the full report (fault block included)
/// is byte-identical across QPS pacing and thread counts while the
/// `burst` plan compresses arrivals hard enough to force real shedding.
#[test]
fn shedding_invariants_hold_for_every_policy() {
    for policy in ["drop-newest", "drop-oldest", "deadline"] {
        let base = ServeConfig {
            batch_interval: 50.0,
            fault_plan: Some("burst".into()),
            fault_rate: Some(0.9),
            queue_cap: Some(2),
            shed_policy: Some(policy.into()),
            ..chaos(7)
        };
        let outcome = run_serve(&base).unwrap();
        let report = &outcome.report;
        let faults = report.faults.as_ref().expect("chaos is configured");
        assert!(
            report.peak_queue_depth <= 2,
            "{policy}: queue depth {} exceeded the cap",
            report.peak_queue_depth
        );
        assert_eq!(
            faults.submitted,
            report.assigned + report.dropped + faults.shed + faults.expired,
            "{policy}: every submitted task must end assigned, dropped, shed or expired"
        );
        assert!(
            faults.shed + faults.expired > 0,
            "{policy}: the compressed workload must actually overflow cap 2"
        );
        assert!(faults.retried > 0, "{policy}: shed tasks must retry first");
        match policy {
            // Deadline expiry is the only terminal state of that policy...
            "deadline" => assert_eq!(faults.shed, 0, "deadline tasks expire, not shed"),
            // ...and the counting policies never expire anything.
            _ => assert_eq!(faults.expired, 0, "{policy} never expires"),
        }
        assert!(faults.injected > 0, "burst at rate 0.9 must warp arrivals");

        let paced = run_serve(&ServeConfig {
            qps: 4000.0,
            threads: 0,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(
            serde_json::to_string(report).unwrap(),
            serde_json::to_string(&paced.report).unwrap(),
            "{policy}: faulted reports must be byte-identical across qps/threads"
        );
    }
}

/// The three policies are genuinely different schedules: under pressure
/// they must not all collapse to the same assignment sequence.
#[test]
fn policies_produce_distinct_schedules_under_pressure() {
    let fingerprint = |policy: &str| {
        run_serve(&ServeConfig {
            batch_interval: 50.0,
            fault_plan: Some("burst".into()),
            fault_rate: Some(0.9),
            queue_cap: Some(2),
            shed_policy: Some(policy.into()),
            ..chaos(7)
        })
        .unwrap()
        .report
        .assignment_fingerprint
    };
    let newest = fingerprint("drop-newest");
    let oldest = fingerprint("drop-oldest");
    assert_ne!(
        newest, oldest,
        "drop-newest and drop-oldest must shed different tasks"
    );
}

// --- absorption: chaos that must not change the artifact ----------------

#[test]
fn none_plan_and_oversized_cap_do_not_perturb_the_artifact() {
    let clean = run_serve(&chaos(7)).unwrap();
    assert!(clean.report.faults.is_none(), "clean runs skip the block");

    let none = run_serve(&ServeConfig {
        fault_plan: Some("none".into()),
        ..chaos(7)
    })
    .unwrap();
    assert_eq!(
        none.report.assignment_fingerprint,
        clean.report.assignment_fingerprint
    );
    let faults = none.report.faults.expect("configured chaos reports zeros");
    assert_eq!(faults.plan.as_deref(), Some("none"));
    assert_eq!(
        (faults.injected, faults.corrupt, faults.shed, faults.expired),
        (0, 0, 0, 0)
    );
    assert_eq!(faults.submitted, none.report.assigned + none.report.dropped);

    let capped = run_serve(&ServeConfig {
        queue_cap: Some(10_000),
        ..chaos(7)
    })
    .unwrap();
    assert_eq!(
        capped.report.assignment_fingerprint, clean.report.assignment_fingerprint,
        "a cap that never binds must change nothing"
    );
    let faults = capped.report.faults.expect("cap is configured chaos");
    assert_eq!(faults.queue_cap, Some(10_000));
    assert_eq!(faults.shed_policy.as_deref(), Some("drop-newest"));
    assert_eq!(faults.shed + faults.retried + faults.expired, 0);
}

/// At-least-once delivery is invisible: the dedup layer absorbs every
/// duplicate, so a duplicate storm keeps the clean fingerprint while the
/// report counts what it survived.
#[test]
fn dup_storm_is_fully_absorbed_by_admission_dedup() {
    let clean = run_serve(&chaos(7)).unwrap();
    let stormed = run_serve(&ServeConfig {
        fault_plan: Some("dup-storm".into()),
        fault_rate: Some(0.5),
        ..chaos(7)
    })
    .unwrap();
    assert_eq!(
        stormed.report.assignment_fingerprint,
        clean.report.assignment_fingerprint
    );
    assert_eq!(stormed.assignments, clean.assignments);
    let faults = stormed.report.faults.expect("storm is configured");
    assert!(faults.injected > 0, "rate 0.5 must duplicate something");
    assert!(
        faults.duplicates > 0,
        "dedup must have absorbed check-ins/tasks"
    );
    assert!(
        stormed.report.requests > clean.report.requests,
        "duplicates still count as ingested requests"
    );
}

// --- config validation --------------------------------------------------

#[test]
fn chaos_misconfigurations_are_typed_errors() {
    assert!(matches!(
        run_serve(&ServeConfig {
            fault_rate: Some(0.5),
            ..chaos(0)
        }),
        Err(PipelineError::InvalidConfig {
            field: "fault-rate",
            ..
        })
    ));
    for rate in [-0.1, 1.5, f64::NAN] {
        assert!(matches!(
            run_serve(&ServeConfig {
                fault_plan: Some("flaky-wire".into()),
                fault_rate: Some(rate),
                ..chaos(0)
            }),
            Err(PipelineError::InvalidConfig {
                field: "fault-rate",
                ..
            })
        ));
    }
    assert!(matches!(
        run_serve(&ServeConfig {
            queue_cap: Some(0),
            ..chaos(0)
        }),
        Err(PipelineError::InvalidConfig {
            field: "queue-cap",
            ..
        })
    ));
    assert!(matches!(
        run_serve(&ServeConfig {
            shed_policy: Some("drop-oldest".into()),
            ..chaos(0)
        }),
        Err(PipelineError::InvalidConfig {
            field: "shed-policy",
            ..
        })
    ));
    assert!(matches!(
        run_serve(&ServeConfig {
            fault_plan: Some("bogus".into()),
            ..chaos(0)
        }),
        Err(PipelineError::UnknownEntry {
            kind: "fault plan",
            ..
        })
    ));
    assert!(matches!(
        run_serve(&ServeConfig {
            queue_cap: Some(4),
            shed_policy: Some("bogus".into()),
            ..chaos(0)
        }),
        Err(PipelineError::UnknownEntry {
            kind: "shed policy",
            ..
        })
    ));
}

// --- non-finite frame fields ---------------------------------------------

/// A NaN or infinite `at`, `x` or `y` is rejected at decode as the
/// [`NON_FINITE`] Transport class — before any window, mechanism or pool
/// sees it — so no frame can panic a session, whatever the pairing. The
/// intact frames around the bad ones are still served.
#[test]
fn non_finite_fields_are_a_typed_transport_class_for_every_matcher() {
    let bad = [
        ServeRequest::CheckIn {
            worker: 10,
            at: 1.0,
            x: f64::NAN,
            y: 50.0,
        },
        ServeRequest::CheckIn {
            worker: 11,
            at: 1.0,
            x: 50.0,
            y: f64::INFINITY,
        },
        ServeRequest::CheckIn {
            worker: 12,
            at: f64::NAN,
            x: 50.0,
            y: 50.0,
        },
        ServeRequest::CheckOut {
            worker: 0,
            at: f64::NEG_INFINITY,
        },
        ServeRequest::Task {
            task: 7,
            at: 2.0,
            x: f64::NEG_INFINITY,
            y: 50.0,
        },
        ServeRequest::Task {
            task: 8,
            at: f64::INFINITY,
            x: 50.0,
            y: 50.0,
        },
        ServeRequest::Task {
            task: 9,
            at: 2.0,
            x: 50.0,
            y: f64::NAN,
        },
    ];
    for request in bad {
        assert_eq!(
            ServeRequest::decode(&mut request.encode()),
            Err(PipelineError::Transport { why: NON_FINITE }),
            "{request:?}"
        );
    }
    let mut frames = vec![ServeRequest::CheckIn {
        worker: 0,
        at: 0.5,
        x: 40.0,
        y: 60.0,
    }
    .encode()];
    frames.extend(bad.iter().map(ServeRequest::encode));
    frames.push(
        ServeRequest::Task {
            task: 1,
            at: 3.0,
            x: 45.0,
            y: 55.0,
        }
        .encode(),
    );
    frames.push(ServeRequest::Shutdown.encode());
    for mechanism in ["identity", "laplace", "hst", "exp"] {
        for matcher in registry().dynamic_matchers() {
            let config = ServeConfig {
                mechanism: mechanism.into(),
                matcher: matcher.name().into(),
                ..chaos(3)
            };
            let label = format!("{mechanism} x {}", matcher.name());
            let outcome =
                serve_frames(&config, frames.clone()).unwrap_or_else(|e| panic!("{label}: {e}"));
            let faults = outcome
                .report
                .faults
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: corrupt frames force the block"));
            assert_eq!(faults.corrupt, bad.len(), "{label}");
            assert_eq!(
                faults.corrupt_classes.get(NON_FINITE),
                Some(&bad.len()),
                "{label}: {:?}",
                faults.corrupt_classes
            );
            assert_eq!(outcome.assignments, [(1, Some(0))], "{label}");
        }
    }
}

// --- window range -------------------------------------------------------

/// A frame whose window index `⌊at/Δt⌋` is negative, or at least 2⁶⁴ at
/// a tiny Δt, is skipped as the [`WINDOW_RANGE`] Transport class. A
/// saturating cast would clamp it into window 0 or `u64::MAX` instead,
/// where it would be served with frames from another time.
#[test]
fn out_of_range_windows_are_a_typed_transport_class() {
    let task = |task, at| {
        ServeRequest::Task {
            task,
            at,
            x: 45.0,
            y: 55.0,
        }
        .encode()
    };
    // (Δt, the in-range task's time, the out-of-range task's time)
    for (batch_interval, good_at, bad_at) in [(5.0, 3.0, -1.0), (1e-300, 0.0, 1.0)] {
        let frames = vec![
            ServeRequest::CheckIn {
                worker: 0,
                at: 0.0,
                x: 40.0,
                y: 60.0,
            }
            .encode(),
            task(7, bad_at),
            task(1, good_at),
            ServeRequest::Shutdown.encode(),
        ];
        let config = ServeConfig {
            batch_interval,
            ..chaos(3)
        };
        let label = format!("Δt {batch_interval}, at {bad_at}");
        let outcome = serve_frames(&config, frames).unwrap_or_else(|e| panic!("{label}: {e}"));
        let faults = outcome
            .report
            .faults
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: a skipped frame forces the block"));
        assert_eq!(faults.corrupt, 1, "{label}");
        assert_eq!(
            faults.corrupt_classes.get(WINDOW_RANGE),
            Some(&1),
            "{label}: {:?}",
            faults.corrupt_classes
        );
        assert_eq!(outcome.report.requests, 2, "{label}");
        assert_eq!(outcome.report.batches, 1, "{label}");
        assert_eq!(outcome.assignments, [(1, Some(0))], "{label}");
    }
}

// --- the codec against the cursor reference -------------------------------

/// The frame codec as a `Buf`/`BufMut` cursor: each field is put or got in
/// turn, and decoding consumes what it reads. `ServeRequest` reads and
/// writes whole slices; these functions hold it to the same bytes, the same
/// results and the same consumption.
mod cursor {
    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use pombm::serve::NON_FINITE;
    use pombm::{PipelineError, ServeRequest};

    const OP_CHECK_IN: u8 = 0x01;
    const OP_CHECK_OUT: u8 = 0x02;
    const OP_TASK: u8 = 0x03;
    const OP_SHUTDOWN: u8 = 0x04;

    const CHECK_IN_BODY: usize = 32;
    const CHECK_OUT_BODY: usize = 16;
    const TASK_BODY: usize = 32;
    const SHUTDOWN_BODY: usize = 0;

    pub fn encode(request: &ServeRequest) -> Bytes {
        let (opcode, body) = match request {
            ServeRequest::CheckIn { .. } => (OP_CHECK_IN, CHECK_IN_BODY),
            ServeRequest::CheckOut { .. } => (OP_CHECK_OUT, CHECK_OUT_BODY),
            ServeRequest::Task { .. } => (OP_TASK, TASK_BODY),
            ServeRequest::Shutdown => (OP_SHUTDOWN, SHUTDOWN_BODY),
        };
        let mut frame = BytesMut::with_capacity(4 + 1 + body);
        frame.put_u32(1 + body as u32);
        frame.put_u8(opcode);
        match *request {
            ServeRequest::CheckIn {
                worker: id,
                at,
                x,
                y,
            }
            | ServeRequest::Task { task: id, at, x, y } => {
                frame.put_u64(id);
                frame.put_f64(at);
                frame.put_f64(x);
                frame.put_f64(y);
            }
            ServeRequest::CheckOut { worker, at } => {
                frame.put_u64(worker);
                frame.put_f64(at);
            }
            ServeRequest::Shutdown => {}
        }
        frame.freeze()
    }

    pub fn decode(buf: &mut Bytes) -> Result<ServeRequest, PipelineError> {
        let request = decode_fields(buf)?;
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

    fn decode_fields(buf: &mut Bytes) -> Result<ServeRequest, PipelineError> {
        let transport = |why| Err(PipelineError::Transport { why });
        if buf.remaining() < 4 {
            return transport("truncated frame: missing length prefix");
        }
        let len = buf.get_u32() as usize;
        if buf.remaining() < len {
            return transport("truncated frame: payload shorter than its length prefix");
        }
        if len == 0 {
            return transport("empty payload: a frame needs at least an opcode");
        }
        let opcode = buf.get_u8();
        let body = len - 1;
        match opcode {
            OP_CHECK_IN if body == CHECK_IN_BODY => Ok(ServeRequest::CheckIn {
                worker: buf.get_u64(),
                at: buf.get_f64(),
                x: buf.get_f64(),
                y: buf.get_f64(),
            }),
            OP_CHECK_OUT if body == CHECK_OUT_BODY => Ok(ServeRequest::CheckOut {
                worker: buf.get_u64(),
                at: buf.get_f64(),
            }),
            OP_TASK if body == TASK_BODY => Ok(ServeRequest::Task {
                task: buf.get_u64(),
                at: buf.get_f64(),
                x: buf.get_f64(),
                y: buf.get_f64(),
            }),
            OP_SHUTDOWN if body == SHUTDOWN_BODY => Ok(ServeRequest::Shutdown),
            OP_CHECK_IN | OP_CHECK_OUT | OP_TASK | OP_SHUTDOWN => {
                transport("length prefix does not match the opcode's body size")
            }
            _ => transport("unknown opcode"),
        }
    }
}

/// Any `f64` bit pattern: uniform bits, and far more often than uniform
/// bits would give them, NaNs with any payload and sign, signed zeros and
/// subnormals, and infinities.
fn f64_bits() -> impl Strategy<Value = f64> {
    (0u8..4, 0u64..=u64::MAX).prop_map(|(class, bits)| {
        let (sign, mantissa) = (bits & (1 << 63), bits & ((1 << 52) - 1));
        f64::from_bits(match class {
            0 => bits,
            1 => sign | 0x7FF0_0000_0000_0000 | mantissa.max(1),
            2 => sign | mantissa >> (bits % 53),
            _ => sign | 0x7FF0_0000_0000_0000,
        })
    })
}

/// Any request, with any `u64` id and any bit pattern in its `f64` fields.
fn request() -> impl Strategy<Value = ServeRequest> {
    (
        0u8..4,
        0u64..=u64::MAX,
        proptest::array::uniform3(f64_bits()),
    )
        .prop_map(|(kind, id, [at, x, y])| match kind {
            0 => ServeRequest::CheckIn {
                worker: id,
                at,
                x,
                y,
            },
            1 => ServeRequest::CheckOut { worker: id, at },
            2 => ServeRequest::Task { task: id, at, x, y },
            _ => ServeRequest::Shutdown,
        })
}

/// A damaged frame: a length prefix up to 40, which covers every body
/// size, an opcode byte up to 7, and up to 48 arbitrary bytes, so short,
/// empty, mismatched and unknown-opcode frames all occur.
fn damaged_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        0u32..=40,
        0u8..=7,
        proptest::collection::vec(0u8..=255, 0..48),
    )
        .prop_map(|(len, opcode, rest)| {
            let mut frame = len.to_be_bytes().to_vec();
            frame.push(opcode);
            frame.extend(rest);
            frame
        })
}

/// A decode result with its request as the cursor codec's bytes, so that
/// equal results carry equal `f64` bits.
fn as_frame(decoded: Result<ServeRequest, PipelineError>) -> Result<Bytes, PipelineError> {
    decoded.map(|request| cursor::encode(&request))
}

proptest! {
    /// Decoding one frame after another, `decode` returns what the cursor
    /// codec returns (the same request or the same Transport class) and
    /// leaves as many bytes behind: on arbitrary bytes, and on one to four
    /// valid frames followed by a damaged one.
    #[test]
    fn decode_matches_the_cursor_codec(
        raw in proptest::collection::vec(0u8..=255, 0..128),
        frames in proptest::collection::vec(request(), 1..5),
        tail in damaged_frame(),
    ) {
        let mut stream: Vec<u8> = frames.iter().flat_map(|r| cursor::encode(r).to_vec()).collect();
        stream.extend(tail);
        for bytes in [raw, stream] {
            let (mut ours, mut reference) = (Bytes::from(bytes.clone()), Bytes::from(bytes));
            loop {
                let before = ours.remaining();
                prop_assert_eq!(
                    as_frame(ServeRequest::decode(&mut ours)),
                    as_frame(cursor::decode(&mut reference))
                );
                prop_assert_eq!(ours.remaining(), reference.remaining());
                if ours.remaining() == 0 || ours.remaining() == before {
                    break;
                }
            }
        }
    }

    /// `encode` writes the cursor codec's bytes for any id and any `f64`
    /// bit pattern, NaN payloads included.
    #[test]
    fn encode_matches_the_cursor_codec(
        requests in proptest::collection::vec(request(), 1..32),
    ) {
        for request in requests {
            prop_assert_eq!(request.encode(), cursor::encode(&request), "{:?}", request);
        }
    }
}
