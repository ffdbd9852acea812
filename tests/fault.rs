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
//!    never a panic.

use bytes::Bytes;
use pombm::serve::NON_FINITE;
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
