//! Correctness harness for `pombm serve` (the resident micro-batched
//! matching service) and the batched pool operations it drives:
//!
//! 1. frame protocol — encode/decode roundtrips and typed decode errors
//!    for every corruption shape (truncation at each byte, unknown
//!    opcode, length/opcode mismatch, empty payload);
//! 2. determinism contract — the assignment sequence is a pure function
//!    of `(seed, plan, batch_interval)`: identical across QPS settings
//!    and thread counts, pinned by golden fingerprints, and sensitive to
//!    Δt (the window schedule is part of the artifact's identity);
//! 3. batched pools — proptest that `insert_batch` on every registered
//!    dynamic matcher is observation-equivalent to the same sequence of
//!    single inserts (assignments, availability, tie-stream draws) at
//!    batch sizes {1, 2, 7, 64}, and that `assign_batch` is the
//!    sequential drain;
//! 4. report shape — JSON field names pinned, `latency` absent (not
//!    `null`) without `--timings`.

use bytes::{Buf, Bytes};
use pombm::serve::assignment_fingerprint;
use pombm::{
    registry, run_serve, serve_frames, PipelineError, Report, ServeConfig, ServeRequest, Server,
};
use pombm_geom::seeded_rng;
use pombm_workload::{synthetic, SyntheticParams};
use proptest::prelude::*;
use rand::Rng;

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        num_tasks: 120,
        num_workers: 90,
        seed,
        ..ServeConfig::default()
    }
}

// --- frame protocol ----------------------------------------------------

#[test]
fn frames_roundtrip() {
    let requests = [
        ServeRequest::CheckIn {
            worker: 42,
            at: 17.25,
            x: -3.5,
            y: 1e9,
        },
        ServeRequest::CheckOut {
            worker: u64::MAX,
            at: 0.0,
        },
        ServeRequest::Task {
            task: 7,
            at: 999.875,
            x: 0.1,
            y: -0.1,
        },
        ServeRequest::Shutdown,
    ];
    for request in requests {
        let mut frame = request.encode();
        assert_eq!(ServeRequest::decode(&mut frame).unwrap(), request);
        assert_eq!(frame.remaining(), 0, "decode consumes the whole frame");
    }
    // Frames are self-delimiting: a stream of concatenated frames decodes
    // request by request.
    let mut stream = Vec::new();
    for request in requests {
        stream.extend_from_slice(&request.encode());
    }
    let mut stream = Bytes::from(stream);
    for request in requests {
        assert_eq!(ServeRequest::decode(&mut stream).unwrap(), request);
    }
    assert_eq!(stream.remaining(), 0);
}

#[test]
fn corrupt_frames_are_typed_errors() {
    let whole = ServeRequest::CheckIn {
        worker: 1,
        at: 2.0,
        x: 3.0,
        y: 4.0,
    }
    .encode();
    // Every possible truncation point, including an empty buffer.
    for cut in 0..whole.len() {
        let mut frame = whole.slice(..cut);
        assert!(
            matches!(
                ServeRequest::decode(&mut frame),
                Err(PipelineError::Transport { .. })
            ),
            "cut at {cut} must be a typed transport error"
        );
    }
    // Unknown opcode.
    let mut bad = whole.to_vec();
    bad[4] = 0x7F;
    assert!(matches!(
        ServeRequest::decode(&mut Bytes::from(bad)),
        Err(PipelineError::Transport { .. })
    ));
    // Length/opcode mismatch: a CHECK_OUT length prefix on a CHECK_IN body.
    let mut bad = whole.to_vec();
    bad[..4].copy_from_slice(&17u32.to_be_bytes());
    assert!(matches!(
        ServeRequest::decode(&mut Bytes::from(bad)),
        Err(PipelineError::Transport { .. })
    ));
    // Zero-length payload: a frame needs at least an opcode.
    assert!(matches!(
        ServeRequest::decode(&mut Bytes::from(0u32.to_be_bytes().to_vec())),
        Err(PipelineError::Transport { .. })
    ));
    // Transport errors render with the serve prefix.
    let message = format!(
        "{}",
        ServeRequest::decode(&mut Bytes::default()).unwrap_err()
    );
    assert!(message.starts_with("serve transport: "), "{message}");
}

// --- determinism contract ----------------------------------------------

/// QPS paces wall-clock delivery, never assignments: a throttled replay
/// is byte-identical (assignments *and* report JSON) to an unthrottled
/// one.
#[test]
fn qps_never_affects_assignments() {
    let unthrottled = run_serve(&config(7)).unwrap();
    let throttled = run_serve(&ServeConfig {
        qps: 4000.0,
        ..config(7)
    })
    .unwrap();
    assert_eq!(unthrottled.assignments, throttled.assignments);
    assert_eq!(
        serde_json::to_string(&unthrottled.report).unwrap(),
        serde_json::to_string(&throttled.report).unwrap()
    );
}

/// `threads` trades wall-clock for cores inside the per-window
/// `report_batch` calls — never results.
#[test]
fn threads_never_affect_assignments() {
    let scalar = run_serve(&ServeConfig {
        threads: 1,
        ..config(13)
    })
    .unwrap();
    let auto = run_serve(&ServeConfig {
        threads: 0,
        ..config(13)
    })
    .unwrap();
    assert_eq!(scalar.assignments, auto.assignments);
    assert_eq!(
        serde_json::to_string(&scalar.report).unwrap(),
        serde_json::to_string(&auto.report).unwrap()
    );
}

/// Δt is part of the artifact's identity: regrouping the same timeline
/// into different windows changes the obfuscation draw schedule, so the
/// fingerprints must differ (if they ever collide, the window schedule
/// has silently stopped feeding the RNG streams).
#[test]
fn batch_interval_is_part_of_the_identity() {
    let fine = run_serve(&ServeConfig {
        batch_interval: 1.0,
        ..config(7)
    })
    .unwrap();
    let coarse = run_serve(&ServeConfig {
        batch_interval: 50.0,
        ..config(7)
    })
    .unwrap();
    assert_ne!(
        fine.report.assignment_fingerprint,
        coarse.report.assignment_fingerprint
    );
    // Same timeline either way: every task drains exactly once.
    assert_eq!(fine.assignments.len(), coarse.assignments.len());
    assert!(coarse.report.batches < fine.report.batches);
}

/// Golden fingerprints, one per (mechanism, matcher, plan, Δt) spread —
/// any change to the serve RNG schedule, the window phases, the pool
/// batch ops or the timeline builder shows up here. Recorded from the
/// first build of the serve engine.
#[test]
fn golden_serve_fingerprints() {
    const GOLDEN: &[(&str, &str, &str, f64, u64, &str)] = &[
        ("hst", "hst-greedy", "short", 5.0, 7, "0d19dffdf87154b3"),
        ("laplace", "kd-rebuild", "long", 2.5, 11, "d081d332bb24889e"),
        ("blind", "random", "always-on", 10.0, 3, "c8d3e8cbeacb255e"),
        (
            "identity",
            "hst-greedy",
            "short",
            0.5,
            7,
            "3d767fe963d7016b",
        ),
    ];
    for &(mechanism, matcher, plan, batch_interval, seed, expected) in GOLDEN {
        let outcome = run_serve(&ServeConfig {
            mechanism: mechanism.into(),
            matcher: matcher.into(),
            plan: plan.into(),
            batch_interval,
            ..config(seed)
        })
        .unwrap();
        assert_eq!(
            outcome.report.assignment_fingerprint, expected,
            "{mechanism}+{matcher}+{plan} Δt={batch_interval} seed={seed}"
        );
        // The published fingerprint is the digest of the raw sequence.
        assert_eq!(
            assignment_fingerprint(&outcome.assignments),
            outcome.report.assignment_fingerprint
        );
        // Every generated task is accounted for: assigned or dropped.
        assert_eq!(
            outcome.report.assigned + outcome.report.dropped,
            outcome.assignments.len()
        );
    }
}

/// `max_requests` bounds the generator (the shutdown frame still follows
/// and drains the buffered tail), and the bounded prefix replays
/// deterministically.
#[test]
fn bounded_replay_is_deterministic() {
    let bounded = run_serve(&ServeConfig {
        max_requests: Some(100),
        ..config(7)
    })
    .unwrap();
    assert_eq!(bounded.report.requests, 100);
    let again = run_serve(&ServeConfig {
        max_requests: Some(100),
        ..config(7)
    })
    .unwrap();
    assert_eq!(bounded.assignments, again.assignments);
    let full = run_serve(&config(7)).unwrap();
    assert!(full.report.requests > 100);
}

#[test]
fn degenerate_configs_are_rejected() {
    for batch_interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            run_serve(&ServeConfig {
                batch_interval,
                ..config(0)
            }),
            Err(PipelineError::InvalidConfig {
                field: "batch-interval",
                ..
            })
        ));
    }
    // 1e-300 is finite and positive, but its pause 1/qps overflows a
    // `Duration`; both entry points reject it before any session starts.
    for qps in [-1.0, f64::NAN, f64::INFINITY, 1e-300] {
        assert!(matches!(
            run_serve(&ServeConfig { qps, ..config(0) }),
            Err(PipelineError::InvalidConfig { field: "qps", .. })
        ));
        assert!(matches!(
            serve_frames(&ServeConfig { qps, ..config(0) }, Vec::new()),
            Err(PipelineError::InvalidConfig { field: "qps", .. })
        ));
    }
    assert!(matches!(
        run_serve(&ServeConfig {
            mechanism: "bogus".into(),
            ..config(0)
        }),
        Err(PipelineError::UnknownEntry { .. })
    ));
    assert!(matches!(
        run_serve(&ServeConfig {
            matcher: "bogus".into(),
            ..config(0)
        }),
        Err(PipelineError::UnknownEntry { .. })
    ));
}

#[test]
fn zero_grid_side_is_a_typed_error_for_both_entry_points() {
    for (mechanism, matcher) in [("hst", "hst-greedy"), ("laplace", "kd-rebuild")] {
        let config = ServeConfig {
            mechanism: mechanism.into(),
            matcher: matcher.into(),
            grid_side: 0,
            ..config(0)
        };
        for outcome in [run_serve(&config), serve_frames(&config, Vec::new())] {
            assert!(
                matches!(
                    outcome,
                    Err(PipelineError::InvalidConfig {
                        field: "grid_side",
                        ..
                    })
                ),
                "{mechanism} x {matcher}"
            );
        }
    }
}

#[test]
fn non_positive_or_non_finite_epsilon_is_a_typed_error_before_any_thread() {
    for epsilon in [0.0, -0.5, f64::NAN, f64::INFINITY] {
        let config = ServeConfig {
            epsilon,
            ..config(0)
        };
        for outcome in [run_serve(&config), serve_frames(&config, Vec::new())] {
            assert!(
                matches!(
                    outcome,
                    Err(PipelineError::InvalidConfig {
                        field: "epsilon",
                        ..
                    })
                ),
                "epsilon {epsilon}"
            );
        }
    }
}

// --- report shape ------------------------------------------------------

/// The report's JSON field names and their order are a public contract —
/// CI's serve-smoke golden byte-compares against them.
#[test]
fn report_field_names_are_pinned() {
    let outcome = run_serve(&config(1)).unwrap();
    let json = serde_json::to_string(&outcome.report).unwrap();
    let expected_keys = [
        "mechanism",
        "matcher",
        "plan",
        "num_tasks",
        "num_workers",
        "epsilon",
        "seed",
        "batch_interval",
        "requests",
        "batches",
        "assigned",
        "dropped",
        "assignment_rate",
        "drop_rate",
        "total_distance",
        "peak_queue_depth",
        "mean_queue_depth",
        "assignment_fingerprint",
    ];
    for key in expected_keys {
        assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
    }
    assert!(
        !json.contains("latency"),
        "latency must be absent — not null — without --timings"
    );
    assert!(
        !json.contains("faults"),
        "clean runs must omit the faults block entirely, keeping \
         pre-chaos goldens byte-identical"
    );
}

/// `--timings` adds wall-clock percentiles without perturbing any
/// deterministic field.
#[test]
fn timings_add_latency_without_perturbing_the_artifact() {
    let timed = run_serve(&ServeConfig {
        timings: true,
        ..config(7)
    })
    .unwrap();
    let untimed = run_serve(&config(7)).unwrap();
    let latency = timed.report.latency.expect("timings record latency");
    assert!(latency.p50_ms <= latency.p95_ms);
    assert!(latency.p95_ms <= latency.p99_ms);
    assert!(latency.p99_ms <= latency.max_ms);
    assert!(latency.p50_ms >= 0.0);
    assert_eq!(timed.assignments, untimed.assignments);
    assert_eq!(
        timed.report.assignment_fingerprint,
        untimed.report.assignment_fingerprint
    );
}

// --- degraded mode (fault injection & overload) ------------------------

/// Golden fingerprints for *faulted* sessions — chaos is part of the
/// artifact's identity: every corruption, duplicate, warp, shed and
/// retry is a pure function of `(seed, plan, rate)`, so these pins hold
/// across QPS pacing and thread counts exactly like the clean goldens.
/// Recorded from the first build of the fault layer. Note `dup-storm`
/// pins the *clean* `hst+hst-greedy` fingerprint: admission dedup must
/// absorb at-least-once delivery without a trace in the assignments.
#[test]
fn golden_faulted_fingerprints() {
    struct FaultedGolden {
        plan: &'static str,
        rate: f64,
        batch_interval: f64,
        queue_cap: Option<usize>,
        shed_policy: Option<&'static str>,
        expected: &'static str,
    }
    const GOLDEN: &[FaultedGolden] = &[
        FaultedGolden {
            plan: "flaky-wire",
            rate: 0.3,
            batch_interval: 50.0,
            queue_cap: Some(2),
            shed_policy: Some("drop-oldest"),
            expected: "af1e7809bc6e4a72",
        },
        FaultedGolden {
            plan: "burst",
            rate: 0.9,
            batch_interval: 5.0,
            queue_cap: Some(3),
            shed_policy: Some("deadline"),
            expected: "4e624ea36521cb28",
        },
        FaultedGolden {
            plan: "dup-storm",
            rate: 0.5,
            batch_interval: 5.0,
            queue_cap: None,
            shed_policy: None,
            expected: "0d19dffdf87154b3",
        },
    ];
    for golden in GOLDEN {
        let make = |qps: f64, threads: usize| {
            run_serve(&ServeConfig {
                batch_interval: golden.batch_interval,
                fault_plan: Some(golden.plan.into()),
                fault_rate: Some(golden.rate),
                queue_cap: golden.queue_cap,
                shed_policy: golden.shed_policy.map(Into::into),
                qps,
                threads,
                ..config(7)
            })
            .unwrap()
        };
        let outcome = make(0.0, 1);
        assert_eq!(
            outcome.report.assignment_fingerprint, golden.expected,
            "{} rate={} Δt={}",
            golden.plan, golden.rate, golden.batch_interval
        );
        // Chaos must survive pacing and parallelism byte-for-byte.
        let paced = make(4000.0, 0);
        assert_eq!(
            serde_json::to_string(&outcome.report).unwrap(),
            serde_json::to_string(&paced.report).unwrap(),
            "{}: faulted report drifted across qps/threads",
            golden.plan
        );
    }
}

/// The faults block's JSON field names are a public contract — CI's
/// chaos-smoke golden byte-compares against them.
#[test]
fn faulted_report_field_names_are_pinned() {
    let outcome = run_serve(&ServeConfig {
        batch_interval: 50.0,
        fault_plan: Some("flaky-wire".into()),
        fault_rate: Some(0.3),
        queue_cap: Some(2),
        shed_policy: Some("drop-oldest".into()),
        ..config(7)
    })
    .unwrap();
    let json = serde_json::to_string(&outcome.report).unwrap();
    let expected_keys = [
        "faults",
        "plan",
        "rate",
        "queue_cap",
        "shed_policy",
        "injected",
        "corrupt",
        "corrupt_classes",
        "duplicates",
        "submitted",
        "shed",
        "retried",
        "expired",
    ];
    for key in expected_keys {
        assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
    }
    let faults = outcome.report.faults.expect("chaos is configured");
    assert!(faults.corrupt > 0, "rate 0.3 must corrupt something");
    assert!(faults.shed > 0, "cap 2 at Δt=50 must shed something");
}

/// A frame script that dies mid-session — truncated frame followed by
/// hangup, never a Shutdown — still yields a well-formed report: the
/// corruption and the hangup are each counted under their Transport
/// class and every buffered window is drained.
#[test]
fn truncated_stream_still_yields_a_well_formed_report() {
    let mut frames = vec![
        ServeRequest::CheckIn {
            worker: 1,
            at: 0.5,
            x: 10.0,
            y: 10.0,
        }
        .encode(),
        ServeRequest::CheckIn {
            worker: 2,
            at: 0.7,
            x: 900.0,
            y: 900.0,
        }
        .encode(),
        ServeRequest::Task {
            task: 100,
            at: 1.0,
            x: 11.0,
            y: 11.0,
        }
        .encode(),
    ];
    // A frame cut off mid-payload, then the stream simply ends: no
    // Shutdown ever arrives.
    let truncated = ServeRequest::Task {
        task: 101,
        at: 1.5,
        x: 12.0,
        y: 12.0,
    }
    .encode();
    frames.push(truncated.slice(0..10));

    let outcome = serve_frames(&config(7), frames).unwrap();
    let report = &outcome.report;
    assert_eq!(report.assigned, 1, "the intact task must still be served");
    assert_eq!(report.requests, 3, "three frames decoded");
    let faults = report
        .faults
        .as_ref()
        .expect("transport damage forces the block");
    assert_eq!(faults.corrupt, 2, "one truncation + one hangup");
    assert!(
        faults
            .corrupt_classes
            .keys()
            .any(|class| class.contains("shorter than its length prefix")),
        "truncation class recorded: {:?}",
        faults.corrupt_classes
    );
    assert_eq!(
        faults.corrupt_classes.get(pombm::serve::CHANNEL_CLOSED),
        Some(&1),
        "hangup without Shutdown is the typed channel-closed Transport class"
    );
    // The report is still serializable and internally consistent.
    let json = serde_json::to_string(report).unwrap();
    assert!(json.contains("\"faults\":"));
    assert_eq!(report.assigned + report.dropped, outcome.assignments.len());
}

/// The hangup class is a typed `Transport` variant with a stable message,
/// so transport failures are matchable, not stringly.
#[test]
fn channel_closed_is_a_typed_transport_error() {
    let error = PipelineError::Transport {
        why: pombm::serve::CHANNEL_CLOSED,
    };
    assert_eq!(error.to_string(), "serve transport: channel closed");
}

// --- batched pools (satellite: insert_batch ≡ single inserts) ----------

proptest! {
    /// For every registered dynamic matcher, feeding a worker cohort
    /// through `insert_batch` in chunks of {1, 2, 7, 64} is
    /// observation-equivalent to the same sequence of single inserts:
    /// identical assignments, availability, and tie-stream consumption.
    #[test]
    fn insert_batch_equals_single_inserts(seed in 0u64..400) {
        let params = SyntheticParams {
            num_tasks: 40,
            num_workers: 48,
            ..SyntheticParams::default()
        };
        let instance = synthetic::generate(&params, &mut seeded_rng(seed, 0xBA7C));
        let server = Server::new(instance.region, 16, seed ^ 0xBA7C);
        for matcher in registry().dynamic_matchers() {
            for &batch_size in &[1usize, 2, 7, 64] {
                let workers: Vec<(u64, Report)> = instance
                    .workers
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (i as u64, Report::Planar(p)))
                    .collect();
                let mut batched = matcher.pool(Some(&server)).unwrap();
                for chunk in workers.chunks(batch_size) {
                    batched.insert_batch(chunk.to_vec()).unwrap();
                }
                let mut single = matcher.pool(Some(&server)).unwrap();
                for (id, report) in workers {
                    single.insert(id, report).unwrap();
                }
                prop_assert_eq!(batched.available(), single.available());
                let mut tie_a = seeded_rng(seed, 0x7E1);
                let mut tie_b = seeded_rng(seed, 0x7E1);
                for task in &instance.tasks {
                    let a = batched.assign(Report::Planar(*task), &mut tie_a).unwrap();
                    let b = single.assign(Report::Planar(*task), &mut tie_b).unwrap();
                    prop_assert_eq!(a, b, "matcher {} batch {}", matcher.name(), batch_size);
                    prop_assert_eq!(batched.available(), single.available());
                }
                // Equal tie-stream consumption: the next draw matches.
                prop_assert_eq!(tie_a.gen::<u64>(), tie_b.gen::<u64>());
            }
        }
    }

    /// `assign_batch` is the sequential in-order drain, including tie
    /// draws — the default body *is* the contract.
    #[test]
    fn assign_batch_equals_sequential_assigns(seed in 0u64..400) {
        let params = SyntheticParams {
            num_tasks: 30,
            num_workers: 20, // fewer workers than tasks: drops occur
            ..SyntheticParams::default()
        };
        let instance = synthetic::generate(&params, &mut seeded_rng(seed, 0xBA7D));
        let server = Server::new(instance.region, 16, seed ^ 0xBA7D);
        for matcher in registry().dynamic_matchers() {
            let workers: Vec<(u64, Report)> = instance
                .workers
                .iter()
                .enumerate()
                .map(|(i, &p)| (i as u64, Report::Planar(p)))
                .collect();
            let tasks: Vec<Report> =
                instance.tasks.iter().map(|&p| Report::Planar(p)).collect();
            let mut batched = matcher.pool(Some(&server)).unwrap();
            batched.insert_batch(workers.clone()).unwrap();
            let mut single = matcher.pool(Some(&server)).unwrap();
            single.insert_batch(workers).unwrap();
            let mut tie_a = seeded_rng(seed, 0x7E2);
            let mut tie_b = seeded_rng(seed, 0x7E2);
            let drained = batched.assign_batch(tasks.clone(), &mut tie_a).unwrap();
            let sequential: Vec<Option<u64>> = tasks
                .into_iter()
                .map(|t| single.assign(t, &mut tie_b).unwrap())
                .collect();
            prop_assert_eq!(drained, sequential, "matcher {}", matcher.name());
            prop_assert_eq!(tie_a.gen::<u64>(), tie_b.gen::<u64>());
        }
    }
}
