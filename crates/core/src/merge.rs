//! Byte-exact reassembly of partitioned sweep runs.
//!
//! [`crate::sweep::run_sweep_partition`] splits a sweep's job-index space
//! across processes; [`merge`] is the other half of that contract. One
//! generic merge serves every flavour (the partials' [`FlavorReport`] type
//! picks it): it validates that the partials belong together and cover
//! the space exactly, then reassembles the cells in job-index order into
//! the report a single-process [`crate::sweep::run_sweep`] would have
//! produced, **byte-identical** once serialized. Per-cell `wall_ms`
//! columns (`--timings`) are machine-dependent, so the merge strips them.
//!
//! Partials are outside input (files handed to `pombm merge`), so every
//! inconsistency is a typed [`MergeError`], never a panic. A set merges
//! only if it is non-empty, every partial carries the expected flavour tag
//! and the same config [fingerprint](crate::sweep::sweep_fingerprint) and
//! metadata (`total_jobs`, `seed`, `repetitions` / `horizon`), and the
//! covered ranges tile the job space: inside it (checked arithmetic, so a
//! hostile `start` cannot wrap), never twice ([`MergeError::Overlap`]),
//! none missed ([`MergeError::Gap`]). Coverage is checked over the sorted
//! ranges, so a hostile `total_jobs` costs no allocation.

use crate::sweep::{FlavorReport, Partial};

/// Why a partial set cannot be merged. Every variant names the offending
/// partial (by position in the input list) or job index, so a failed
/// fleet-scale merge is diagnosable without re-running anything.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The input list was empty.
    NoPartials,
    /// A partial's flavour tag is not the one being merged (e.g. a
    /// dynamic partial in a static merge, or mixed files).
    WrongFlavor {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// The flavour expected by the merge being attempted.
        expected: &'static str,
        /// The flavour the partial carries.
        found: String,
    },
    /// A partial was produced by a different configuration.
    FingerprintMismatch {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// Fingerprint of the first partial (the reference).
        expected: String,
        /// Fingerprint the offending partial carries.
        found: String,
    },
    /// Shared metadata disagrees despite matching fingerprints (a
    /// hand-edited or corrupted partial).
    MetadataMismatch {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// Which field disagrees (`total_jobs`, `seed`, ...).
        field: &'static str,
    },
    /// A partial's covered range runs past the job space.
    OutOfBounds {
        /// Position of the offending partial in the input list.
        partial: usize,
        /// End of the partial's covered range.
        end: usize,
        /// Size of the job space.
        total: usize,
    },
    /// Two partials both cover this job index.
    Overlap {
        /// The doubly-covered global job index.
        job: usize,
    },
    /// No partial covers this job index.
    Gap {
        /// The uncovered global job index.
        job: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoPartials => write!(f, "nothing to merge: no partial reports given"),
            MergeError::WrongFlavor {
                partial,
                expected,
                found,
            } => write!(
                f,
                "partial #{partial} is a `{found}` report, expected `{expected}` \
                 (static and dynamic sweeps cannot be merged together)"
            ),
            MergeError::FingerprintMismatch {
                partial,
                expected,
                found,
            } => write!(
                f,
                "partial #{partial} was produced by a different configuration: \
                 fingerprint {found}, expected {expected}"
            ),
            MergeError::MetadataMismatch { partial, field } => write!(
                f,
                "partial #{partial} disagrees on `{field}` despite a matching fingerprint"
            ),
            MergeError::OutOfBounds {
                partial,
                end,
                total,
            } => write!(
                f,
                "partial #{partial} covers indices up to {end} but the job space has \
                 only {total} jobs"
            ),
            MergeError::Overlap { job } => {
                write!(f, "job index {job} is covered by more than one partial")
            }
            MergeError::Gap { job } => write!(
                f,
                "job index {job} is covered by no partial: the set is not a full partition"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges a disjoint, fully covering set of partials (in any order) into
/// the report a single-process run of the same configuration would
/// produce, stripping machine-dependent `wall_ms` columns. Serializing the
/// result yields byte-identical JSON to `pombm sweep --json` without
/// `--timings`.
pub fn merge<R: FlavorReport>(partials: &[Partial<R>]) -> Result<R, MergeError> {
    let first = partials.first().ok_or(MergeError::NoPartials)?;
    let total = first.total_jobs;
    // Non-empty covered ranges, tagged with their partial's position.
    let mut ranges = Vec::with_capacity(partials.len());
    for (i, partial) in partials.iter().enumerate() {
        if partial.flavor != R::FLAVOR {
            return Err(MergeError::WrongFlavor {
                partial: i,
                expected: R::FLAVOR,
                found: partial.flavor.clone(),
            });
        }
        if partial.fingerprint != first.fingerprint {
            return Err(MergeError::FingerprintMismatch {
                partial: i,
                expected: first.fingerprint.clone(),
                found: partial.fingerprint.clone(),
            });
        }
        if partial.total_jobs != total {
            return Err(MergeError::MetadataMismatch {
                partial: i,
                field: "total_jobs",
            });
        }
        if let Some(field) = first.report.mismatch(&partial.report) {
            return Err(MergeError::MetadataMismatch { partial: i, field });
        }
        let len = partial.report.cells().len();
        let end = partial
            .start
            .checked_add(len)
            .filter(|&end| end <= total)
            .ok_or(MergeError::OutOfBounds {
                partial: i,
                end: partial.start.saturating_add(len),
                total,
            })?;
        if len > 0 {
            ranges.push((partial.start..end, i));
        }
    }
    ranges.sort_by_key(|(range, _)| range.start);
    // Sorted by start, the ranges are disjoint iff every neighbouring pair
    // is; a later range starting inside an earlier one double-covers its
    // first job.
    for pair in ranges.windows(2) {
        if pair[1].0.start < pair[0].0.end {
            return Err(MergeError::Overlap {
                job: pair[1].0.start,
            });
        }
    }
    // Disjoint sorted ranges cover `0..total` iff they tile it.
    let mut next = 0;
    for (range, _) in &ranges {
        if range.start != next {
            return Err(MergeError::Gap { job: next });
        }
        next = range.end;
    }
    if next != total {
        return Err(MergeError::Gap { job: next });
    }
    let cells = ranges
        .iter()
        .flat_map(|&(_, i)| partials[i].report.cells())
        .map(|cell| {
            let mut cell = cell.clone();
            R::clear_wall_ms(&mut cell);
            cell
        })
        .collect();
    Ok(first.report.with_cells(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::sweep::{
        run_sweep, run_sweep_range, sweep_job_count, PartitionPlan, SweepConfig, SweepReport,
    };

    fn config() -> SweepConfig {
        SweepConfig {
            mechanisms: vec!["identity".into()],
            matchers: vec!["greedy".into(), "offline-opt".into()],
            scenarios: Vec::new(),
            sizes: vec![8, 10],
            epsilons: vec![0.6],
            repetitions: 1,
            shards: 2,
            timings: false,
            base: PipelineConfig {
                grid_side: 16,
                seed: 4,
                ..PipelineConfig::default()
            },
        }
    }

    #[test]
    fn balanced_partitions_reassemble_the_full_report() {
        let config = config();
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        let total = sweep_job_count(&config).unwrap();
        for n in [1usize, 2, 3, 4] {
            let partials: Vec<_> = (1..=n)
                .map(|i| {
                    let plan = PartitionPlan::new(i, n).unwrap();
                    run_sweep_range(&config, plan.slice(total)).unwrap()
                })
                .collect();
            let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
            assert_eq!(full, merged, "n = {n}");
        }
    }

    #[test]
    fn merge_accepts_partials_in_any_order() {
        let config = config();
        let total = sweep_job_count(&config).unwrap();
        let mut partials: Vec<_> = (1..=3usize)
            .map(|i| {
                let plan = PartitionPlan::new(i, 3).unwrap();
                run_sweep_range(&config, plan.slice(total)).unwrap()
            })
            .collect();
        partials.reverse();
        let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        assert_eq!(full, merged);
    }

    #[test]
    fn empty_overlapping_and_gappy_sets_are_typed_errors() {
        let config = config();
        let total = sweep_job_count(&config).unwrap();
        assert_eq!(
            merge::<SweepReport>(&[]).unwrap_err(),
            MergeError::NoPartials
        );

        let a = run_sweep_range(&config, 0..total).unwrap();
        let b = run_sweep_range(&config, 1..2).unwrap();
        assert_eq!(
            merge(&[a.clone(), b]).unwrap_err(),
            MergeError::Overlap { job: 1 }
        );

        let head = run_sweep_range(&config, 0..total - 1).unwrap();
        assert_eq!(
            merge(&[head]).unwrap_err(),
            MergeError::Gap { job: total - 1 }
        );

        let mut reseeded = config.clone();
        reseeded.base.seed = 5;
        let other = run_sweep_range(&reseeded, 0..1).unwrap();
        assert!(matches!(
            merge(&[a.clone(), other]),
            Err(MergeError::FingerprintMismatch { partial: 1, .. })
        ));

        let mut wrong = a.clone();
        wrong.flavor = "dynamic".into();
        assert!(matches!(
            merge(&[wrong]),
            Err(MergeError::WrongFlavor { partial: 0, .. })
        ));

        let head = run_sweep_range(&config, 0..2).unwrap();
        let mut tail = run_sweep_range(&config, 2..total).unwrap();
        tail.report.seed = 99; // hand-edited: fingerprint still matches
        assert_eq!(
            merge(&[head, tail]).unwrap_err(),
            MergeError::MetadataMismatch {
                partial: 1,
                field: "seed"
            }
        );

        // Hand-edited partials: a `start` whose `start + len` would wrap,
        // and a `total_jobs` no slot vector could be allocated for.
        let mut wrapping = a.clone();
        wrapping.start = usize::MAX;
        assert_eq!(
            merge(&[wrapping]).unwrap_err(),
            MergeError::OutOfBounds {
                partial: 0,
                end: usize::MAX,
                total
            }
        );
        let mut huge = a.clone();
        huge.total_jobs = usize::MAX;
        assert_eq!(merge(&[huge]).unwrap_err(), MergeError::Gap { job: total });

        let mut oob = a;
        oob.start = 1;
        assert!(matches!(
            merge(&[oob]),
            Err(MergeError::OutOfBounds { partial: 0, .. })
        ));
    }
}
