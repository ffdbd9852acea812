//! Output checks: pinned digests at the default seed, invariants at every
//! seed, and the count of failed operations against attempted ones.

use crate::workload::{Scale, ServeShape, DEFAULT_SEED};
use pombm::{DynamicRatioReport, ServeOutcome, SweepReport};

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte string, as 16 hex digits.
pub fn fnv1a(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_fold(FNV_OFFSET, bytes))
}

/// One FNV-1a step over `bytes`, for callers digesting several buffers.
pub fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digests of the first timed unit's output (seed `DEFAULT_SEED + 1`): the
/// JSON of sweep grid `i` (`sweep{i}`) without `wall_ms`, the ratio report
/// JSON and the serve report JSON without `latency`. A change that moves
/// any distance, ratio or assignment changes a digest.
const PINNED: &[(&str, Scale, &str, &str)] = &[
    ("tree", Scale::Full, "sweep0", "8814bb84f9b2813f"),
    ("tree", Scale::Full, "ratio", "563149f6bb5cd0c2"),
    ("tree", Scale::Full, "serve", "1ca4c80f0d79a2c1"),
    ("planar", Scale::Full, "sweep0", "b8528aa79b0e7a0f"),
    ("planar", Scale::Full, "sweep1", "9444fa1e76864efb"),
    ("planar", Scale::Full, "ratio", "3359422635e9de60"),
    ("planar", Scale::Full, "serve", "c68cd22c231b62ae"),
    ("tree", Scale::Smoke, "sweep0", "0212506266fa30a3"),
    ("tree", Scale::Smoke, "ratio", "a312576ae4fffb30"),
    ("tree", Scale::Smoke, "serve", "78754463026cb47c"),
    ("planar", Scale::Smoke, "sweep0", "99be3da2da87e954"),
    ("planar", Scale::Smoke, "sweep1", "286d906114c4a848"),
    ("planar", Scale::Smoke, "ratio", "011e1d462d7cf3b6"),
    ("planar", Scale::Smoke, "serve", "cb2676865c4807ce"),
];

/// Tally of one run's checks.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted: sweep cells, ratio calls and serve sessions.
    pub attempted: u64,
    /// Operations that failed: errored cells and calls, sessions that shed
    /// or expired tasks.
    pub failed: u64,
    /// Every check that did not hold.
    pub problems: Vec<String>,
}

impl Ledger {
    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Compares a first-unit digest with its pinned value; other seeds and
    /// units have no pin.
    pub fn digest(&mut self, key: (&str, Scale, &str), seed: u64, unit: u64, json: &str) {
        if seed != DEFAULT_SEED || unit != 1 {
            return;
        }
        let got = fnv1a(json.as_bytes());
        let (workload, scale, op) = key;
        match PINNED
            .iter()
            .find(|p| p.0 == workload && p.1 == scale && p.2 == op)
        {
            Some(p) => self.require(p.3 == got, || {
                format!("{workload}/{op}: output digest {got}, pinned {}", p.3)
            }),
            None => self.problems.push(format!(
                "{workload}/{op} at {scale:?} scale: no pinned digest (got {got})"
            )),
        }
    }

    /// Every cell measured, every per-repetition ratio at least 1.
    pub fn sweep(&mut self, report: &SweepReport, cells: usize) {
        self.attempted += report.cells.len() as u64;
        self.require(report.cells.len() == cells, || {
            format!("sweep: {} cells, expected {cells}", report.cells.len())
        });
        for cell in &report.cells {
            let name = format!("{}+{}@{}", cell.mechanism, cell.matcher, cell.num_tasks);
            match (&cell.report, &cell.error) {
                (Some(r), None) => self.require(r.min_ratio >= 1.0 - 1e-9, || {
                    format!("sweep {name}: ratio {} below 1", r.min_ratio)
                }),
                _ => self.failed += 1,
            }
        }
    }

    /// The oracle accounts for every task; every repetition is measured.
    pub fn ratio(&mut self, report: &DynamicRatioReport, tasks: usize, reps: u64) {
        self.attempted += 1;
        self.require(report.opt_assigned + report.opt_dropped == tasks, || {
            format!(
                "ratio: oracle assigned {} + dropped {} != {tasks} tasks",
                report.opt_assigned, report.opt_dropped
            )
        });
        self.require(report.distances.len() as u64 == reps, || {
            format!(
                "ratio: {} distances for {reps} reps",
                report.distances.len()
            )
        });
        self.require(report.min_ratio >= 1.0 - 1e-9, || {
            format!("ratio: {} below 1", report.min_ratio)
        });
    }

    /// Every frame ingested, every task assigned or dropped, nothing shed.
    pub fn serve(&mut self, outcome: &ServeOutcome, shape: &ServeShape) {
        let r = &outcome.report;
        self.attempted += 1;
        if let Some(f) = &r.faults {
            if f.shed + f.expired > 0 {
                self.failed += 1;
            }
        }
        self.require(r.assigned + r.dropped == shape.tasks, || {
            format!(
                "serve: assigned {} + dropped {} != {} tasks",
                r.assigned, r.dropped, shape.tasks
            )
        });
        self.require(r.requests == shape.requests(), || {
            format!(
                "serve: {} requests, expected {}",
                r.requests,
                shape.requests()
            )
        });
        self.require(r.latency.is_some(), || {
            "serve: no latency percentiles".into()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "af63dc4c8601ec8c");
    }
}
