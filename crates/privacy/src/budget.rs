//! Privacy-budget accounting across repeated reports.
//!
//! Geo-Indistinguishability composes like differential privacy: a user who
//! reports their (perturbed) location `k` times at budget ε per report has
//! spent `k·ε` against any adversary correlating the reports (sequential
//! composition). The paper treats a single assignment round; a deployed
//! system re-reports as workers move, so budget accounting is the piece an
//! operator must add. This module provides a small, thread-safe ledger:
//! each participant gets a lifetime budget, every obfuscation *charges* the
//! ledger first, and exhausted participants are refused before any data
//! leaves the device.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Why a charge was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetError {
    /// The requested ε would exceed the participant's remaining budget.
    Exhausted {
        /// Budget still available.
        remaining: f64,
        /// Budget that was requested.
        requested: f64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Exhausted {
                remaining,
                requested,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A thread-safe per-participant privacy-budget ledger.
///
/// The ledger is a `BTreeMap` so that [`BudgetLedger::total_spent`] sums
/// in participant-id order: float addition is not associative, so a
/// hash-ordered sum would change in the last bits from run to run.
#[derive(Debug)]
pub struct BudgetLedger {
    lifetime: f64,
    spent: Mutex<BTreeMap<u64, f64>>,
}

impl BudgetLedger {
    /// Creates a ledger granting every participant the same lifetime budget.
    ///
    /// # Panics
    ///
    /// Panics unless `lifetime` is positive and finite.
    pub fn new(lifetime: f64) -> Self {
        assert!(
            lifetime.is_finite() && lifetime > 0.0,
            "lifetime budget must be positive, got {lifetime}"
        );
        BudgetLedger {
            lifetime,
            spent: Mutex::new(BTreeMap::new()),
        }
    }

    /// The lifetime budget per participant.
    pub fn lifetime(&self) -> f64 {
        self.lifetime
    }

    /// Remaining budget of a participant (full for unknown ids).
    pub fn remaining(&self, participant: u64) -> f64 {
        let spent = self.spent.lock();
        (self.lifetime - spent.get(&participant).copied().unwrap_or(0.0)).max(0.0)
    }

    /// Atomically charges `epsilon` against a participant's budget.
    ///
    /// Either the whole charge is recorded (and `Ok` returned) or nothing is
    /// (so a refused report can be retried later at lower ε).
    pub fn charge(&self, participant: u64, epsilon: f64) -> Result<(), BudgetError> {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "charge must be positive, got {epsilon}"
        );
        let mut spent = self.spent.lock();
        let used = spent.entry(participant).or_insert(0.0);
        let remaining = self.lifetime - *used;
        // A small relative tolerance keeps k charges of lifetime/k from
        // failing on the last one through floating-point drift.
        if epsilon > remaining + self.lifetime * 1e-12 {
            return Err(BudgetError::Exhausted {
                remaining: remaining.max(0.0),
                requested: epsilon,
            });
        }
        *used += epsilon;
        Ok(())
    }

    /// Total budget spent across all participants (an operator-side gauge).
    pub fn total_spent(&self) -> f64 {
        self.spent.lock().values().fold(0.0, |sum, e| sum + e)
    }

    /// Number of participants that have spent anything.
    pub fn active_participants(&self) -> usize {
        self.spent.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_participants_have_full_budget() {
        let ledger = BudgetLedger::new(1.0);
        assert_eq!(ledger.remaining(7), 1.0);
        assert_eq!(ledger.active_participants(), 0);
    }

    #[test]
    fn charges_accumulate_and_exhaust() {
        let ledger = BudgetLedger::new(1.0);
        assert!(ledger.charge(1, 0.4).is_ok());
        assert!(ledger.charge(1, 0.4).is_ok());
        assert!((ledger.remaining(1) - 0.2).abs() < 1e-12);
        let err = ledger.charge(1, 0.4).unwrap_err();
        match err {
            BudgetError::Exhausted {
                remaining,
                requested,
            } => {
                assert!((remaining - 0.2).abs() < 1e-12);
                assert_eq!(requested, 0.4);
            }
        }
        // The refused charge spent nothing.
        assert!((ledger.remaining(1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exactly_k_equal_charges_fit() {
        let ledger = BudgetLedger::new(1.0);
        for _ in 0..10 {
            ledger.charge(3, 0.1).expect("10 x 0.1 fits in 1.0");
        }
        assert!(ledger.charge(3, 0.1).is_err());
    }

    #[test]
    fn participants_are_independent() {
        let ledger = BudgetLedger::new(0.5);
        ledger.charge(1, 0.5).unwrap();
        assert!(ledger.charge(2, 0.5).is_ok());
        assert_eq!(ledger.active_participants(), 2);
        assert_eq!(ledger.total_spent(), 1.0);
    }

    #[test]
    fn concurrent_charges_never_overspend() {
        use std::sync::Arc;
        let ledger = Arc::new(BudgetLedger::new(1.0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ledger = Arc::clone(&ledger);
            handles.push(std::thread::spawn(move || {
                let mut granted = 0u32;
                for _ in 0..100 {
                    if ledger.charge(42, 0.01).is_ok() {
                        granted += 1;
                    }
                }
                granted
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "exactly 1.0/0.01 charges may succeed");
        assert!(ledger.remaining(42) < 1e-9);
    }

    #[test]
    fn error_displays() {
        let e = BudgetError::Exhausted {
            remaining: 0.1,
            requested: 0.5,
        };
        assert!(e.to_string().contains("0.5"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lifetime_rejected() {
        let _ = BudgetLedger::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_charge_rejected() {
        let ledger = BudgetLedger::new(1.0);
        let _ = ledger.charge(0, -0.1);
    }
}
