#![warn(missing_docs)]

//! Workload generation for the POMBM experiments.
//!
//! Two generators cover everything the paper's evaluation consumes:
//!
//! * [`synthetic`] — the Table II synthetic workloads: tasks and workers
//!   drawn from Normal distributions in a 200 × 200 space, with sweeps over
//!   `|T|`, `|W|`, µ, σ, ε and joint scalability sizes.
//! * [`chengdu`] — a stand-in for the Didi GAIA Chengdu trip data (Table
//!   III), which is not redistributable: a seeded hotspot-mixture city model
//!   over a 10 km × 10 km region producing 30 "days" of 4,245–5,034 task
//!   origins each. It keeps what the compared algorithms react to:
//!   clustered demand, day-to-day variation and workers spread more evenly
//!   than demand.
//!
//! Both produce [`Instance`]s: plain task/worker coordinate lists (plus
//! optional reachable radii for the case study) with a deterministic arrival
//! order.

pub mod chengdu;
pub mod instance;
pub mod params;
pub mod shifts;
pub mod synthetic;

pub use instance::{Instance, InstanceError};
pub use params::{RealParams, SyntheticParams};
