#![warn(missing_docs)]

//! Geometry and metric-space substrate for the POMBM reproduction.
//!
//! The paper ("Differentially Private Online Task Assignment in Spatial
//! Crowdsourcing: A Tree-based Approach", ICDE 2020) models workers and tasks
//! as points in the Euclidean plane, and builds its tree-based privacy
//! mechanism on a *predefined* finite point set published by the server.
//!
//! This crate provides the shared primitives every other crate builds on:
//!
//! * [`Point`] — a 2-D point with Euclidean distance.
//! * [`Rect`] — an axis-aligned region (the workspace, e.g. the paper's
//!   200 × 200 synthetic space or the 10 km × 10 km Chengdu region).
//! * [`PointSet`] — an indexed finite metric space (the predefined points).
//! * [`Grid`] — a uniform grid of predefined points with O(1) nearest-point
//!   lookup, the canonical way the server publishes predefined points.
//! * [`seeded_rng`] — deterministic RNG construction so every experiment is
//!   reproducible from a seed.

pub mod grid;
pub mod point;
pub mod pointset;
pub mod rect;
pub mod rng;

pub use grid::Grid;
pub use point::Point;
pub use pointset::{PairStats, PointId, PointSet};
pub use rect::Rect;
pub use rng::seeded_rng;
