//! Machine performance model for the WISE reproduction.
//!
//! The paper's evaluation runs on a 2-socket, 24-core Intel Xeon Gold
//! 6126 (Skylake) — hardware this reproduction does not have. Per the
//! substitution rule in DESIGN.md, this crate models that machine and
//! produces *deterministic* execution-time estimates for every
//! `{matrix, method-config}` pair. The estimates drive label generation
//! for model training and every figure of the evaluation; a wall-clock
//! backend ([`estimator::Estimator::Measured`]) remains available for
//! validating the model's orderings on real hardware.
//!
//! The model captures exactly the effects the paper identifies as
//! performance-determining:
//!
//! * **traffic** — matrix, output and input-vector bytes from DRAM or
//!   LLC, with input-vector locality from one O(1)-per-access LRU stack
//!   pass ([`lru`]) over each layout's actual access stream (so CFS,
//!   segmentation and σ/RFS reordering genuinely change the estimate);
//! * **padding** — vectorized methods pay compute and traffic for the
//!   zeros SELLPACK-style packing introduces;
//! * **scheduling** — per-chunk costs are folded over the Dyn/St/StCont
//!   assignment (list-scheduling simulation for Dyn), reproducing load
//!   imbalance under skew ([`sched_sim`]);
//! * **machine** — cache capacities, bandwidths and vector widths are
//!   explicit ([`machine::MachineModel`]), with the paper's Skylake as
//!   a preset and a proportionally scaled variant for quick-scale
//!   corpora.

pub mod calibrate;
pub mod cost;
pub mod estimator;
pub mod lru;
pub mod machine;
pub mod sched_sim;

pub use calibrate::{
    calibrate_margin_threshold, calibrate_to_host, CalibrationReport, MarginSample,
};
pub use cost::{estimate_preprocessing_seconds, estimate_spmv_seconds, CostBreakdown};
pub use estimator::{Estimator, QuickBounds};
pub use machine::MachineModel;
