//! HLS-style design automation (paper Sec. VIII-A2, Fig. 13).
//!
//! The paper's framework converts a high-level RNN description into an
//! FPGA implementation through four components: a template generator, a
//! graph generator that unrolls the computation into a directed acyclic
//! operation graph (with the `c_t`/`y_t` feedback edges removed — the
//! double buffers carry them), an operation scheduler that maximizes
//! throughput under resource constraints, and a code generator feeding a
//! commercial synthesis backend. This crate reproduces the first three in
//! full and emits C-like source text in place of the vendor backend:
//!
//! * [`OpGraph`] / [`graph_for_spec`] — dependency graphs of primitive
//!   operations (`FFT → element-wise multiply → accumulate → IFFT`,
//!   point-wise arithmetic, activations).
//! * [`Schedule`] / [`schedule`] — critical-path list scheduling under a
//!   [`ResourcePool`], with per-resource occupancy reporting.
//! * [`generate_code`] — C-like source for the scheduled design, built
//!   from the operation templates.

#![forbid(unsafe_code)]

mod codegen;
mod graph;
mod scheduler;

pub use codegen::{generate_code, generate_report};
pub use graph::{graph_for_spec, OpGraph, OpKind, OpNode};
pub use scheduler::{schedule, ResourcePool, Schedule};
