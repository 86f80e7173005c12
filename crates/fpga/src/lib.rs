//! FPGA hardware modelling for the E-RNN reproduction.
//!
//! The paper's Phase II (Sec. VII) maps a block-circulant RNN onto an FPGA:
//! processing elements (PEs) built from FFT units and multipliers
//! (Fig. 10), compute units (CUs) with three coarse-grained pipeline
//! stages and double buffers (Figs. 11/12), fixed-point datapaths and
//! piecewise-linear activations. Physical boards are not available here,
//! so this crate reproduces the *arithmetic* that generated Table III:
//!
//! * [`Device`] — the two platforms of Table IV with their DSP/BRAM/LUT/FF
//!   budgets and process nodes.
//! * [`PeDesign`] — per-PE resource and throughput model; the number of
//!   PEs follows the paper's `#PE = min(⌊DSP/ΔDSP⌋, ⌊LUT/ΔLUT⌋)`.
//! * [`Accelerator`] — the CU-level model: per-CGPipe-stage cycle counts,
//!   frame latency, pipelined throughput (FPS), and resource utilization.
//! * [`sim`] — a cycle-level event simulation of the 3-stage pipeline with
//!   double buffering, cross-checked against the closed-form model.
//! * [`power`] — a resource-based power model calibrated against the
//!   paper's wall-power measurements (ESE 41 W, E-RNN 22–29 W).
//! * [`exec`] — functional fixed-point execution of a compressed network
//!   (quantized weights + PWL activations), the accuracy oracle Phase II
//!   uses for quantization decisions.
//! * [`artifact`] — the versioned [`ModelArtifact`]: a quantized model
//!   plus its datapath, platform and design provenance, byte-serialized
//!   deterministically so the serving tier can load it without
//!   retraining, and the pipeline-wide [`PipelineError`] type.
//! * [`baseline`] — hardware models of ESE (sparse, irregular) and C-LSTM
//!   (circulant without E-RNN's PE optimizations) for the Table III
//!   comparison.
//! * [`fault`] — deterministic, seeded device-fault schedules
//!   ([`FaultPlan`]) and their per-run form ([`FaultTimeline`]: one
//!   record per planned fault, whose cursor yields each [`FaultEffect`]
//!   once), the data model behind the serving tier's chaos testing and
//!   failover.
//! * [`transfer`] — the inter-node transfer-latency model
//!   ([`TransferModel`]): the cluster tier's analogue of the BRAM
//!   weight-streaming charge, pricing request forwarding and artifact
//!   replication in virtual microseconds.
//!
//! Absolute watts and microseconds are calibrated approximations (the
//! authors measured real boards); the quantities the reproduction relies
//! on are the *ratios* between designs, which come from counted work and
//! resource budgets rather than calibration.

#![forbid(unsafe_code)]

mod accelerator;
pub mod artifact;
pub mod baseline;
mod device;
pub mod exec;
pub mod fault;
mod pe;
pub mod power;
pub mod sim;
pub mod transfer;

pub use accelerator::{AccelReport, Accelerator, HwCell, RnnSpec, StageCycles, RESOURCE_BUDGET};
pub use artifact::{ModelArtifact, PipelineError};
pub use device::{Device, ADM_PCIE_7V3, KNOWN_DEVICES, XCKU060};
pub use fault::{DeviceFault, FaultEffect, FaultEvent, FaultHit, FaultPlan, FaultTimeline};
pub use pe::PeDesign;
pub use transfer::TransferModel;
