//! Shared experiment pipeline for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper;
//! the common machinery (synthetic-data generation, float training, QAT
//! fine-tuning, report formatting) lives here so the binaries stay thin and
//! the experiments stay consistent with each other.
//!
//! Set the environment variable `FQBERT_QUICK=1` to run every experiment in a
//! reduced configuration (smaller datasets, fewer epochs) — useful for smoke
//! tests and CI.
//!
//! Two further things live here because this package holds all of their
//! callers: [`platforms`], the CPU/GPU/FPGA models behind Table IV, and
//! [`time_ns`], the fixed-budget timing loop of the three plain-`main` benches
//! in `benches/` (`kernel_rows`, `bim`, `accelerator_sweep`). Performance
//! *claims* are measured by `benchmark/` (fqbench), not by those benches.

// The three files of the former `fqbert-perf` crate, moved verbatim and kept
// at the crate root so their unit tests keep their names; `platforms` below
// is their public face.
mod baseline;
mod compare;
mod fpga;
pub mod pipeline;
pub mod report;
mod timer;

/// Platform performance models and the CPU/GPU/FPGA comparison (Table IV).
///
/// The paper compares its accelerator against an Intel Core i7-8700 CPU and
/// an NVIDIA K80 GPU running the float model with batch size 1 at sequence
/// length 128. Neither device is available here, so both are modelled with
/// roofline-style analytical models whose effective-efficiency constants are
/// calibrated to the published latencies; their power figures are taken
/// directly from the paper. The FPGA column comes from the cycle-level
/// simulator in `fqbert-accel`.
pub mod platforms {
    pub use crate::baseline::{cpu_i7_8700, gpu_k80, DeviceModel};
    pub use crate::compare::{comparison_table, PlatformResult};
    pub use crate::fpga::FpgaPlatform;
}

pub use fqbert_telemetry::json::Json;
pub use pipeline::{ExperimentConfig, TrainedTask};
pub use report::{markdown_table, save_json, save_json_in, ToJson};
pub use timer::time_ns;
