//! Cycle-level simulator of the FQ-BERT FPGA accelerator (paper §III).
//!
//! The hardware the paper builds is modelled at two levels:
//!
//! * **Bit-accurate datapath** — [`bim`] implements the Bit-split
//!   Inner-product Module (M 8b×4b multipliers plus shift-add logic, Type A
//!   and Type B variants) and proves it equal to exact integer arithmetic;
//!   [`pe`] builds the dot-product Processing Element and Processing Unit on
//!   top of it. The softmax and layer-norm cores have no datapath of their
//!   own here: functionally they *are* `fqbert-quant`'s `SoftmaxLut` and
//!   `AddLayerNorm`, and their cycle costs live in [`scheduler`] with every
//!   other stage's.
//! * **Performance / cost models** — [`dataflow`] decomposes one encoder
//!   layer into the stages of Fig. 5, [`scheduler`] overlaps weight streaming
//!   with compute (double-buffered weight buffer), [`cycle_model`] produces
//!   end-to-end latency, and [`resource`] / [`power`] estimate the FPGA
//!   resources and power, calibrated against the paper's Table III/IV.
//!
//! No FPGA is required: the datapath behaviour is exact, and the
//! latency/resource constants are calibrated to the published numbers so the
//! *scaling* across configurations is reproduced (see DESIGN.md for the
//! substitution argument).

pub mod bim;
pub mod config;
pub mod cycle_model;
pub mod dataflow;
pub mod memory;
pub mod pe;
pub mod power;
pub mod resource;
pub mod scheduler;

pub use bim::{Bim, BimType};
pub use config::{AcceleratorConfig, FpgaDevice};
pub use cycle_model::{LatencyBreakdown, LatencyReport};
pub use dataflow::{EncoderStage, StageKind};
pub use memory::{BufferPlan, DdrModel};
pub use pe::{ProcessingElement, ProcessingUnit};
pub use power::PowerModel;
pub use resource::{ResourceEstimate, ResourceModel};
pub use scheduler::{ScheduleTrace, Scheduler, StageTiming};
