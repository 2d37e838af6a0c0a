//! Mixed-precision bit-width autotuning for FQ-BERT.
//!
//! The paper fixes one global weight width (4 bits); its accelerator,
//! however, executes every weight width from 2 to 8 — ≤ 4-bit weights on
//! the BIM's native 8b×4b multipliers, wider weights nibble-split at half
//! the MAC rate. That makes the *assignment* of widths to the six matrix
//! sites of every encoder layer a genuine design space: narrower sites
//! stream fewer DMA bytes, wider sites buy back accuracy, and the simulated
//! cycle model prices every choice.
//!
//! This crate searches that space (Q-BERT-style, see PAPERS.md):
//!
//! * [`BitConfig`] — the searchable assignment, CLI-round-trippable as
//!   `448888/444444`.
//! * [`Autotuner`] — pre-quantizes every site at every width once, then
//!   assembles and evaluates candidates cheaply; accuracy on a held-out set
//!   is the constraint, simulated cycles the objective.
//! * [`sensitivity::profile`] — per-site accuracy degradation, the descent
//!   order of the greedy phase.
//! * [`search()`] — greedy descent from uniform w8 plus seeded evolutionary
//!   refinement; returns the feasible optimum and the full accuracy ×
//!   cycles Pareto front.
//!
//! The winning model is a standard [`fqbert_runtime::ModelArtifact`] (the
//! v2 format already stores per-linear widths), so it loads and serves
//! through the existing engine and registry unchanged.

pub mod config;
pub mod error;
pub mod search;
pub mod sensitivity;
pub mod tuner;

pub use config::BitConfig;
pub use error::{AutotuneError, Result};
pub use search::{pareto_front, search, SearchOutcome, SearchSettings};
pub use sensitivity::{SensitivityReport, SiteSensitivity};
pub use tuner::{Autotuner, Candidate, CycleOracle, SEARCH_WIDTHS};
