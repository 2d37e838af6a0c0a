//! The one timing loop behind the plain-`main` benches in `benches/`
//! (`kernel_rows`, `bim`, `accelerator_sweep`).
//!
//! They compare variants within one process (kernel row against kernel row,
//! 8b×4b against 8b×8b); numbers a performance claim rests on come from
//! `benchmark/` (fqbench), not from here. The budget is fixed, so every run
//! of a bench costs the same.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one measurement (after a warm-up of a tenth of it).
const BUDGET: Duration = Duration::from_millis(200);

/// Rounds the budget is split into; the quietest round is reported.
const ROUNDS: u32 = 5;

/// Nanoseconds per call of `routine`: the warm-up sizes a round, each of
/// `ROUNDS` rounds takes the mean over its calls, and the smallest mean
/// wins — a neighbour's burst on a shared host inflates some rounds, never
/// deflates one.
pub fn time_ns<O>(mut routine: impl FnMut() -> O) -> f64 {
    let warm_up = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || warm_up.elapsed() < BUDGET / 10 {
        black_box(routine());
        calls += 1;
    }
    let per_call = warm_up.elapsed() / calls;
    let per_round = ((BUDGET / ROUNDS).as_nanos() / per_call.as_nanos().max(1)).max(1) as u32;
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..per_round {
            black_box(routine());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(per_round));
    }
    best
}
