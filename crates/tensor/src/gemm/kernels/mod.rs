//! Micro-kernel dispatch: one process-wide selection of the kernel row the
//! integer forward pass runs on.
//!
//! A row names its product engine ([`Products`]). On the tile engine every
//! kernel computes the same `MR × NR` accumulator tile update from an
//! activation block and a weight panel — `i16` k-pairs against wide panels,
//! byte k-quads against biased-nibble panels (see the `gemm` module docs
//! for the layouts) — and is **bit-identical** to the scalar reference:
//! absent `i32` overflow — excluded by the `MAX_K` pack bound — integer
//! accumulation is exact in any order, so lane-parallel SIMD sums equal the
//! sequential reduction bit for bit; the AMX engine's tile products are
//! exact by the same argument. The cross-kernel property tests in
//! `tests/proptest_gemm.rs` pin this for every row the host can run.
//! Panels are built once and never depend on the kernel: [`force`] switches
//! rows over panels that already exist, so every row reads the one layout.
//!
//! A row also carries the four element-wise stages that run on the
//! products' output: the requantize epilogue, `Add & LN`
//! ([`AddNormKernel`], the accelerator's 3-stage LN pipeline), the softmax
//! row ([`SoftmaxKernel`], its LUT Softmax Core) and a 256-entry byte table
//! applied in place ([`TableKernel`], GELU). The first two are
//! bit-identical to their scalar reference inside an envelope computed
//! from the parameters ([`super::RequantParams::simd_exact`],
//! [`AddNormParams::simd_exact`]); parameters outside it never reach a SIMD
//! row. The softmax and the table have no envelope: every row is exact for
//! every [`SoftmaxParams`] and every table.
//!
//! # Selection
//!
//! [`selected`] resolves once per process (lock-free, one relaxed atomic
//! load on the hot path afterwards):
//!
//! 1. If `FQBERT_KERNEL=scalar|sse2|avx2|vnni|avx512|amx|neon` is set, that
//!    kernel is used when available on this CPU; an unavailable or
//!    unrecognised request falls back to `scalar` (never an error — serving
//!    must come up), which is visible in telemetry/`list_models` since the
//!    kernel name is surfaced everywhere.
//! 2. Otherwise the best available kernel wins — the last available entry
//!    of [`KernelKind::ALL`]: `amx` > `avx512` > `vnni` > `avx2` > `sse2`
//!    on x86_64 (via `is_x86_feature_detected!` and CPUID), `neon` on
//!    aarch64, else `scalar`. The `vnni` row is the `avx2` row with both
//!    tiles on the 256-bit fused dot products (`vpdpbusd` / `vpdpwssd`:
//!    AVX-VNNI, or AVX-512 VNNI + VL); the `avx512` row runs both tiles, the
//!    requantize epilogue and the softmax row on 512-bit registers and
//!    needs `avx512f/bw/dq/vl/vnni/vbmi` together — a VNNI part without VBMI
//!    stays on `vnni`; the `amx` row is the `avx512` row with every
//!    projection and attention head on AMX tiles, and is available only
//!    where the `avx512` row
//!    is, the CPU has AMX-TILE and AMX-INT8 (CPUID leaf 7, EDX bits 24 /
//!    25), the OS saves tile state (XCR0 bits 17 / 18) and Linux granted the
//!    process the tile data (`arch_prctl`) — one check, resolved once; a
//!    process that fails any part of it comes up on `avx512`.
//!
//! Tests and benches switch kernels in-process with [`force`].
//!
//! # Adding a kernel
//!
//! A row has five entries: `products`, the `requant` epilogue, `add_norm`,
//! `softmax` and `table`. A tile row's `products` are its two tile
//! functions (`wide` for `i16` panels, `nibble` for biased-nibble int4
//! panels); implement them, and borrow any element-wise entry from another
//! row:
//!
//! | row | `products` | `requant` | `add_norm` | `softmax` | `table` |
//! |---|---|---|---|---|---|
//! | `scalar` | own tiles | own | own | own | own |
//! | `sse2` | own tiles | own | `scalar` | `scalar` | `scalar` |
//! | `avx2` | own tiles | own | own | own | `scalar` |
//! | `vnni` | own tiles | `avx2` | `avx2` | `avx2` | `scalar` |
//! | `avx512` | own tiles | own | own | own | own |
//! | `amx` | AMX | `avx512` | `avx512` | `avx512` | `avx512` |
//! | `neon` | own tiles | `scalar` | `scalar` | `scalar` | `scalar` |
//!
//! `gemm_drive` and `attend_head` validate a product, build its stage
//! closures — the projection's requantize sink; attention's
//! `probabilities` (score requantize, then the row's `softmax`) and its
//! context-requantize sink — and hand them to the engine the row names:
//! the tile engine's `MR`-row blocks, or `x86::amx`'s whole projection and
//! whole head (`tdpbssd` over the same panels; `tdpbssd` and `tdpbusd`
//! over byte tiles of the head; see the `gemm` module docs). So the `amx`
//! row's `requant` and `softmax` run inside the AMX blocks. The `avx512`
//! and `amx` rows share one requantize, on `i32` lanes, one `Add & LN`
//! (stages 1 and 2 as one pass of integer moments) and one `vpermi2b`
//! table lookup.
//!
//! Add a [`KernelKind`] variant **at its place in the preference order** —
//! the enum and [`KernelKind::ALL`] list the kinds in the same, ascending
//! order, which a unit test pins — its availability check, and its
//! [`KernelDispatch`] row; then the cross-kernel tests and the engines'
//! contract test (every `(row, c0)` to the sink exactly once, every query
//! row to `probabilities` once and in order) automatically cover it.
//!
//! A nibble kernel adds `Σ a·u` over the panel's unsigned `u = w + 8` to
//! the tile it is given; the driver has already started the tile at
//! `−8 · Σ a`. An `add_norm` entry must equal [`scalar::add_norm_rows`] bit
//! for bit on every [`AddNormParams`] inside [`AddNormParams::simd_exact`]
//! — stage 3's three rounded, saturating Q16 products included — for every
//! width (a tail shorter than a vector too), and must write every slot of
//! the sum row before reading it; `tests/add_norm_kernels.rs` drives every
//! available row through saturating and non-saturating parameter sets. A
//! `softmax` entry must equal [`scalar::softmax_row`] byte for byte on
//! every [`SoftmaxParams`] and every row length up to `MAX_ATTN_SEQ` (a
//! tail shorter than a vector, and the empty row, included), write every
//! slot of its output and nothing else, and panic on mismatched lengths;
//! `tests/softmax_kernels.rs` drives every available row through every
//! length around its vector boundaries. A `table` entry must equal
//! [`scalar::table_row`] byte for byte on every table and every run of
//! codes (the empty one included) and write nothing outside that run;
//! `tests/table_kernels.rs` drives every available row through every
//! length up to 130 at odd offsets, with sentinels on both sides.
//!
//! `unsafe` is allowed only inside `gemm/kernels/*` (fqlint R5
//! `unsafe-outside-kernels`), and every unsafe item there must carry a
//! justified allow annotation — the `asm!` of the AMX drivers and its
//! `arch_prctl` system call included.

pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use super::{
    AccTile, AddNormParams, RequantEpilogue, SoftmaxParams, QUAD_A, QUAD_B, WIDE_A, WIDE_B,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tile kernel over wide (`i16`-pair) weight panels.
pub type WideKernel = fn(&[[i16; WIDE_A]], &[[i16; WIDE_B]], &mut AccTile);

/// Tile kernel over biased-nibble (int4) weight panels and a byte
/// activation block: adds `Σ a · (w + 8)` to a tile the driver started at
/// `−8 · Σ a`.
pub type NibbleKernel = fn(&[[i8; QUAD_A]], &[[u8; QUAD_B]], &mut AccTile);

/// The engine that runs a row's products — every projection and both
/// attention products. `gemm_drive` and `attend_head` match it once per
/// projection or head and hand the whole product, with its stage closures,
/// to the engine it names; both engines feed every accumulator row segment
/// to the same `sink(row, c0, accs)` and, in attention, every query row's
/// `seq` score accumulators to the same `probabilities(accs, probs)`.
#[derive(Debug, Clone, Copy)]
pub enum Products {
    /// `MR × NR` accumulator tiles over the packed panels: a projection
    /// runs on `wide` or `nibble`, both attention products on `wide`.
    Tiles {
        /// Tile kernel for wide (`i16`) weight panels.
        wide: WideKernel,
        /// Tile kernel for nibble-packed (int4) weight panels.
        nibble: NibbleKernel,
    },
    /// AMX `tdpbssd` / `tdpbusd` tiles: `x86::amx` takes every projection
    /// and every head whole.
    #[cfg(target_arch = "x86_64")]
    Amx,
}

/// Requantize epilogue over one accumulator row segment:
/// `out[j] = clamp(round((acc[j] + bias[j]) · multiplier / 2^shift), ±clamp)`
/// with round-half-away-from-zero, from an epilogue prepared once per GEMM
/// or attention head. SIMD implementations are bit-identical to
/// [`scalar::requant_row`] for parameter sets inside
/// [`super::RequantParams::simd_exact`]; [`RequantEpilogue::kernel`] routes
/// anything outside that envelope to the scalar reference.
pub type RequantKernel = fn(&[i32], &[i32], &RequantEpilogue, &mut [i8]);

/// `Add & LN` over whole matrices, `kernel(params, sums, a, b, out)`: `a`,
/// `b` and `out` hold the same number of `params.hidden()`-wide rows of
/// int8 codes and `sums` is one row of `i32` scratch (an
/// [`super::AddNormRow`]); row `i` of `out` becomes the layer norm of the
/// sum of rows `i` of `a` and `b`. SIMD implementations are bit-identical
/// to [`scalar::add_norm_rows`] for parameter sets inside
/// [`AddNormParams::simd_exact`]; [`AddNormParams::kernel`] routes anything
/// outside that envelope to the scalar reference. Panics on any other
/// combination of lengths.
pub type AddNormKernel = fn(&AddNormParams, &mut [i32], &[i8], &[i8], &mut [i8]);

/// The softmax of one row, `kernel(params, scores, out)`: `out[j]` becomes
/// the probability code of score `j`,
/// `round(table[max − scores[j]] · out_levels / Σ_i table[max − scores[i]])`.
/// Every implementation is bit-identical to [`scalar::softmax_row`] for
/// every [`SoftmaxParams`] and every length up to
/// [`super::MAX_ATTN_SEQ`]; an empty row is a no-op. Panics if `scores`
/// and `out` differ in length or exceed that bound.
pub type SoftmaxKernel = fn(&SoftmaxParams, &[i8], &mut [u8]);

/// A 256-entry byte table applied in place, `kernel(table, codes)`: every
/// `codes[j]` becomes `table[codes[j] + 128]` — GELU's lookup table. Every
/// implementation is bit-identical to [`scalar::table_row`] for every table
/// and every length, and touches no byte outside `codes`.
pub type TableKernel = fn(&[i8; 256], &mut [i8]);

/// The instruction-set families a micro-kernel can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar reference kernel (always available).
    Scalar,
    /// x86_64 128-bit `pmaddwd` path.
    Sse2,
    /// x86_64 256-bit `vpmaddwd` path; int4 panels on `vpmaddubsw`.
    Avx2,
    /// The AVX2 row with both tiles on the 256-bit fused dot products:
    /// int4 panels on `vpdpbusd`, wide panels on `vpdpwssd` (AVX-VNNI, or
    /// AVX-512 VNNI + VL).
    Vnni,
    /// x86_64 512-bit path: both tiles on `zmm` `vpdpbusd` / `vpdpwssd`,
    /// a `zmm` requantize and a `vpermi2b` softmax row (AVX-512 F, BW, DQ,
    /// VL, VNNI and VBMI together).
    Avx512,
    /// The AVX-512 row with every projection and attention head on AMX
    /// `tdpbssd` / `tdpbusd` tiles (AMX-TILE and AMX-INT8, enabled by the
    /// OS and granted to the process).
    Amx,
    /// aarch64 128-bit `smlal` path.
    Neon,
}

impl KernelKind {
    /// Every kind, in declaration order, which is ascending preference
    /// order: [`best_available`] takes the last available entry, and the
    /// stored selection indexes this array by discriminant.
    pub const ALL: [KernelKind; 7] = [
        KernelKind::Scalar,
        KernelKind::Sse2,
        KernelKind::Avx2,
        KernelKind::Vnni,
        KernelKind::Avx512,
        KernelKind::Amx,
        KernelKind::Neon,
    ];

    /// The spelling used by `FQBERT_KERNEL` and surfaced in telemetry.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Sse2 => "sse2",
            KernelKind::Avx2 => "avx2",
            KernelKind::Vnni => "vnni",
            KernelKind::Avx512 => "avx512",
            KernelKind::Amx => "amx",
            KernelKind::Neon => "neon",
        }
    }

    /// Parses a `FQBERT_KERNEL` value (ASCII case-insensitive).
    pub fn parse(name: &str) -> Option<KernelKind> {
        KernelKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name.trim()))
    }

    /// Whether this kernel can run on the current process' CPU.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Vnni => KernelKind::Avx2.is_available() && x86::vnni_detected(),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => KernelKind::Avx2.is_available() && x86::avx512_detected(),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Amx => KernelKind::Avx512.is_available() && x86::amx::detected(),
            KernelKind::Neon => cfg!(target_arch = "aarch64"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// One selectable row of micro-kernels plus its identity.
#[derive(Debug)]
pub struct KernelDispatch {
    /// Which instruction-set family this is.
    pub kind: KernelKind,
    /// Stable name surfaced in telemetry, wire frames and logs.
    pub name: &'static str,
    /// The engine of every projection and both attention products.
    pub products: Products,
    /// Requantize epilogue kernel for accumulator row segments.
    pub requant: RequantKernel,
    /// `Add & LN` kernel over whole matrices.
    pub add_norm: AddNormKernel,
    /// Softmax kernel over one row of scores.
    pub softmax: SoftmaxKernel,
    /// Byte-table lookup over a run of codes, in place.
    pub table: TableKernel,
}

/// The products of a row whose tile functions are `wide` and `nibble`.
const fn tiles(wide: WideKernel, nibble: NibbleKernel) -> Products {
    Products::Tiles { wide, nibble }
}

static SCALAR: KernelDispatch = KernelDispatch {
    kind: KernelKind::Scalar,
    name: "scalar",
    products: tiles(scalar::tile_wide, scalar::tile_nibble),
    requant: scalar::requant_row,
    add_norm: scalar::add_norm_rows,
    softmax: scalar::softmax_row,
    table: scalar::table_row,
};

// `Add & LN` leans on 32- and 64-bit signed multiplies and 64-bit
// compares, the softmax row on a gather and a signed byte maximum and the
// table lookup on a byte permute, none of which SSE2 has: the SSE2 row runs
// the scalar ones.
#[cfg(target_arch = "x86_64")]
static SSE2: KernelDispatch = KernelDispatch {
    kind: KernelKind::Sse2,
    name: "sse2",
    products: tiles(x86::tile_wide_sse2, x86::tile_nibble_sse2),
    requant: x86::requant_row_sse2,
    ..SCALAR
};

#[cfg(target_arch = "x86_64")]
static AVX2: KernelDispatch = KernelDispatch {
    kind: KernelKind::Avx2,
    name: "avx2",
    products: tiles(x86::tile_wide_avx2, x86::tile_nibble_avx2),
    requant: x86::requant_row_avx2,
    add_norm: x86::add_norm_rows_avx2,
    softmax: x86::softmax_row_avx2,
    table: scalar::table_row,
};

// VNNI changes the two products only: the requantize epilogue, `Add & LN`
// and the softmax row run on the AVX2 kernels, the table lookup on the
// scalar one.
#[cfg(target_arch = "x86_64")]
static VNNI: KernelDispatch = KernelDispatch {
    kind: KernelKind::Vnni,
    name: "vnni",
    products: tiles(x86::tile_wide_vnni, x86::tile_nibble_vnni),
    ..AVX2
};

#[cfg(target_arch = "x86_64")]
static AVX512: KernelDispatch = KernelDispatch {
    kind: KernelKind::Avx512,
    name: "avx512",
    products: tiles(x86::tile_wide_avx512, x86::tile_nibble_avx512),
    requant: x86::requant_row_avx512,
    add_norm: x86::add_norm_rows_avx512,
    softmax: x86::softmax_row_avx512,
    table: x86::table_row_avx512,
};

// AMX changes the products only: the requantize epilogue, `Add & LN`, the
// softmax row and the table lookup are the AVX-512 row's.
#[cfg(target_arch = "x86_64")]
static AMX: KernelDispatch = KernelDispatch {
    kind: KernelKind::Amx,
    name: "amx",
    products: Products::Amx,
    ..AVX512
};

// The NEON row reuses the scalar requant epilogue, `Add & LN`, softmax row
// and table lookup: the aarch64 SIMD variants have not been written yet.
#[cfg(target_arch = "aarch64")]
static NEON: KernelDispatch = KernelDispatch {
    kind: KernelKind::Neon,
    name: "neon",
    products: tiles(neon::tile_wide, neon::tile_nibble),
    ..SCALAR
};

/// The dispatch table row for `kind`. Kinds not compiled for this target
/// resolve to the scalar row.
pub fn dispatch_for(kind: KernelKind) -> &'static KernelDispatch {
    match kind {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Sse2 => &SSE2,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => &AVX2,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Vnni => &VNNI,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => &AVX512,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Amx => &AMX,
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => &NEON,
        _ => &SCALAR,
    }
}

/// Process-wide selection: 0 = not yet resolved, otherwise a `KernelKind`
/// discriminant + 1. Relaxed ordering suffices — every possible stored
/// value is valid and re-resolution is idempotent.
static SELECTED: AtomicUsize = AtomicUsize::new(0);

fn kind_from_index(index: usize) -> KernelKind {
    KernelKind::ALL
        .get(index)
        .copied()
        .unwrap_or(KernelKind::Scalar)
}

/// Pure selection policy, unit-testable: the kernel to use given the
/// `FQBERT_KERNEL` override (if any) and this CPU's capabilities.
pub fn resolve(requested: Option<&str>) -> KernelKind {
    if let Some(name) = requested {
        return match KernelKind::parse(name) {
            Some(kind) if kind.is_available() => kind,
            // Unavailable or unrecognised: serve on scalar rather than
            // fail — the choice is visible wherever the name is surfaced.
            _ => KernelKind::Scalar,
        };
    }
    best_available()
}

/// The fastest kernel this CPU can run: the last available entry of
/// [`KernelKind::ALL`].
pub fn best_available() -> KernelKind {
    KernelKind::ALL
        .into_iter()
        .rev()
        .find(|k| k.is_available())
        .unwrap_or(KernelKind::Scalar)
}

/// Every kernel the current process can actually run, scalar first.
pub fn available() -> Vec<KernelKind> {
    KernelKind::ALL
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// The process-selected micro-kernel row. First call resolves from
/// `FQBERT_KERNEL` / CPU detection; afterwards this is one relaxed atomic
/// load.
pub fn selected() -> &'static KernelDispatch {
    let stored = SELECTED.load(Ordering::Relaxed);
    if stored != 0 {
        return dispatch_for(kind_from_index(stored - 1));
    }
    let kind = resolve(std::env::var("FQBERT_KERNEL").ok().as_deref());
    SELECTED.store(kind as usize + 1, Ordering::Relaxed);
    dispatch_for(kind)
}

/// Forces the process-wide kernel selection (tests, benches, A/B lanes).
/// An unavailable `kind` falls back to scalar; returns what was installed.
pub fn force(kind: KernelKind) -> KernelKind {
    let actual = if kind.is_available() {
        kind
    } else {
        KernelKind::Scalar
    };
    SELECTED.store(actual as usize + 1, Ordering::Relaxed);
    actual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
            assert_eq!(KernelKind::parse(&kind.name().to_uppercase()), Some(kind));
        }
        assert_eq!(KernelKind::parse(" avx2 "), Some(KernelKind::Avx2));
        assert_eq!(KernelKind::parse("VNNI"), Some(KernelKind::Vnni));
        assert_eq!(KernelKind::parse("avx512"), Some(KernelKind::Avx512));
        assert_eq!(KernelKind::parse("AMX"), Some(KernelKind::Amx));
        assert_eq!(KernelKind::parse("avx512f"), None);
        assert_eq!(KernelKind::parse("amx-int8"), None);
    }

    /// `SELECTED` stores a discriminant and reads it back through `ALL`,
    /// and `best_available` walks `ALL` from the back: both need `ALL` to be
    /// the declaration order, and that order to be the preference order.
    #[test]
    fn all_is_indexed_by_discriminant_and_ordered_by_preference() {
        for (index, kind) in KernelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, index, "{} is out of place", kind.name());
            assert_eq!(kind_from_index(kind as usize), kind);
        }
        assert_eq!(Some(&best_available()), available().last());
        // A row outranks the rows it borrows entries from, and is only
        // available where they are.
        assert!((KernelKind::Vnni as usize) > KernelKind::Avx2 as usize);
        assert!((KernelKind::Avx512 as usize) > KernelKind::Vnni as usize);
        assert!((KernelKind::Amx as usize) > KernelKind::Avx512 as usize);
        if KernelKind::Vnni.is_available() {
            assert!(KernelKind::Avx2.is_available());
        }
        if KernelKind::Avx512.is_available() {
            assert!(KernelKind::Vnni.is_available());
            assert!(KernelKind::Avx2.is_available());
        }
        if KernelKind::Amx.is_available() {
            assert!(KernelKind::Avx512.is_available());
        }
        assert_eq!(
            best_available() == KernelKind::Amx,
            KernelKind::Amx.is_available()
        );
        if KernelKind::Avx512.is_available() && !KernelKind::Amx.is_available() {
            assert_eq!(best_available(), KernelKind::Avx512);
        }
        if KernelKind::Vnni.is_available() && !KernelKind::Avx512.is_available() {
            assert_eq!(best_available(), KernelKind::Vnni);
        }
    }

    #[test]
    fn resolve_honours_requests_and_falls_back_to_scalar() {
        // Scalar is always honoured.
        assert_eq!(resolve(Some("scalar")), KernelKind::Scalar);
        // Garbage falls back to scalar, never errors.
        assert_eq!(resolve(Some("gpu")), KernelKind::Scalar);
        assert_eq!(resolve(Some("")), KernelKind::Scalar);
        // No request: the best available kernel, which must be available.
        assert!(resolve(None).is_available());
        // An explicit request for an available kernel is honoured.
        for kind in available() {
            assert_eq!(resolve(Some(kind.name())), kind);
        }
        // ... and one for a kernel this CPU lacks serves on scalar.
        for kind in KernelKind::ALL.into_iter().filter(|k| !k.is_available()) {
            assert_eq!(resolve(Some(kind.name())), KernelKind::Scalar);
        }
        let amx = if KernelKind::Amx.is_available() {
            KernelKind::Amx
        } else {
            KernelKind::Scalar
        };
        assert_eq!(resolve(Some("amx")), amx);
    }

    #[test]
    fn scalar_is_always_available_and_dispatchable() {
        assert!(KernelKind::Scalar.is_available());
        assert!(available().contains(&KernelKind::Scalar));
        assert_eq!(dispatch_for(KernelKind::Scalar).name, "scalar");
    }

    #[test]
    fn force_installs_available_kernels_and_rejects_missing_ones() {
        for kind in KernelKind::ALL {
            let installed = force(kind);
            if kind.is_available() {
                assert_eq!(installed, kind);
            } else {
                assert_eq!(installed, KernelKind::Scalar);
            }
            assert_eq!(selected().kind, installed);
            assert_eq!(selected().name, installed.name());
        }
        // Leave the default selection behind for other tests in-process.
        force(best_available());
    }
}
