//! The `amx` row's two drivers — every projection through `gemm_drive`
//! ([`drive`]) and every attention head ([`attend`]) as tile products on
//! Intel AMX, the CPU's own 2-D array of 8-bit multipliers (the image of
//! the paper's PE array, which runs the projections and both attention
//! products on the same multipliers).
//!
//! Every tile is configured as 16 rows of 64 bytes, and eight of them are
//! live: `C` tiles `tmm0..4` (rows `0..16 | 16..32` × columns `0..16 |
//! 16..32` of a 32 × 32 block), `A` tiles `tmm4`, `tmm5` (the two 16-row
//! halves of the block, 64 reduction steps each) and `B` tiles `tmm6`,
//! `tmm7` (16 k-quads of two 16-column halves). One k-step of 64 is four
//! products `C[r][c] += Σ A[r][4q + t] · B[q][4c + t]` into `i32`:
//! `tdpbssd` (signed by signed bytes) for the projections and the scores,
//! `tdpbusd` (unsigned `A` by signed `B`) for the context, whose `A` is the
//! `u8` probabilities. Neither saturates, so the sums are exact in any
//! order below `MAX_K` and `MAX_ATTN_SEQ` (the arguments of the `gemm`
//! module docs).
//!
//! A projection:
//!
//! * **`B`** — a panel is decoded once per call into the aligned buffer
//!   the `B` tiles load from, tile `(step, half)` at `(2·step + half) ·
//!   1024`: a nibble k-quad row is one `zmm`, its low and high nibbles two
//!   more (`and`, `srli`, `and`), two `vshufi64x2` put columns `0..16` and
//!   `16..32` into the two tiles' rows, and `− 8` turns `u = w + 8` back
//!   into the weight — so there is no bias to correct and no row sum to
//!   start from. A wide panel's two k-pair rows narrow (`vpmovwb`) into the
//!   same rows. Rows past the last k-quad are zero.
//! * **`A`** — loaded straight from the row-major activations with stride
//!   `k`. What a tile load would read past a row or past the matrix is
//!   staged instead, zero-padded: the k-tail of every whole 16-row half
//!   (one 64-byte row each) and the last, ragged half (16 rows of the
//!   padded depth). The padding must be zero: a padding nibble decodes to
//!   `−8`.
//! * **`C`** — a 32-row block (a 16-row one at the end of an odd number of
//!   halves) is stored into an aligned `i32` block on the stack and handed
//!   to the sink row by row.
//!
//! An attention head, in blocks of 32 query rows:
//!
//! * **Scores** `Q · Kᵀ` — `A` tiles are `Q`'s rows, read in place with
//!   the projection output's row stride wherever a whole 16 × 64-byte
//!   window lies inside the view (bytes past `head_dim` there belong to
//!   other heads or rows and meet zero `B` rows), else staged zero-padded.
//!   The `B` tile of 16 keys and 64 head dimensions is a dword transpose
//!   of those 16 `K` rows, `B[q][4j + t] = K[j][4q + t]` — four
//!   `vpunpck*` stages and two `vshufi64x2` ones. The block's 32 rows of
//!   accumulators over every key are stored with `tilestored` into a
//!   64-byte-aligned `i32` block.
//! * **Probabilities** — the caller turns each real row of that block into
//!   `seq` contiguous `u8` codes (requantize, softmax); the driver pads the
//!   row to a multiple of 64 with zeros.
//! * **Context** `P · V` — `A` tiles are those probability rows as they
//!   stand; the `B` tile of 64 keys and 16 head dimensions is a 4-row byte
//!   interleave of `V`, `B[q][4c + t] = V[4q + t][c]` (`vpunpck{l,h}bw`,
//!   `vpunpck{l,h}wd` and a 128-bit lane transpose). Each 32 × 32 block
//!   goes to the sink row by row.
//!
//! Every padded product has a zero operand: `B` rows past `head_dim` and
//! past `seq`, and probability columns past `seq`, are zero.
//!
//! `ldtilecfg` runs when a call starts and `tilerelease` when [`Tiles`] is
//! dropped, on every exit — a sink that panics included — so no tile state
//! outlives a call. The row is available only where the CPU has AMX-TILE
//! and AMX-INT8, the OS saves tile state (XCR0) and Linux granted this
//! process the tile data (`arch_prctl(ARCH_REQ_XCOMP_PERM)`), checked once
//! ([`detected`], a call of the pure [`permitted`]).

use crate::gemm::{
    ByteArena, LineArena, PackedWeights, PanelStore, StridedView, NR, QUAD_B, WIDE_B,
};
use core::arch::asm;
use core::arch::x86_64::{
    __cpuid, __cpuid_count, __m512i, __mmask64, _mm512_and_si512, _mm512_cvtepi16_epi8,
    _mm512_cvtepu16_epi32, _mm512_loadu_si512, _mm512_maskz_loadu_epi8, _mm512_or_si512,
    _mm512_set1_epi8, _mm512_setzero_si512, _mm512_shuffle_i64x2, _mm512_slli_epi32,
    _mm512_srli_epi16, _mm512_storeu_si512, _mm512_sub_epi8, _mm512_unpackhi_epi16,
    _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpackhi_epi8, _mm512_unpacklo_epi16,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_unpacklo_epi8, _xgetbv,
};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Rows of every tile.
const TILE_ROWS: usize = 16;
/// Bytes of every tile row: 64 reduction steps of `A`, one k-quad of 16
/// columns of `B`, 16 accumulators of `C`.
const TILE_ROW_BYTES: usize = 64;
/// Reduction steps of one `tdpbssd` / `tdpbusd`.
const K_STEP: usize = 64;
/// Bytes of one `B` tile.
const B_TILE: usize = TILE_ROWS * TILE_ROW_BYTES;

/// Whether this process may run the AMX drivers: [`permitted`] over this
/// CPU's CPUID leaves, its XCR0 and Linux's answer to the tile-data
/// request — resolved once per process.
pub(in crate::gemm) fn detected() -> bool {
    static PERMITTED: OnceLock<bool> = OnceLock::new();
    *PERMITTED.get_or_init(|| {
        let leaf7_edx = if __cpuid(0).eax >= 7 {
            __cpuid_count(7, 0).edx
        } else {
            0
        };
        // fqlint::allow(unsafe-outside-kernels): `permitted` reads XCR0
        // only after it saw OSXSAVE, which enables `xgetbv`; `xgetbv`
        // reads XCR0 and touches no memory.
        let xcr0 = || unsafe { xcr0() };
        permitted(leaf7_edx, __cpuid(1).ecx, xcr0, request_tile_data)
    })
}

/// Whether the AMX drivers may run, from what the CPU, the OS and the
/// kernel report: AMX-TILE and AMX-INT8 (`leaf7_edx`, CPUID leaf 7 EDX
/// bits 24 and 25 — zero where the leaf does not exist), OSXSAVE
/// (`leaf1_ecx` bit 27: the OS enabled `xgetbv`), the tile state in XCR0
/// (bits 17 and 18) and a zero status of the tile-data request. Each check
/// runs only when every one before it passed: `xcr0` is read only after
/// OSXSAVE is seen, and `request_tile_data` — the one that changes the
/// process — runs last.
fn permitted(
    leaf7_edx: u32,
    leaf1_ecx: u32,
    xcr0: impl FnOnce() -> u64,
    request_tile_data: impl FnOnce() -> u64,
) -> bool {
    (leaf7_edx >> 24) & 0b11 == 0b11
        && (leaf1_ecx >> 27) & 1 == 1
        && (xcr0() >> 17) & 0b11 == 0b11
        && request_tile_data() == 0
}

/// XCR0, the OS-enabled state components.
// fqlint::allow(unsafe-outside-kernels): the caller checks OSXSAVE first;
// the target feature only lets the intrinsic be emitted.
#[target_feature(enable = "xsave")]
unsafe fn xcr0() -> u64 {
    _xgetbv(0)
}

/// The status of `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`, as
/// a raw system call — zero when granted: Linux hands tile data only to a
/// process that asked.
#[cfg(target_os = "linux")]
fn request_tile_data() -> u64 {
    const SYS_ARCH_PRCTL: u64 = 158;
    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
    const XFEATURE_XTILEDATA: u64 = 18;
    let status: u64;
    // fqlint::allow(unsafe-outside-kernels): the x86-64 Linux system call
    // ABI — number in rax, arguments in rdi / rsi, result in rax, rcx and
    // r11 clobbered; this request only changes the process' permission and
    // writes no user memory.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL => status,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    status
}

/// No such request off Linux: a status that is not a grant.
#[cfg(not(target_os = "linux"))]
fn request_tile_data() -> u64 {
    u64::MAX
}

/// `x (m×k) · W (k×n)` over the row-major codes `x`, every accumulator row
/// segment handed to `sink(row, c0, accs)` once, panel by panel (the
/// contract of `gemm_drive`). `lines` holds the decoded panel and the
/// staged rows; it only grows.
///
/// # Panics
///
/// Panics unless the `amx` row is available (see [`Tiles::configure`]) and
/// `x` holds `m · weights.k()` codes.
pub(in crate::gemm) fn drive(
    x: &[i8],
    m: usize,
    weights: &PackedWeights,
    lines: &mut ByteArena,
    mut sink: impl FnMut(usize, usize, &[i32]),
) {
    let (k, n) = (weights.k, weights.n);
    assert_eq!(x.len(), m * k, "{m} rows of {k} codes");
    if m == 0 || n == 0 {
        return;
    }
    let steps = k.div_ceil(K_STEP);
    // k-steps and 16-row halves read in place; what is left is staged.
    let (full, whole) = (k / K_STEP, m / TILE_ROWS);
    let halves = m.div_ceil(TILE_ROWS);
    let padded = steps * K_STEP;
    let tail = k - full * K_STEP;
    let [panel, tails, ragged] = lines.slices([
        2 * steps * B_TILE,
        usize::from(tail > 0) * whole * TILE_ROWS * K_STEP,
        usize::from(halves > whole) * TILE_ROWS * padded,
    ]);
    if k > 0 {
        let rows = x.chunks_exact(k);
        for (row, staged) in rows.clone().zip(tails.chunks_exact_mut(K_STEP)) {
            staged[..tail].copy_from_slice(&row[full * K_STEP..]);
            staged[tail..].fill(0);
        }
        ragged.fill(0);
        for (row, staged) in rows
            .skip(whole * TILE_ROWS)
            .zip(ragged.chunks_exact_mut(padded))
        {
            staged[..k].copy_from_slice(row);
        }
    }
    let (tails, ragged) = (&*tails, &*ragged);
    // Half `h`'s `A` tile of k-step `s`.
    let a = |h: usize, s: usize| match (h < whole, s < full) {
        (true, true) => Rows::new(&x[h * TILE_ROWS * k + s * K_STEP..], k),
        (true, false) => Rows::new(&tails[h * TILE_ROWS * K_STEP..], K_STEP),
        (false, _) => Rows::new(&ragged[s * K_STEP..], padded),
    };

    let tiles = Tiles::configure();
    let mut block = Block([[0; NR]; 2 * TILE_ROWS]);
    for (p, c0) in (0..n).step_by(NR).enumerate() {
        match &weights.store {
            PanelStore::Nibble(data) => {
                let k_quads = k.div_ceil(4);
                tiles.decode_nibble(&data[p * k_quads..][..k_quads], panel);
            }
            PanelStore::Wide(data) => {
                let k_pairs = k.div_ceil(2);
                tiles.decode_wide(&data[p * k_pairs..][..k_pairs], panel);
            }
        }
        let panel = &*panel;
        let b = |s: usize| [0, 1].map(|half| b_tile(panel, 2 * s + half));
        let cols = NR.min(n - c0);
        for h in (0..halves).step_by(2) {
            let (pair, c) = (h + 1 < halves, block.0.as_flattened_mut());
            tiles.block(Product::Signed, steps, pair, |i, s| a(h + i, s), b, c, NR);
            let first = h * TILE_ROWS;
            for (r, accs) in block.0.iter().enumerate().take(m - first) {
                sink(first + r, c0, &accs[..cols]);
            }
        }
    }
}

/// The grow-only buffers of [`attend`]; nothing in them carries over from
/// one head to the next.
#[derive(Debug, Default)]
pub(in crate::gemm) struct HeadTiles {
    /// `Kᵀ` and `V` as `B` tiles, and the staged `Q` rows.
    tiles: ByteArena,
    /// The probability rows of one block: the context's unsigned `A`.
    probs: LineArena<u8>,
    /// The score accumulators of one block, as `tilestored` writes them.
    scores: LineArena<i32>,
}

/// One attention head over one sequence on tiles (see the module docs).
/// `q`, `k` and `v` are the head's `[seq, head_dim]` windows; for every
/// query row, in order, `probabilities(accs, probs)` turns its `seq` score
/// accumulators into its `seq` probability codes, and every context
/// accumulator row segment goes to `sink(row, c0, accs)` once (`accs[j]` is
/// head dimension `c0 + j`, `c0` a multiple of [`NR`]).
///
/// # Panics
///
/// Panics unless the `amx` row is available (see [`Tiles::configure`]) and
/// the three windows have one shape.
pub(in crate::gemm) fn attend(
    scratch: &mut HeadTiles,
    [q, k, v]: [StridedView<'_>; 3],
    mut probabilities: impl FnMut(&[i32], &mut [u8]),
    mut sink: impl FnMut(usize, usize, &[i32]),
) {
    let (seq, head_dim) = (q.rows(), q.cols());
    assert!(
        [k, v]
            .iter()
            .all(|t| (t.rows(), t.cols()) == (seq, head_dim)),
        "q, k and v windows of one shape"
    );
    if seq == 0 || head_dim == 0 {
        return;
    }
    // The scores reduce over head dimensions, the context over keys; each
    // product's `B` tiles come in 32-column pairs (keys, head dimensions).
    let (dim_steps, key_steps) = (head_dim.div_ceil(K_STEP), seq.div_ceil(K_STEP));
    let (key_pairs, dim_pairs) = (seq.div_ceil(NR), head_dim.div_ceil(NR));
    let halves = seq.div_ceil(TILE_ROWS);
    let (stride, padded) = (q.stride, dim_steps * K_STEP);
    // The halves whose every `A` tile lies inside `q`'s window: a prefix,
    // since a half's last read only moves down with the half.
    let in_place = (0..halves)
        .take_while(|h| (h * TILE_ROWS + TILE_ROWS - 1) * stride + padded <= q.data.len())
        .count();
    let (width, prob_width) = (key_pairs * NR, key_steps * K_STEP);
    let [keys, values, staged] = scratch.tiles.slices([
        2 * key_pairs * dim_steps * B_TILE,
        2 * dim_pairs * key_steps * B_TILE,
        (halves - in_place) * TILE_ROWS * padded,
    ]);
    let [probs] = scratch.probs.slices([2 * TILE_ROWS * prob_width]);
    let [scores] = scratch.scores.slices([2 * TILE_ROWS * width]);
    staged.fill(0);
    let staged_rows = staged.chunks_exact_mut(padded);
    for (r, staged) in (in_place * TILE_ROWS..seq).zip(staged_rows) {
        staged[..head_dim].copy_from_slice(q.row(r));
    }
    let staged = &*staged;
    // Half `h`'s `A` tile of head-dimension step `s`.
    let a = |h: usize, s: usize| match h.checked_sub(in_place) {
        None => Rows::new(&q.data[h * TILE_ROWS * stride + s * K_STEP..], stride),
        Some(h) => Rows::new(&staged[h * TILE_ROWS * padded + s * K_STEP..], padded),
    };

    let tiles = Tiles::configure();
    tiles.transpose_keys(k, dim_steps, keys);
    tiles.interleave_values(v, key_steps, values);
    let (keys, values) = (&*keys, &*values);
    let mut context = Block([[0; NR]; 2 * TILE_ROWS]);
    for h in (0..halves).step_by(2) {
        let (pair, first) = (h + 1 < halves, h * TILE_ROWS);
        let rows = (seq - first).min(2 * TILE_ROWS);
        for p in 0..key_pairs {
            let b = |s| b_pair(keys, dim_steps, p, s);
            let c = &mut scores[p * NR..];
            tiles.block(
                Product::Signed,
                dim_steps,
                pair,
                |i, s| a(h + i, s),
                b,
                c,
                width,
            );
        }
        let block_rows = scores
            .chunks_exact(width)
            .zip(probs.chunks_exact_mut(prob_width));
        for (accs, probs) in block_rows.take(rows) {
            let (probs, padding) = probs.split_at_mut(seq);
            probabilities(&accs[..seq], probs);
            padding.fill(0);
        }
        let probs = &*probs;
        // Half `i`'s `A` tile of key step `s`.
        let a = |i: usize, s: usize| {
            let at = i * TILE_ROWS * prob_width + s * K_STEP;
            Rows::new(&probs[at..], prob_width)
        };
        for p in 0..dim_pairs {
            let b = |s| b_pair(values, key_steps, p, s);
            let c = context.0.as_flattened_mut();
            tiles.block(Product::Unsigned, key_steps, pair, a, b, c, NR);
            let (c0, cols) = (p * NR, NR.min(head_dim - p * NR));
            for (r, accs) in context.0.iter().enumerate().take(rows) {
                sink(first + r, c0, &accs[..cols]);
            }
        }
    }
}

/// Tile `index` of a buffer of whole `B` tiles.
fn b_tile(tiles: &[i8], index: usize) -> Rows<'_> {
    Rows::new(&tiles[index * B_TILE..][..B_TILE], TILE_ROW_BYTES)
}

/// Step `s` of column pair `p`: the two `B` tiles of 16-column groups `2p`
/// and `2p + 1`, out of tiles laid out `steps` per group.
fn b_pair(tiles: &[i8], steps: usize, p: usize, s: usize) -> [Rows<'_>; 2] {
    [2 * p, 2 * p + 1].map(|group| b_tile(tiles, group * steps + s))
}

/// The tile configuration: palette 1, eight tiles of 16 rows × 64 bytes.
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

static CONFIG: TileConfig = {
    let mut bytes = [0u8; 64];
    bytes[0] = 1;
    let mut tile = 0;
    while tile < 8 {
        // `colsb` (little-endian `u16`s from byte 16), `rows` from byte 48.
        bytes[16 + 2 * tile] = 64;
        bytes[48 + tile] = 16;
        tile += 1;
    }
    TileConfig(bytes)
};

/// A 32 × 32 `C` block, 64-byte aligned for `tilestored`.
#[repr(C, align(64))]
struct Block([[i32; NR]; 2 * TILE_ROWS]);

/// Which product a block runs; `B` bytes are signed either way.
#[derive(Clone, Copy)]
enum Product {
    /// `tdpbssd`: signed `A` bytes — activations, `Q`.
    Signed,
    /// `tdpbusd`: unsigned `A` bytes — the probabilities.
    Unsigned,
}

/// What one tile load may read: 16 rows of 64 bytes, `stride` bytes apart,
/// inside one live borrow — checked where it is made.
#[derive(Clone, Copy)]
struct Rows<'a> {
    start: *const u8,
    stride: usize,
    bytes: PhantomData<&'a [u8]>,
}

impl<'a> Rows<'a> {
    fn new<T>(items: &'a [T], stride: usize) -> Self {
        let len = std::mem::size_of_val(items);
        assert!(
            (TILE_ROWS - 1) * stride + TILE_ROW_BYTES <= len,
            "a tile of stride {stride} past a buffer of {len} bytes"
        );
        Self {
            start: items.as_ptr().cast(),
            stride,
            bytes: PhantomData,
        }
    }
}

/// The `asm!` of one k-step: the `A` and `B` tile loads, then the four
/// (`pair`) or two (`single`) products `$op` into the `C` tiles.
macro_rules! k_step {
    ($op:literal, pair: $a0:expr, $a1:expr, $b0:expr, $b1:expr) => {
        asm!(
            "tileloadd tmm4, [{a0} + {sa0}*1]",
            "tileloadd tmm5, [{a1} + {sa1}*1]",
            "tileloadd tmm6, [{b0} + {sb0}*1]",
            "tileloadd tmm7, [{b1} + {sb1}*1]",
            concat!($op, " tmm0, tmm4, tmm6"),
            concat!($op, " tmm1, tmm4, tmm7"),
            concat!($op, " tmm2, tmm5, tmm6"),
            concat!($op, " tmm3, tmm5, tmm7"),
            a0 = in(reg) $a0.start,
            sa0 = in(reg) $a0.stride,
            a1 = in(reg) $a1.start,
            sa1 = in(reg) $a1.stride,
            b0 = in(reg) $b0.start,
            sb0 = in(reg) $b0.stride,
            b1 = in(reg) $b1.start,
            sb1 = in(reg) $b1.stride,
            options(nostack, readonly, preserves_flags),
        )
    };
    ($op:literal, single: $a0:expr, $b0:expr, $b1:expr) => {
        asm!(
            "tileloadd tmm4, [{a0} + {sa0}*1]",
            "tileloadd tmm6, [{b0} + {sb0}*1]",
            "tileloadd tmm7, [{b1} + {sb1}*1]",
            concat!($op, " tmm0, tmm4, tmm6"),
            concat!($op, " tmm1, tmm4, tmm7"),
            a0 = in(reg) $a0.start,
            sa0 = in(reg) $a0.stride,
            b0 = in(reg) $b0.start,
            sb0 = in(reg) $b0.stride,
            b1 = in(reg) $b1.start,
            sb1 = in(reg) $b1.stride,
            options(nostack, readonly, preserves_flags),
        )
    };
}

/// The tile state of one driver call: configured by [`Tiles::configure`],
/// released when dropped. Not `Send`: the configuration belongs to the
/// thread that loaded it.
struct Tiles(PhantomData<*const ()>);

impl Tiles {
    /// Loads the tile configuration.
    ///
    /// # Panics
    ///
    /// Panics unless [`detected`] and the AVX-512 row's features hold —
    /// the `amx` row is installed only where they do.
    fn configure() -> Self {
        assert!(
            detected() && super::avx512_detected(),
            "the AMX drivers run only where the amx row is available"
        );
        // fqlint::allow(unsafe-outside-kernels): AMX is available and this
        // process holds the tile data (asserted above); `ldtilecfg` reads
        // the 64 bytes of a static configuration.
        unsafe {
            asm!(
                "ldtilecfg [{}]",
                in(reg) CONFIG.0.as_ptr(),
                options(nostack, readonly, preserves_flags),
            );
        }
        Self(PhantomData)
    }

    /// One `C` block: `Σ_s A(i, s) · B(s)` over `steps` k-steps, for the
    /// block's 16-row halves `i = 0, 1` (`0` alone unless `pair`) against
    /// the two 16-column `B` tiles `b(s)`, stored as rows `0..16` (`0..32`
    /// with `pair`) × columns `0..32` of `c`, rows `stride` `i32`s apart.
    #[allow(clippy::too_many_arguments)]
    fn block<'a>(
        &self,
        product: Product,
        steps: usize,
        pair: bool,
        a: impl Fn(usize, usize) -> Rows<'a>,
        b: impl Fn(usize) -> [Rows<'a>; 2],
        c: &mut [i32],
        stride: usize,
    ) {
        self.zero();
        for s in 0..steps {
            let [b0, b1] = b(s);
            if pair {
                self.step2(product, a(0, s), a(1, s), b0, b1);
            } else {
                self.step1(product, a(0, s), b0, b1);
            }
        }
        self.store(c, stride, pair);
    }

    /// Zeroes the four `C` tiles.
    fn zero(&self) {
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`); `tilezero` touches no memory.
        unsafe {
            asm!(
                "tilezero tmm0",
                "tilezero tmm1",
                "tilezero tmm2",
                "tilezero tmm3",
                options(nostack, nomem, preserves_flags),
            );
        }
    }

    /// One k-step of a 32-row block: `A` halves `a0`, `a1` against the
    /// column halves `b0`, `b1`.
    fn step2(&self, product: Product, a0: Rows<'_>, a1: Rows<'_>, b0: Rows<'_>, b1: Rows<'_>) {
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`) and every load reads the 16 × 64 bytes a `Rows` checked.
        unsafe {
            match product {
                Product::Signed => k_step!("tdpbssd", pair: a0, a1, b0, b1),
                Product::Unsigned => k_step!("tdpbusd", pair: a0, a1, b0, b1),
            }
        }
    }

    /// One k-step of a 16-row block: `C` tiles 0 and 1 only.
    fn step1(&self, product: Product, a0: Rows<'_>, b0: Rows<'_>, b1: Rows<'_>) {
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`) and every load reads the 16 × 64 bytes a `Rows` checked.
        unsafe {
            match product {
                Product::Signed => k_step!("tdpbssd", single: a0, b0, b1),
                Product::Unsigned => k_step!("tdpbusd", single: a0, b0, b1),
            }
        }
    }

    /// Stores `C` tiles 0 and 1 — and 2 and 3 when `pair` — as rows
    /// `0..16` (and `16..32`) × columns `0..16 | 16..32` of `c`, rows
    /// `stride` `i32`s apart.
    fn store(&self, c: &mut [i32], stride: usize, pair: bool) {
        let rows = if pair { 2 * TILE_ROWS } else { TILE_ROWS };
        assert!(
            (rows - 1) * stride + NR <= c.len(),
            "{rows} rows of stride {stride} past a block of {} words",
            c.len()
        );
        let (top, bytes) = (c.as_mut_ptr(), 4 * stride);
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`); the stores write rows `0..16` (`0..32` with `pair`),
        // 128 bytes each, `bytes` apart — inside `c`, asserted above.
        unsafe {
            asm!(
                "tilestored [{c} + {s}*1], tmm0",
                "tilestored [{c} + {s}*1 + 64], tmm1",
                c = in(reg) top,
                s = in(reg) bytes,
                options(nostack, preserves_flags),
            );
            if pair {
                asm!(
                    "tilestored [{c} + {s}*1], tmm2",
                    "tilestored [{c} + {s}*1 + 64], tmm3",
                    c = in(reg) top.add(TILE_ROWS * stride),
                    s = in(reg) bytes,
                    options(nostack, preserves_flags),
                );
            }
        }
    }

    /// Decodes the nibble panel `src` (one k-quad row each) into `B` tiles.
    fn decode_nibble(&self, src: &[[u8; QUAD_B]], panel: &mut [i8]) {
        // fqlint::allow(unsafe-outside-kernels): AVX-512 is detected (a
        // `Tiles` exists only after `configure` asserted it).
        unsafe { decode_nibble(src, panel) }
    }

    /// Narrows the wide panel `src` (one k-pair row each) into `B` tiles.
    fn decode_wide(&self, src: &[[i16; WIDE_B]], panel: &mut [i8]) {
        // fqlint::allow(unsafe-outside-kernels): AVX-512 is detected (a
        // `Tiles` exists only after `configure` asserted it).
        unsafe { decode_wide(src, panel) }
    }

    /// Lays `Kᵀ` out as `B` tiles, `steps` per group of 16 keys: tile
    /// `g · steps + s` holds `B[q][4j + t] = K[16g + j][64s + 4q + t]`,
    /// zero past the last key and the last head dimension.
    fn transpose_keys(&self, k: StridedView<'_>, steps: usize, tiles: &mut [i8]) {
        // fqlint::allow(unsafe-outside-kernels): AVX-512 is detected (a
        // `Tiles` exists only after `configure` asserted it).
        unsafe { transpose_keys(k, steps, tiles) }
    }

    /// Lays `V` out as `B` tiles, `steps` per group of 16 head dimensions:
    /// tile `g · steps + s` holds `B[q][4c + t] = V[64s + 4q + t][16g + c]`,
    /// zero past the last key and the last head dimension.
    fn interleave_values(&self, v: StridedView<'_>, steps: usize, tiles: &mut [i8]) {
        // fqlint::allow(unsafe-outside-kernels): AVX-512 is detected (a
        // `Tiles` exists only after `configure` asserted it).
        unsafe { interleave_values(v, steps, tiles) }
    }
}

impl Drop for Tiles {
    fn drop(&mut self) {
        // fqlint::allow(unsafe-outside-kernels): `configure` loaded the
        // configuration this releases; `tilerelease` touches no memory.
        unsafe { asm!("tilerelease", options(nostack, nomem, preserves_flags)) }
    }
}

/// The rows of both `B` tiles of each k-step: `panel` holds `2 · steps`
/// tiles, `(step, half)` at `(2·step + half) · B_TILE`.
fn tile_rows(panel: &mut [i8]) -> impl Iterator<Item = (&mut [[i8; 64]], &mut [[i8; 64]])> {
    panel.chunks_exact_mut(2 * B_TILE).map(|step| {
        let (low, high) = step.split_at_mut(B_TILE);
        (low.as_chunks_mut::<64>().0, high.as_chunks_mut::<64>().0)
    })
}

/// [`Tiles::decode_nibble`]: per k-quad, columns `0..8 | 16..24` are the
/// low nibbles and `8..16 | 24..32` the high ones (one 256-bit half each,
/// see the `gemm` module docs), so `vshufi64x2` joins the first halves of
/// both into the row of tile 0 and the second halves into tile 1.
// fqlint::allow(unsafe-outside-kernels): one 64-byte load of a `[u8;
// QUAD_B]` and 64-byte stores into `[i8; 64]` rows; the features are
// guaranteed by the caller.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn decode_nibble(src: &[[u8; QUAD_B]], panel: &mut [i8]) {
    let (mask, eight) = (_mm512_set1_epi8(0x0F), _mm512_set1_epi8(8));
    for ((low, high), quads) in tile_rows(panel).zip(src.chunks(TILE_ROWS)) {
        for ((quad, low), high) in quads.iter().zip(&mut *low).zip(&mut *high) {
            let bytes = _mm512_loadu_si512(quad.as_ptr().cast());
            let first = _mm512_and_si512(bytes, mask);
            let second = _mm512_and_si512(_mm512_srli_epi16::<4>(bytes), mask);
            let weights = |join: __m512i| _mm512_sub_epi8(join, eight);
            let columns = _mm512_shuffle_i64x2::<0x44>(first, second);
            _mm512_storeu_si512(low.as_mut_ptr().cast(), weights(columns));
            let columns = _mm512_shuffle_i64x2::<0xEE>(first, second);
            _mm512_storeu_si512(high.as_mut_ptr().cast(), weights(columns));
        }
        low[quads.len()..].fill([0; 64]);
        high[quads.len()..].fill([0; 64]);
    }
}

/// [`Tiles::decode_wide`]: k-quad `q` is k-pair rows `2q` and `2q + 1`
/// (zero past the panel); each narrows (`vpmovwb`) to bytes whose word `c`
/// is column `c`'s pair, and the words of the two interleave into the
/// column's four reduction steps.
// fqlint::allow(unsafe-outside-kernels): 64-byte loads at offsets 0 and 32
// `i16`s of `[i16; WIDE_B]` rows and 64-byte stores into `[i8; 64]` rows;
// the features are guaranteed by the caller.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn decode_wide(src: &[[i16; WIDE_B]], panel: &mut [i8]) {
    const NO_PAIR: [i16; WIDE_B] = [0; WIDE_B];
    for ((low, high), pairs) in tile_rows(panel).zip(src.chunks(2 * TILE_ROWS)) {
        let quads = pairs.chunks(2);
        let count = quads.len();
        for ((quad, low), high) in quads.zip(&mut *low).zip(&mut *high) {
            let (first, second) = (&quad[0], quad.get(1).unwrap_or(&NO_PAIR));
            for (half, row) in [low, high].into_iter().enumerate() {
                let words = |pairs: &[i16; WIDE_B]| {
                    let wide = _mm512_loadu_si512(pairs.as_ptr().add(32 * half).cast());
                    _mm512_cvtepu16_epi32(_mm512_cvtepi16_epi8(wide))
                };
                let steps = _mm512_or_si512(words(first), _mm512_slli_epi32::<16>(words(second)));
                _mm512_storeu_si512(row.as_mut_ptr().cast(), steps);
            }
        }
        low[count..].fill([0; 64]);
        high[count..].fill([0; 64]);
    }
}

/// Up to 64 bytes from the start of `bytes`, zero past its end — a masked
/// load, which does not touch the masked-off bytes.
// fqlint::allow(unsafe-outside-kernels): the mask covers `min(64,
// bytes.len())` bytes of `bytes`; the features are guaranteed by the
// caller.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn load_row(bytes: &[i8]) -> __m512i {
    let mask: __mmask64 = match bytes.len() {
        64.. => u64::MAX,
        len => (1 << len) - 1,
    };
    _mm512_maskz_loadu_epi8(mask, bytes.as_ptr())
}

/// The 4 × 4 transpose of 128-bit lanes: lane `l` of output `i` is lane
/// `i` of input `l`.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
fn transpose_lanes([x0, x1, x2, x3]: [__m512i; 4]) -> [__m512i; 4] {
    let (low01, high01) = (
        _mm512_shuffle_i64x2::<0x44>(x0, x1),
        _mm512_shuffle_i64x2::<0xEE>(x0, x1),
    );
    let (low23, high23) = (
        _mm512_shuffle_i64x2::<0x44>(x2, x3),
        _mm512_shuffle_i64x2::<0xEE>(x2, x3),
    );
    [
        _mm512_shuffle_i64x2::<0x88>(low01, low23),
        _mm512_shuffle_i64x2::<0xDD>(low01, low23),
        _mm512_shuffle_i64x2::<0x88>(high01, high23),
        _mm512_shuffle_i64x2::<0xDD>(high01, high23),
    ]
}

/// [`Tiles::transpose_keys`]: the 16 key rows of a tile as 16 × 16 dwords
/// (one `zmm` each, masked to the head), transposed in four stages —
/// `vpunpck{l,h}dq` and `vpunpck{l,h}qdq` leave, per 128-bit lane `l` and
/// group of four keys, the four keys' dword `4l + i` in one register, and
/// the lane transpose gathers the four groups' lanes into `B` row `4l + i`.
// fqlint::allow(unsafe-outside-kernels): masked loads through `load_row`
// from rows of `k` and 64-byte stores into `[i8; 64]` rows of `tiles`; the
// features are guaranteed by the caller.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn transpose_keys(k: StridedView<'_>, steps: usize, tiles: &mut [i8]) {
    let seq = k.rows();
    for (g, group) in tiles.chunks_exact_mut(steps * B_TILE).enumerate() {
        for (s, tile) in group.chunks_exact_mut(B_TILE).enumerate() {
            let mut keys = [_mm512_setzero_si512(); TILE_ROWS];
            for (j, key) in keys.iter_mut().enumerate().take(seq.saturating_sub(16 * g)) {
                *key = load_row(&k.row(16 * g + j)[s * K_STEP..]);
            }
            let mut quads = [[_mm512_setzero_si512(); 4]; 4];
            for (four, quad) in keys.chunks_exact(4).zip(&mut quads) {
                let (t0, t1) = (
                    _mm512_unpacklo_epi32(four[0], four[1]),
                    _mm512_unpackhi_epi32(four[0], four[1]),
                );
                let (t2, t3) = (
                    _mm512_unpacklo_epi32(four[2], four[3]),
                    _mm512_unpackhi_epi32(four[2], four[3]),
                );
                *quad = [
                    _mm512_unpacklo_epi64(t0, t2),
                    _mm512_unpackhi_epi64(t0, t2),
                    _mm512_unpacklo_epi64(t1, t3),
                    _mm512_unpackhi_epi64(t1, t3),
                ];
            }
            let rows = tile.as_chunks_mut::<64>().0;
            for i in 0..4 {
                let lanes = transpose_lanes([quads[0][i], quads[1][i], quads[2][i], quads[3][i]]);
                for (l, lane) in lanes.into_iter().enumerate() {
                    _mm512_storeu_si512(rows[4 * l + i].as_mut_ptr().cast(), lane);
                }
            }
        }
    }
}

/// [`Tiles::interleave_values`]: per four keys and 64 head dimensions (one
/// masked `zmm` per key), `vpunpck{l,h}bw` and `vpunpck{l,h}wd` leave in
/// 128-bit lane `l` of output `i` the four keys' bytes of the dimensions
/// `16l + 4i ..= 16l + 4i + 3`, and the lane transpose makes each output
/// the `B` row of one group of 16 dimensions.
// fqlint::allow(unsafe-outside-kernels): masked loads through `load_row`
// from rows of `v` and 64-byte stores into `[i8; 64]` rows of `tiles`; the
// features are guaranteed by the caller.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn interleave_values(v: StridedView<'_>, steps: usize, tiles: &mut [i8]) {
    let (seq, group_bytes) = (v.rows(), steps * B_TILE);
    // Four groups of 16 head dimensions per chunk of 64.
    let groups = tiles.len() / group_bytes;
    for chunk in 0..groups.div_ceil(4) {
        let d0 = chunk * K_STEP;
        for quad in 0..steps * TILE_ROWS {
            let mut keys = [_mm512_setzero_si512(); 4];
            for (t, key) in keys
                .iter_mut()
                .enumerate()
                .take(seq.saturating_sub(4 * quad))
            {
                *key = load_row(&v.row(4 * quad + t)[d0..]);
            }
            let (low01, high01) = (
                _mm512_unpacklo_epi8(keys[0], keys[1]),
                _mm512_unpackhi_epi8(keys[0], keys[1]),
            );
            let (low23, high23) = (
                _mm512_unpacklo_epi8(keys[2], keys[3]),
                _mm512_unpackhi_epi8(keys[2], keys[3]),
            );
            let rows = transpose_lanes([
                _mm512_unpacklo_epi16(low01, low23),
                _mm512_unpackhi_epi16(low01, low23),
                _mm512_unpacklo_epi16(high01, high23),
                _mm512_unpackhi_epi16(high01, high23),
            ]);
            // Group `g`'s tile `quad / 16`, row `quad % 16`.
            for (g, row) in (4 * chunk..groups).zip(rows) {
                let at = g * group_bytes + quad * TILE_ROW_BYTES;
                _mm512_storeu_si512(tiles[at..at + TILE_ROW_BYTES].as_mut_ptr().cast(), row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::MAX_ATTN_SEQ;

    /// AMX-TILE and AMX-INT8 in CPUID leaf 7 EDX.
    const AMX: u32 = 0b11 << 24;
    /// OSXSAVE in CPUID leaf 1 ECX.
    const OSXSAVE: u32 = 1 << 27;
    /// XTILECFG and XTILEDATA in XCR0.
    const TILE_STATE: u64 = 0b11 << 17;

    /// A check that must not run once an earlier one refused.
    fn never() -> u64 {
        panic!("consulted after an earlier check refused")
    }

    #[test]
    fn granted_where_every_check_passes() {
        assert!(permitted(AMX, OSXSAVE, || TILE_STATE, || 0));
        assert!(permitted(u32::MAX, u32::MAX, || u64::MAX, || 0));
    }

    #[test]
    fn refused_without_amx_tile() {
        assert!(!permitted(AMX & !(1 << 24), OSXSAVE, never, never));
    }

    #[test]
    fn refused_without_amx_int8() {
        assert!(!permitted(AMX & !(1 << 25), OSXSAVE, never, never));
    }

    /// Without OSXSAVE `xgetbv` faults, so XCR0 is not read.
    #[test]
    fn refused_without_osxsave() {
        assert!(!permitted(AMX, !OSXSAVE, never, never));
    }

    #[test]
    fn refused_where_the_os_does_not_save_the_tile_configuration() {
        assert!(!permitted(AMX, OSXSAVE, || TILE_STATE & !(1 << 17), never));
    }

    #[test]
    fn refused_where_the_os_does_not_save_the_tile_data() {
        assert!(!permitted(AMX, OSXSAVE, || TILE_STATE & !(1 << 18), never));
    }

    #[test]
    fn refused_where_the_kernel_refuses_the_tile_data() {
        // `-EINVAL` and `-EPERM` as the system call returns them.
        for status in [0xFFFF_FFFF_FFFF_FFEA, 0xFFFF_FFFF_FFFF_FFFF] {
            assert!(!permitted(AMX, OSXSAVE, || TILE_STATE, || status));
        }
    }

    /// The context's reduction bound on the tiles themselves:
    /// `MAX_ATTN_SEQ` products of `P = 255` by `V = −128` into every
    /// accumulator — the last k-step one real key and zero padding on both
    /// sides, as `attend` pads — is `−MAX_ATTN_SEQ · 255 · 128`, read back
    /// as `−1 · 128` per product if `P` were taken as signed.
    #[test]
    fn context_tiles_are_exact_at_the_attention_bound() {
        if !(detected() && super::super::avx512_detected()) {
            return;
        }
        let (full, tail) = (MAX_ATTN_SEQ / K_STEP, MAX_ATTN_SEQ % K_STEP);
        assert!(tail > 0, "the last step is padded");
        let probs = [255u8; B_TILE];
        let mut probs_tail = [0u8; B_TILE];
        for row in probs_tail.chunks_exact_mut(K_STEP) {
            row[..tail].fill(255);
        }
        let values = [-128i8; B_TILE];
        let mut values_tail = [0i8; B_TILE];
        // `B[q][4c + t]` is key `4q + t`.
        for (i, value) in values_tail.iter_mut().enumerate() {
            if 4 * (i / TILE_ROW_BYTES) + i % 4 < tail {
                *value = -128;
            }
        }
        let a = |_: usize, s: usize| {
            Rows::new(
                if s < full {
                    &probs[..]
                } else {
                    &probs_tail[..]
                },
                K_STEP,
            )
        };
        let b = |s: usize| {
            let tile = if s < full {
                &values[..]
            } else {
                &values_tail[..]
            };
            [Rows::new(tile, TILE_ROW_BYTES); 2]
        };
        let mut block = Block([[0; NR]; 2 * TILE_ROWS]);
        let tiles = Tiles::configure();
        let c = block.0.as_flattened_mut();
        tiles.block(Product::Unsigned, full + 1, true, a, b, c, NR);
        let exact = -(MAX_ATTN_SEQ as i64) * 255 * 128;
        assert!(exact >= i64::from(i32::MIN));
        assert!(block.0.iter().flatten().all(|&acc| i64::from(acc) == exact));
    }
}
