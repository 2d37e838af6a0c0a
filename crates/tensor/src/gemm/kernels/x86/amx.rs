//! The `amx` row's projection driver: every projection through
//! `gemm_drive` as `tdpbssd` tile products (Intel AMX, the CPU's own 2-D
//! array of 8-bit multipliers — the image of the paper's PE array).
//!
//! Every tile is configured as 16 rows of 64 bytes, and eight of them are
//! live: `C` tiles `tmm0..4` (rows `0..16 | 16..32` × columns `0..16 |
//! 16..32` of a 32 × 32 block), `A` tiles `tmm4`, `tmm5` (the two 16-row
//! halves of the block, 64 reduction steps each) and `B` tiles `tmm6`,
//! `tmm7` (16 k-quads of the panel's two 16-column halves). One k-step of
//! 64 is four `tdpbssd`: `C[r][c] += Σ A[r][4q + t] · B[q][4c + t]`,
//! signed bytes by signed bytes into `i32`, exact in any order below
//! `MAX_K` (the argument of the `gemm` module docs; `tdpbssd` does not
//! saturate).
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
//! `ldtilecfg` runs when a call starts and `tilerelease` when [`Tiles`] is
//! dropped, on every exit — a sink that panics included — so no tile state
//! outlives a call. The row is available only where the CPU has AMX-TILE
//! and AMX-INT8, the OS saves tile state (XCR0) and Linux granted this
//! process the tile data (`arch_prctl(ARCH_REQ_XCOMP_PERM)`), checked once
//! ([`detected`]).

use crate::gemm::{ByteArena, PackedWeights, PanelStore, NR, QUAD_B, WIDE_B};
use core::arch::asm;
use core::arch::x86_64::{
    __cpuid, __cpuid_count, __m512i, _mm512_and_si512, _mm512_cvtepi16_epi8, _mm512_cvtepu16_epi32,
    _mm512_loadu_si512, _mm512_or_si512, _mm512_set1_epi8, _mm512_shuffle_i64x2, _mm512_slli_epi32,
    _mm512_srli_epi16, _mm512_storeu_si512, _mm512_sub_epi8, _xgetbv,
};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Rows of every tile.
const TILE_ROWS: usize = 16;
/// Bytes of every tile row: 64 reduction steps of `A`, one k-quad of 16
/// columns of `B`, 16 accumulators of `C`.
const TILE_ROW_BYTES: usize = 64;
/// Reduction steps of one `tdpbssd`.
const K_STEP: usize = 64;
/// Bytes of one decoded `B` tile.
const B_TILE: usize = TILE_ROWS * TILE_ROW_BYTES;

/// Whether this process may run the AMX driver — AMX-TILE and AMX-INT8
/// (CPUID leaf 7, EDX bits 24 and 25), tile state enabled by the OS (XCR0
/// bits 17 and 18) and, on Linux, the tile data granted by
/// `arch_prctl(ARCH_REQ_XCOMP_PERM)` — resolved once per process.
pub(in crate::gemm) fn detected() -> bool {
    static PERMITTED: OnceLock<bool> = OnceLock::new();
    *PERMITTED.get_or_init(|| cpu_has_amx_int8() && os_saves_tiles() && tile_data_granted())
}

fn cpu_has_amx_int8() -> bool {
    __cpuid(0).eax >= 7 && (__cpuid_count(7, 0).edx >> 24) & 0b11 == 0b11
}

fn os_saves_tiles() -> bool {
    // OSXSAVE (CPUID.1:ECX bit 27): the OS enabled `xgetbv`.
    if (__cpuid(1).ecx >> 27) & 1 == 0 {
        return false;
    }
    // fqlint::allow(unsafe-outside-kernels): `xgetbv` is enabled, which
    // OSXSAVE reports just above; it reads XCR0 and touches no memory.
    let xcr0 = unsafe { xcr0() };
    (xcr0 >> 17) & 0b11 == 0b11
}

/// XCR0, the OS-enabled state components.
// fqlint::allow(unsafe-outside-kernels): the caller checks OSXSAVE first;
// the target feature only lets the intrinsic be emitted.
#[target_feature(enable = "xsave")]
unsafe fn xcr0() -> u64 {
    _xgetbv(0)
}

/// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) == 0`, as a raw
/// system call: Linux hands tile data only to a process that asked.
#[cfg(target_os = "linux")]
fn tile_data_granted() -> bool {
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
    status == 0
}

#[cfg(not(target_os = "linux"))]
fn tile_data_granted() -> bool {
    false
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
        let cols = NR.min(n - c0);
        for h in (0..halves).step_by(2) {
            let pair = h + 1 < halves;
            tiles.zero();
            for (s, b) in panel.chunks_exact(2 * B_TILE).enumerate() {
                let (b0, b1) = b.split_at(B_TILE);
                let (b0, b1) = (Rows::new(b0, TILE_ROW_BYTES), Rows::new(b1, TILE_ROW_BYTES));
                if pair {
                    tiles.step2(a(h, s), a(h + 1, s), b0, b1);
                } else {
                    tiles.step1(a(h, s), b0, b1);
                }
            }
            tiles.store(&mut block, pair);
            let first = h * TILE_ROWS;
            for (r, accs) in block.0.iter().enumerate().take(m - first) {
                sink(first + r, c0, &accs[..cols]);
            }
        }
    }
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

/// The `C` block of one row block and one panel, 64-byte aligned for
/// `tilestored`.
#[repr(C, align(64))]
struct Block([[i32; NR]; 2 * TILE_ROWS]);

/// What one tile load may read: 16 rows of 64 bytes, `stride` apart,
/// inside one live borrow — checked where it is made.
#[derive(Clone, Copy)]
struct Rows<'a> {
    start: *const i8,
    stride: usize,
    bytes: PhantomData<&'a [i8]>,
}

impl<'a> Rows<'a> {
    fn new(bytes: &'a [i8], stride: usize) -> Self {
        assert!(
            (TILE_ROWS - 1) * stride + TILE_ROW_BYTES <= bytes.len(),
            "a tile of stride {stride} past a buffer of {} bytes",
            bytes.len()
        );
        Self {
            start: bytes.as_ptr(),
            stride,
            bytes: PhantomData,
        }
    }
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
            "the AMX driver runs only where the amx row is available"
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
    /// panel's column halves `b0`, `b1`.
    fn step2(&self, a0: Rows<'_>, a1: Rows<'_>, b0: Rows<'_>, b1: Rows<'_>) {
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`) and every load reads the 16 × 64 bytes a `Rows` checked.
        unsafe {
            asm!(
                "tileloadd tmm4, [{a0} + {sa0}*1]",
                "tileloadd tmm5, [{a1} + {sa1}*1]",
                "tileloadd tmm6, [{b0} + {sb0}*1]",
                "tileloadd tmm7, [{b1} + {sb1}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm1, tmm4, tmm7",
                "tdpbssd tmm2, tmm5, tmm6",
                "tdpbssd tmm3, tmm5, tmm7",
                a0 = in(reg) a0.start,
                sa0 = in(reg) a0.stride,
                a1 = in(reg) a1.start,
                sa1 = in(reg) a1.stride,
                b0 = in(reg) b0.start,
                sb0 = in(reg) b0.stride,
                b1 = in(reg) b1.start,
                sb1 = in(reg) b1.stride,
                options(nostack, readonly, preserves_flags),
            );
        }
    }

    /// One k-step of a 16-row block: `C` tiles 0 and 1 only.
    fn step1(&self, a0: Rows<'_>, b0: Rows<'_>, b1: Rows<'_>) {
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`) and every load reads the 16 × 64 bytes a `Rows` checked.
        unsafe {
            asm!(
                "tileloadd tmm4, [{a0} + {sa0}*1]",
                "tileloadd tmm6, [{b0} + {sb0}*1]",
                "tileloadd tmm7, [{b1} + {sb1}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm1, tmm4, tmm7",
                a0 = in(reg) a0.start,
                sa0 = in(reg) a0.stride,
                b0 = in(reg) b0.start,
                sb0 = in(reg) b0.stride,
                b1 = in(reg) b1.start,
                sb1 = in(reg) b1.stride,
                options(nostack, readonly, preserves_flags),
            );
        }
    }

    /// Stores `C` tiles 0 and 1 — and 2 and 3 when `pair` — into rows
    /// `0..16` (and `16..32`) of `block`.
    fn store(&self, block: &mut Block, pair: bool) {
        let (c, stride) = (block.0.as_mut_ptr().cast::<i8>(), NR * 4);
        // fqlint::allow(unsafe-outside-kernels): the tiles are configured
        // (`self`); the stores cover rows `0..16` (`0..32` with `pair`) of
        // the 32 × 128-byte block, columns 0..64 and 64..128 bytes.
        unsafe {
            asm!(
                "tilestored [{c} + {s}*1], tmm0",
                "tilestored [{c} + {s}*1 + 64], tmm1",
                c = in(reg) c,
                s = in(reg) stride,
                options(nostack, preserves_flags),
            );
            if pair {
                asm!(
                    "tilestored [{c} + {s}*1 + 2048], tmm2",
                    "tilestored [{c} + {s}*1 + 2112], tmm3",
                    c = in(reg) c,
                    s = in(reg) stride,
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
