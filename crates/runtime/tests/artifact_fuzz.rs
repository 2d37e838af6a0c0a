//! Seeded mutational fuzz of the artifact parser.
//!
//! Mutants of two small valid artifacts (w4 and w8) are fed to
//! `ModelArtifact::from_bytes`:
//!
//! * the payload truncated at every section boundary and one byte either
//!   side of it;
//! * every length, count and dimension field inflated (or zeroed);
//! * random byte flips, random 64-bit overwrites and random cuts.
//!
//! Every mutant but the first set of flips has its CRC re-sealed, so it
//! gets past the checksum into the section parsers. A mutant must be
//! refused with an error or load as a model that writes back the very same
//! bytes and runs a forward pass without panicking — never panic — and a
//! parse may allocate at most a small multiple of the input's length,
//! counted by a thread-local counting allocator (the pattern of
//! `fqbert-core`'s `alloc_steady_state` test). The fixed corpus runs in a
//! few seconds; `cargo test --release -p fqbert-runtime --test
//! artifact_fuzz -- --ignored` runs a longer seeded budget.

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, QatHook};
use fqbert_nlp::{Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::artifact::crc32;
use fqbert_runtime::ModelArtifact;
use fqbert_tensor::RngSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

struct CountingAllocator;

thread_local! {
    /// Bytes this thread has asked for (fresh blocks and the new size of
    /// every grown one).
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The parse may ask for this many bytes per input byte, plus
/// [`ALLOC_SLACK`]: one copy of the file into its shared buffer, one of
/// the decoded tables and biases, the vocabulary's strings and maps.
const ALLOC_PER_INPUT_BYTE: u64 = 8;
/// Fixed allocation allowance of one parse (error messages, the
/// vocabulary map's first buckets).
const ALLOC_SLACK: u64 = 16 * 1024;

/// A valid artifact of a small model: hidden 8, one layer, 24 words.
fn artifact(quant: QuantConfig, seed: u64) -> Vec<u8> {
    let config = BertConfig {
        vocab_size: 28,
        hidden: 8,
        layers: 1,
        heads: 2,
        intermediate: 16,
        max_len: 12,
        type_vocab_size: 2,
        num_classes: 2,
        layer_norm_eps: 1e-5,
    };
    let words: Vec<String> = (0..config.vocab_size - 4)
        .map(|i| format!("w{i}"))
        .collect();
    let vocab = Vocab::from_tokens(&words);
    let model = BertModel::new(config, seed);
    let calibration: Vec<Example> = (0..4usize)
        .map(|i| {
            let tokens = vec![2, 4 + i, 9 + (i * 3) % 12, 6, 3];
            Example {
                segment_ids: vec![0; tokens.len()],
                attention_mask: vec![1; tokens.len()],
                token_ids: tokens,
                label: 0,
            }
        })
        .collect();
    let hook = QatHook::calibrated(&model, quant, &calibration).expect("calibration");
    let int_model = convert(&model, &hook).expect("conversion");
    ModelArtifact::new(TaskKind::Sst2, int_model, Tokenizer::new(vocab, 12)).to_bytes()
}

/// Where the fields of a v3 file sit, found by walking the format: every
/// section boundary, and every length, count or dimension field with its
/// width in bytes.
#[derive(Default)]
struct Fields {
    boundaries: Vec<usize>,
    sizes: Vec<(usize, usize)>,
    /// The encoder's layer count, which must equal the config's.
    layers_at: usize,
}

struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
    fields: Fields,
}

impl Walk<'_> {
    fn skip(&mut self, n: usize) {
        self.pos += n;
    }
    fn boundary(&mut self) {
        self.fields.boundaries.push(self.pos);
    }
    fn u32(&mut self) -> usize {
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v as usize
    }
    fn u64(&mut self) -> usize {
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v as usize
    }
    fn size32(&mut self) -> usize {
        self.fields.sizes.push((self.pos, 4));
        self.u32()
    }
    fn size64(&mut self) -> usize {
        self.fields.sizes.push((self.pos, 8));
        self.u64()
    }
    /// A rank-prefixed dim list; returns the element count.
    fn dims(&mut self) -> usize {
        let rank = self.size32();
        (0..rank).map(|_| self.size64()).product()
    }
    fn layer_norm(&mut self) {
        for _ in 0..2 {
            let n = self.size64();
            self.skip(n);
        }
        self.skip(4);
        self.boundary();
    }
}

fn fields(bytes: &[u8]) -> Fields {
    let mut w = Walk {
        bytes,
        pos: 8,
        fields: Fields::default(),
    };
    w.boundary();
    w.skip(1); // task
    w.boundary();
    for _ in 0..8 {
        w.size64(); // config
    }
    w.skip(4); // eps
    w.boundary();
    w.skip(8); // embedding output scale, weight bits
    w.boundary();
    for _ in 0..2 {
        w.skip(4); // table scale
        let n = w.dims();
        w.skip(n);
        w.boundary();
    }
    w.layer_norm();
    for _ in 0..2 {
        let n = w.dims(); // classifier weight, bias
        w.skip(4 * n);
        w.boundary();
    }
    w.fields.layers_at = w.pos;
    let layers = w.size64();
    w.boundary();
    for _ in 0..layers {
        w.size64(); // heads
        w.skip(9 * 4);
        w.boundary();
        for _ in 0..6 {
            let bits = w.u32();
            w.skip(3 * 4);
            let n = w.dims();
            w.skip(if bits <= 4 { n.div_ceil(2) } else { n });
            let bias = w.dims();
            w.skip(4 * bias);
            w.boundary();
        }
        w.layer_norm();
        w.layer_norm();
    }
    let words = w.size64();
    w.boundary();
    for _ in 0..words {
        let len = w.size64();
        w.skip(len);
        w.boundary();
    }
    w.size64(); // tokenizer max_len
    assert_eq!(w.pos, bytes.len() - 4, "the walk must cover the payload");
    w.boundary();
    w.fields
}

/// `payload` (everything after magic and version, without the CRC) framed
/// as a file with a fresh CRC.
fn sealed(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut file = header[..8].to_vec();
    file.extend_from_slice(payload);
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file
}

/// `file` with its CRC recomputed over its payload.
fn resealed(mut file: Vec<u8>) -> Vec<u8> {
    let end = file.len() - 4;
    let crc = crc32(&file[8..end]);
    file[end..].copy_from_slice(&crc.to_le_bytes());
    file
}

/// Parses `mutant`: no panic, bounded allocation, and either an error or
/// a model that writes `mutant` back and survives a forward pass. Returns
/// whether it loaded.
fn check(what: &str, mutant: &[u8]) -> bool {
    let before = REQUESTED.with(Cell::get);
    let parsed = catch_unwind(AssertUnwindSafe(|| ModelArtifact::from_bytes(mutant)))
        .unwrap_or_else(|_| panic!("{what}: the parser panicked"));
    let requested = REQUESTED.with(Cell::get) - before;
    let bound = ALLOC_PER_INPUT_BYTE * mutant.len() as u64 + ALLOC_SLACK;
    assert!(
        requested <= bound,
        "{what}: a {}-byte input made the parser ask for {requested} bytes (bound {bound})",
        mutant.len()
    );
    let Ok(artifact) = parsed else {
        return false;
    };
    assert!(
        artifact.to_bytes() == mutant,
        "{what}: loaded, but does not write back the same bytes"
    );
    let forward = catch_unwind(AssertUnwindSafe(|| {
        let _ = artifact.model.forward_logits(&[2, 5, 7, 3], &[0, 1, 1, 0]);
    }));
    assert!(
        forward.is_ok(),
        "{what}: loaded, then a forward pass panicked"
    );
    true
}

/// The structured mutants of `bytes`: truncation at and around every
/// section boundary, and every size field set to hostile values.
fn structured(name: &str, bytes: &[u8]) -> usize {
    let Fields {
        boundaries,
        sizes,
        layers_at,
    } = fields(bytes);
    let payload_end = bytes.len() - 4;
    let mut loaded = 0;
    for &at in &boundaries {
        for cut in [at.saturating_sub(1), at, at + 1] {
            let cut = cut.clamp(8, payload_end);
            let mutant = sealed(bytes, &bytes[8..cut]);
            loaded += usize::from(check(&format!("{name} cut at {cut}"), &mutant));
        }
    }
    for &(at, width) in &sizes {
        let stored = if width == 4 {
            u64::from(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()))
        } else {
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        };
        let remaining = (payload_end - at) as u64;
        for value in [
            0,
            1,
            stored + 1,
            stored * 2,
            remaining,
            remaining + 1,
            u64::from(u32::MAX),
            1 << 32,
            1 << 62,
            u64::MAX,
        ]
        .into_iter()
        .filter(|&value| value != stored)
        {
            let mut mutant = bytes.to_vec();
            mutant[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            let mutant = resealed(mutant);
            loaded += usize::from(check(&format!("{name} field at {at} = {value}"), &mutant));
        }
    }
    // The config's layer count and the encoder's, inflated together, so
    // the count passes its one check against the config.
    const CONFIG_LAYERS_AT: usize = 8 + 1 + 2 * 8;
    for value in [1u64 << 32, 1 << 40, u64::MAX] {
        let mut mutant = bytes.to_vec();
        for at in [CONFIG_LAYERS_AT, layers_at] {
            mutant[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let what = format!("{name} config and encoder layer counts = {value}");
        assert!(!check(&what, &resealed(mutant)), "{what} loaded");
    }
    assert!(boundaries.len() > 40 && sizes.len() > 40);
    loaded
}

/// `count` random mutants of `bytes` from `seed`: 1–4 byte flips, a random
/// 64-bit overwrite or a random cut, re-sealed — except every eighth
/// flipped mutant, left with its stale CRC, which must be refused.
fn random(name: &str, bytes: &[u8], seed: u64, count: usize) -> usize {
    let mut rng = RngSource::seed_from_u64(seed);
    let payload_end = bytes.len() - 4;
    let mut loaded = 0;
    for i in 0..count {
        let mut mutant = bytes.to_vec();
        let kind = rng.usize_in(0, 3);
        match kind {
            0 => {
                for _ in 0..rng.usize_in(1, 5) {
                    let at = rng.usize_in(8, payload_end);
                    mutant[at] ^= rng.usize_in(1, 256) as u8;
                }
            }
            1 => {
                let at = rng.usize_in(8, payload_end - 8);
                mutant[at..at + 8].copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            _ => {
                let cut = rng.usize_in(8, payload_end);
                mutant = sealed(bytes, &bytes[8..cut]);
            }
        }
        let stale = kind == 0 && i % 8 == 0;
        let mutant = if stale { mutant } else { resealed(mutant) };
        let what = format!("{name} seed {seed} mutant {i}");
        let ok = check(&what, &mutant);
        assert!(!(stale && ok), "{what}: loaded with a stale CRC");
        loaded += usize::from(ok);
    }
    loaded
}

#[test]
fn every_section_cut_and_inflated_field_is_refused_without_panicking() {
    for (name, quant) in [("w4", QuantConfig::fq_bert()), ("w8", QuantConfig::w8a8())] {
        let bytes = artifact(quant, 5);
        assert!(check(&format!("{name} as written"), &bytes));
        let loaded = structured(name, &bytes);
        // A cut or a wrong size never leaves a consistent file, except
        // where it rewrites a field with its own value.
        assert!(loaded <= 4, "{name}: {loaded} structured mutants loaded");
    }
}

#[test]
fn random_mutants_are_refused_or_load_consistently() {
    for (name, quant) in [("w4", QuantConfig::fq_bert()), ("w8", QuantConfig::w8a8())] {
        random(name, &artifact(quant, 7), 1, 1500);
    }
}

/// The longer budget (about half a minute in release).
#[test]
#[ignore]
fn random_mutants_longer_budget() {
    for (name, quant) in [("w4", QuantConfig::fq_bert()), ("w8", QuantConfig::w8a8())] {
        let bytes = artifact(quant, 9);
        for seed in 100..120 {
            random(name, &bytes, seed, 10_000);
        }
    }
}
