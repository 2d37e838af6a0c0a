//! Content-hash interning of model tables: load once, share everywhere.
//!
//! Dense multi-model serving loads several variants of one task — w4 and w8
//! encoders over the *same* embedding code tables and classifier head. A
//! [`TensorCache`] deduplicates those tables at load time: each candidate is
//! hashed over its exact bit content (FNV-1a over dims and element bit
//! patterns), and a hash hit is confirmed by full bitwise comparison before
//! the existing [`Arc`] is handed out — a hash collision can never alias
//! two different tables. The cache holds strong references, so interned
//! tables stay live for the cache's lifetime; a registry keeps one cache
//! per process and drops it with the registry.

use fqbert_tensor::{IntTensor, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Dedup statistics of one artifact load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Tables that resolved to an already-interned copy.
    pub shared_tensors: usize,
    /// Bytes those shared tables would have occupied if loaded privately.
    pub shared_bytes: usize,
}

/// Content-addressed intern table for float tensors and 8-bit code tables.
#[derive(Debug, Default)]
pub struct TensorCache {
    floats: HashMap<u64, Vec<Arc<Tensor>>>,
    codes: HashMap<u64, Vec<Arc<IntTensor<i8>>>>,
}

impl TensorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `tensor`: returns the already-cached [`Arc`] when a
    /// bit-identical tensor was interned before (second return `true`),
    /// otherwise caches this one and returns it (second return `false`).
    pub fn intern(&mut self, tensor: Tensor) -> (Arc<Tensor>, bool) {
        let bits = tensor
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes());
        let hash = content_hash(tensor.dims(), bits);
        intern_in(self.floats.entry(hash).or_default(), tensor, bitwise_eq)
    }

    /// [`TensorCache::intern`] for a table of 8-bit codes.
    pub fn intern_codes(&mut self, table: IntTensor<i8>) -> (Arc<IntTensor<i8>>, bool) {
        let bits = table.as_slice().iter().map(|&c| c as u8);
        let hash = content_hash(table.dims(), bits);
        intern_in(self.codes.entry(hash).or_default(), table, |a, b| a == b)
    }
}

/// The bucket's entry equal to `item` under `same`, or `item` added to it.
fn intern_in<T>(bucket: &mut Vec<Arc<T>>, item: T, same: fn(&T, &T) -> bool) -> (Arc<T>, bool) {
    if let Some(existing) = bucket.iter().find(|t| same(t, &item)) {
        return (Arc::clone(existing), true);
    }
    let fresh = Arc::new(item);
    bucket.push(Arc::clone(&fresh));
    (fresh, false)
}

/// FNV-1a (64-bit) over a table's shape and the bytes of its elements'
/// exact bit patterns.
fn content_hash(dims: &[usize], bytes: impl Iterator<Item = u8>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let shape = dims.iter().flat_map(|&d| (d as u64).to_le_bytes());
    shape.chain(bytes).fold(OFFSET, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(PRIME)
    })
}

/// Exact bit equality — unlike float `==`, distinguishes `-0.0` from `0.0`
/// and treats identical NaN patterns as equal, so interning never changes
/// what a model computes.
fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct tables interned.
    fn interned(cache: &TensorCache) -> usize {
        let floats: usize = cache.floats.values().map(Vec::len).sum();
        floats + cache.codes.values().map(Vec::len).sum::<usize>()
    }

    fn tensor(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).expect("valid tensor")
    }

    #[test]
    fn identical_tensors_share_one_allocation() {
        let mut cache = TensorCache::new();
        let (a, shared_a) = cache.intern(tensor(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let (b, shared_b) = cache.intern(tensor(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        assert!(!shared_a);
        assert!(shared_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interned(&cache), 1);
    }

    #[test]
    fn different_content_or_shape_stays_distinct() {
        let mut cache = TensorCache::new();
        let (a, _) = cache.intern(tensor(&[1.0, 2.0], &[2]));
        let (b, shared_b) = cache.intern(tensor(&[1.0, 2.5], &[2]));
        let (c, shared_c) = cache.intern(tensor(&[1.0, 2.0], &[2, 1]));
        assert!(!shared_b);
        assert!(!shared_c);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(interned(&cache), 3);
    }

    #[test]
    fn bit_patterns_matter_not_float_equality() {
        let mut cache = TensorCache::new();
        let (_, _) = cache.intern(tensor(&[0.0], &[1]));
        // -0.0 == 0.0 under float comparison, but its bit pattern differs:
        // it must intern as a distinct tensor.
        let (_, shared) = cache.intern(tensor(&[-0.0], &[1]));
        assert!(!shared);
        // The same NaN bit pattern is NaN != NaN under float comparison,
        // but bitwise-identical: it must share.
        let (_, _) = cache.intern(tensor(&[f32::NAN], &[1]));
        let (_, shared_nan) = cache.intern(tensor(&[f32::NAN], &[1]));
        assert!(shared_nan);
    }

    #[test]
    fn code_tables_share_by_content_and_stay_apart_from_floats() {
        let mut cache = TensorCache::new();
        let codes = |data: &[i8], dims: &[usize]| {
            IntTensor::from_vec(data.to_vec(), dims).expect("valid table")
        };
        let (a, shared_a) = cache.intern_codes(codes(&[1, -2, 3, 4], &[2, 2]));
        let (b, shared_b) = cache.intern_codes(codes(&[1, -2, 3, 4], &[2, 2]));
        let (_, shared_c) = cache.intern_codes(codes(&[1, -2, 3, 4], &[4, 1]));
        let (_, shared_d) = cache.intern_codes(codes(&[1, -2, 3, 5], &[2, 2]));
        assert!(!shared_a && shared_b && !shared_c && !shared_d);
        assert!(Arc::ptr_eq(&a, &b));
        let (_, shared_float) = cache.intern(tensor(&[1.0, 2.0], &[2]));
        assert!(!shared_float);
        assert_eq!(interned(&cache), 4);
    }
}
