//! The `table` entry of every kernel row against the scalar row, byte for
//! byte: every available [`KernelKind`] through [`kernels::dispatch_for`]
//! (nothing is forced, so these tests need no serialisation), on every
//! code, every run length up to 130 — both sides of the 64-code vector
//! and of two — at odd offsets into a buffer whose bytes beside the run
//! are sentinels that must stay as they were.

use fqbert_tensor::gemm::kernels::{self, scalar};

/// A table that is no simple function of its index, and the identity and a
/// constant, so a wrong index or a wrong half shows.
fn tables() -> [(&'static str, [i8; 256]); 3] {
    let mixed = std::array::from_fn(|i| ((i * 167 + 91) % 256) as u8 as i8);
    let identity = std::array::from_fn(|i| (i as u8 ^ 0x80) as i8);
    [
        ("mixed", mixed),
        ("identity", identity),
        ("constant", [-7; 256]),
    ]
}

/// A run of codes that steps through the byte range by 113: any 256
/// consecutive ones are every code once.
fn codes(len: usize) -> Vec<i8> {
    (0..len)
        .map(|i| ((i * 113 + 5) % 256) as u8 as i8)
        .collect()
}

const SENTINEL: i8 = 0x5A;
const PAD: usize = 67;

#[test]
fn every_table_row_equals_the_scalar_row_byte_for_byte() {
    let available = kernels::available();
    let names: Vec<_> = available.iter().map(|k| k.name()).collect();
    println!("kernels::available() = {names:?}");
    for (name, table) in tables() {
        for len in 0..=130 {
            for offset in [1usize, 3, 63] {
                let input = codes(len + offset);
                let input = &input[offset..];
                let mut expected = input.to_vec();
                scalar::table_row(&table, &mut expected);
                for &kind in &available {
                    let mut buffer = vec![SENTINEL; offset + len + PAD];
                    buffer[offset..offset + len].copy_from_slice(input);
                    (kernels::dispatch_for(kind).table)(&table, &mut buffer[offset..offset + len]);
                    let context =
                        format!("{} row, {name} table, {len} codes at {offset}", kind.name());
                    assert_eq!(&buffer[offset..offset + len], &expected[..], "{context}");
                    assert!(
                        buffer[..offset].iter().all(|&b| b == SENTINEL),
                        "{context}: a byte before the run changed"
                    );
                    assert!(
                        buffer[offset + len..].iter().all(|&b| b == SENTINEL),
                        "{context}: a byte after the run changed"
                    );
                }
            }
        }
    }
}

/// Every code once, through every row: each becomes `table[code + 128]`.
#[test]
fn every_code_looks_up_its_own_entry() {
    let (_, table) = tables()[0];
    let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
    let expected: Vec<i8> = all
        .iter()
        .map(|&c| table[usize::from(c.cast_unsigned() ^ 0x80)])
        .collect();
    for kind in kernels::available() {
        let mut got = all.clone();
        (kernels::dispatch_for(kind).table)(&table, &mut got);
        assert_eq!(got, expected, "{}", kind.name());
    }
}
