//! Software cost of the BIM datapath model (Fig. 4 companion): 8b×4b vs
//! 8b×8b modes and Type A vs Type B variants, nanoseconds per 768-element
//! dot product. Run with `cargo bench -p fqbert-bench --bench bim`.

use fqbert_accel::bim::Bim;
use fqbert_accel::config::BimVariant;
use fqbert_bench::time_ns;
use std::hint::black_box;

fn main() {
    let len = 768usize;
    let activations: Vec<i8> = (0..len).map(|i| ((i * 37) % 255) as i8).collect();
    let weights4: Vec<i8> = (0..len).map(|i| ((i * 13) % 15) as i8 - 7).collect();
    let weights8: Vec<i8> = (0..len).map(|i| ((i * 29) % 255) as i8).collect();

    for m in [8usize, 16, 32] {
        for variant in [BimVariant::TypeA, BimVariant::TypeB] {
            let bim = Bim::new(m, variant);
            let ns_8x4 = time_ns(|| bim.dot_8x4(black_box(&activations), black_box(&weights4)));
            let ns_8x8 = time_ns(|| bim.dot_8x8(black_box(&activations), black_box(&weights8)));
            println!(
                "bim_dot_product m={m:<2} {variant:?}: 8x4 {ns_8x4:>8.1} ns, 8x8 {ns_8x8:>8.1} ns"
            );
        }
    }
}
