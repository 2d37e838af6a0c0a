pub fn bad_type(x: f32) -> f32 {
    let y = 1.5;
    let z = (x as f64).sqrt();
    y + z as f32
}

// fqlint::allow(float-escape): boundary item — scale conversion happens once at build time
pub fn boundary(scale: f32) -> f32 {
    scale * 0.5
}

pub fn trailing() -> f32 {
    1.0 // fqlint::allow(float-escape): trailing comments cover only their own line
}

// fqlint::allow(float-escape)
pub fn missing_justification() {}

// fqlint::allow(not-a-rule): the rule name is unknown
pub fn unknown_rule() {}

pub fn inferred(raw: i32) -> i32 {
    let x = Fixed::from_f32(scale_of(raw), 16);
    x.raw()
}
