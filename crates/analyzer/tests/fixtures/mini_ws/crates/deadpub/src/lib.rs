//! Fixture crate for `dead-pub`: four seeded dead items, two live ones,
//! and one kept by an allow.

#![forbid(unsafe_code)]

pub use inner::only_reexported;

mod inner {
    pub fn only_reexported() {} // line 9: dead-pub, a re-export is no use
}

pub fn only_unit_tested() -> u8 { // line 12: dead-pub, only the test module calls it
    1
}

pub fn only_integration_tested() -> u8 { // line 16: dead-pub, only tests/it.rs calls it
    2
}

pub fn recursive(n: u32) -> u32 { // line 20: dead-pub, only its own body calls it
    if n == 0 { 0 } else { recursive(n - 1) }
}

/// Called from the clean crate's non-test code.
pub fn used_by_other_crate() {}

/// Called only from `perfbench/src`, which is read for references.
pub fn used_by_perfbench() {}

// analyzer: allow(dead-pub) — fixture: intended API for a caller outside the workspace
pub fn kept_on_purpose() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit() {
        assert_eq!(only_unit_tested(), 1);
    }
}
