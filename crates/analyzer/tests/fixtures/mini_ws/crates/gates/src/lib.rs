//! Fixture crate with unsafe-hygiene and feature-gate violations.

#[cfg(feature = "fault-injection")] // line 3: feature-gate, undeclared
pub fn inject() {}

fn peek(v: &[u8]) -> u8 {
    unsafe { *v.as_ptr() } // line 7: unsafe-comment, no SAFETY comment
}
