//! Fixture unsafe-free crate that forgets `#![forbid(unsafe_code)]`
//! (unsafe-forbid fires at line 1).

fn id(x: u8) -> u8 {
    x
}
