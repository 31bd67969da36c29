//! Fixture crate for `dead-field`: four seeded findings, four silent
//! cases (`Knobs` three, `Tally` one), and one struct kept by an allow.

#![forbid(unsafe_code)]

pub struct OnlyDefault { // line 6: dead-field, `level` is set only in Default and a test
    pub level: u32,
}
impl Default for OnlyDefault { fn default() -> Self { Self { level: 3 } } }

pub struct OnlyNew { // line 11: dead-field, `ratio` is set only from a literal in `new`
    pub size: usize,
    pub ratio: f64,
}
impl OnlyNew { pub fn new(size: usize) -> Self { Self { size, ratio: 0.5 } } }

pub enum Mode {
    Live,
    Tested,  // line 19: dead-field, built only in a test
    Matched, // line 20: dead-field, only matched
}

/// `depth` is set by a builder non-test code calls, `width` by a struct
/// literal in the clean crate, `tag` only in `perfbench/src`.
pub struct Knobs {
    pub depth: usize,
    pub width: usize,
    pub tag: u8,
}
impl Default for Knobs { fn default() -> Self { Self { depth: 1, width: 2, tag: 0 } } }
impl Knobs { pub fn with_depth(mut self, depth: usize) -> Self { self.depth = depth; self } }

/// Its producer fills it with computed values.
pub struct Tally { pub count: usize, pub mean: f64 }
pub fn tally(xs: &[f64]) -> Tally { Tally { count: xs.len(), mean: xs.iter().sum::<f64>() } }

// analyzer: allow(dead-field) — fixture: `kept_limit` needs a second value
pub struct Kept { pub limit: u32 }
impl Default for Kept { fn default() -> Self { Self { limit: 1 } } }

/// Names every pub item above; the clean crate calls it.
pub fn exercise() -> usize {
    let matched = match Mode::Live { Mode::Matched => 1, Mode::Live | Mode::Tested => 0 };
    let (knobs, only_new) = (Knobs::default().with_depth(8), OnlyNew::new(4));
    matched + knobs.depth + only_new.size + only_new.ratio as usize + tally(&[1.0]).count
        + (OnlyDefault::default().level + Kept::default().limit) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_limit() {
        let _ = (OnlyDefault { level: 7 }, Mode::Tested);
        assert_eq!(Kept { limit: 9 }.limit, 9);
    }
}
