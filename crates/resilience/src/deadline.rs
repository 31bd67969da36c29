//! Per-request deadlines.
//!
//! A deadline travels as a *remaining budget* (microseconds) in the RPC
//! request frame — relative budgets survive the lack of a shared clock
//! between client and server — and is pinned to an absolute [`Instant`]
//! the moment the receiving side decodes it. Work whose deadline has
//! expired is shed instead of executed: a reply the client has already
//! given up on is pure waste.

use std::time::{Duration, Instant};

/// An absolute expiry for one unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    expires: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            expires: Instant::now() + budget,
        }
    }

    /// A deadline from a wire budget in microseconds (`0` means
    /// "no deadline" on the wire, so callers should gate on that first).
    pub fn from_budget_us(budget_us: u64) -> Self {
        Self::after(Duration::from_micros(budget_us))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.expires
    }

    /// Time left before expiry (`None` once expired).
    pub fn remaining(&self) -> Option<Duration> {
        let now = Instant::now();
        if now >= self.expires {
            None
        } else {
            Some(self.expires - now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_is_unexpired() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(59));
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn wire_budget_round_trips() {
        let d = Deadline::from_budget_us(500_000);
        let back = d.remaining().unwrap();
        assert!(
            back <= Duration::from_micros(500_000) && back > Duration::from_micros(400_000),
            "back={back:?}"
        );
    }
}
