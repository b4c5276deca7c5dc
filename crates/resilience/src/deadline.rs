//! Propagated per-request deadline budgets, and deadline-aware request
//! hedging.
//!
//! A deadline is an *absolute* virtual-time instant carried down a
//! request's call tree: every retry loop, backoff sleep, and hedged
//! duplicate must fit inside it. This replaces unbounded retry loops —
//! the failure mode the paper's composed-by-queues applications exhibit
//! when a dependency browns out — with a clean, declared failure at a
//! known time.

use std::future::Future;

use faasim_simcore::{select2, Either, Sim, SimDuration, SimTime};

/// An absolute virtual-time budget for one request, cheap to copy and
/// pass down a call tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: SimTime,
}

impl Deadline {
    /// A deadline at the absolute instant `at`.
    pub fn at(at: SimTime) -> Deadline {
        Deadline { at }
    }

    /// A deadline `budget` from the simulation's current instant.
    pub fn within(sim: &Sim, budget: SimDuration) -> Deadline {
        Deadline {
            at: sim.now().saturating_add(budget),
        }
    }

    /// No budget at all: never expires, never caps a call. Pass it to a
    /// retrying client that only its policy should bound.
    pub fn unbounded() -> Deadline {
        Deadline { at: SimTime::MAX }
    }

    /// Whether this is the [`Deadline::unbounded`] sentinel.
    pub fn is_unbounded(&self) -> bool {
        self.at == SimTime::MAX
    }

    /// The absolute expiry instant.
    pub fn expires_at(&self) -> SimTime {
        self.at
    }

    /// Budget left right now (zero once expired; [`SimDuration::MAX`]-ish
    /// for unbounded deadlines).
    pub fn remaining(&self, sim: &Sim) -> SimDuration {
        self.at.duration_since(sim.now())
    }

    /// Whether the budget has run out.
    pub fn is_expired(&self, sim: &Sim) -> bool {
        !self.is_unbounded() && self.remaining(sim) == SimDuration::ZERO
    }

    /// A sub-budget: the earlier of this deadline and `budget` from now.
    /// Use when a step of a request deserves only a slice of the whole.
    pub fn min_budget(&self, sim: &Sim, budget: SimDuration) -> Deadline {
        let capped = sim.now().saturating_add(budget);
        Deadline {
            at: self.at.min(capped),
        }
    }
}

/// Race a hedged duplicate against a slow primary, inside `deadline`.
///
/// `make(0)` builds the primary attempt; if it has not finished after
/// `hedge_after`, `make(1)` builds a duplicate and the two race — the
/// loser is dropped (canceled at its next await point). Returns the
/// winning value and which attempt produced it, or `None` if the
/// deadline expired first.
///
/// Hedging trades duplicate work for tail latency, so the duplicate's
/// side effects must be idempotent — pair this with
/// [`crate::IdempotencyStore`] when the attempt writes anywhere.
pub async fn hedged<T, Fut>(
    sim: &Sim,
    hedge_after: SimDuration,
    deadline: Deadline,
    mut make: impl FnMut(u32) -> Fut,
) -> Option<(T, u32)>
where
    Fut: Future<Output = T>,
{
    let sim2 = sim.clone();
    let race = async move {
        let primary = make(0);
        let backup = async {
            sim2.sleep(hedge_after).await;
            make(1).await
        };
        match select2(primary, backup).await {
            Either::Left(v) => (v, 0),
            Either::Right(v) => (v, 1),
        }
    };
    if deadline.is_unbounded() {
        Some(race.await)
    } else {
        let remaining = deadline.remaining(sim);
        if remaining == SimDuration::ZERO {
            return None;
        }
        sim.timeout(remaining, race).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_saturates() {
        let sim = Sim::new(3);
        let d = Deadline::within(&sim, SimDuration::from_secs(5));
        assert_eq!(d.remaining(&sim), SimDuration::from_secs(5));
        assert!(!d.is_expired(&sim));
        let sim2 = sim.clone();
        sim.block_on(async move {
            sim2.sleep(SimDuration::from_secs(7)).await;
        });
        assert_eq!(d.remaining(&sim), SimDuration::ZERO);
        assert!(d.is_expired(&sim));
    }

    #[test]
    fn unbounded_never_expires() {
        let sim = Sim::new(3);
        let d = Deadline::unbounded();
        assert!(d.is_unbounded());
        assert!(!d.is_expired(&sim));
    }

    #[test]
    fn min_budget_takes_the_earlier_expiry() {
        let sim = Sim::new(3);
        let outer = Deadline::within(&sim, SimDuration::from_secs(10));
        let step = outer.min_budget(&sim, SimDuration::from_secs(2));
        assert_eq!(step.remaining(&sim), SimDuration::from_secs(2));
        let wide = outer.min_budget(&sim, SimDuration::from_secs(60));
        assert_eq!(wide.expires_at(), outer.expires_at());
    }

    #[test]
    fn hedge_fires_only_when_primary_is_slow() {
        let sim = Sim::new(3);
        let sim2 = sim.clone();
        let got = sim.block_on(async move {
            let s = sim2.clone();
            hedged(
                &sim2,
                SimDuration::from_millis(100),
                Deadline::unbounded(),
                move |attempt| {
                    let s = s.clone();
                    async move {
                        // The primary is slow; the hedge answers first.
                        let d = if attempt == 0 {
                            SimDuration::from_secs(10)
                        } else {
                            SimDuration::from_millis(50)
                        };
                        s.sleep(d).await;
                        attempt * 10
                    }
                },
            )
            .await
        });
        assert_eq!(got, Some((10, 1)));
        assert_eq!(
            sim.now(),
            SimTime::ZERO + SimDuration::from_millis(150),
            "hedge delay + hedge latency, not the slow primary"
        );
    }

    #[test]
    fn hedge_respects_the_deadline() {
        let sim = Sim::new(3);
        let sim2 = sim.clone();
        let got: Option<(u32, u32)> = sim.block_on(async move {
            let s = sim2.clone();
            let deadline = Deadline::within(&sim2, SimDuration::from_millis(20));
            hedged(&sim2, SimDuration::from_millis(5), deadline, move |_| {
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_secs(1)).await;
                    1
                }
            })
            .await
        });
        assert_eq!(got, None);
    }
}
