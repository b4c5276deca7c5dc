//! Exponential backoff with bounded jitter, and the workspace's one
//! retry loop.
//!
//! The paper's §2 compositions only work because every client retries:
//! SQS is at-least-once, DynamoDB throttles, S3 returns 503 SlowDown.
//! [`RetryPolicy`] is that discipline made explicit — and, because the
//! jitter comes from a named simulation RNG stream, made deterministic.
//! [`RetryPolicy::run_within`] drives every retrying client: every
//! backoff sleep and attempt limit fits inside a propagated
//! [`Deadline`], and a [`Verdict`] classifier decides which errors are
//! retried and how early a retry may fire.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use faasim_simcore::{Sim, SimDuration, SimRng, SimTime};

use crate::deadline::Deadline;

/// Why a retried operation ultimately failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Every attempt failed transiently; `last` is the final error.
    Exhausted {
        /// Attempts made: the policy's `max_attempts`, or fewer when,
        /// under an unbounded deadline, the last error named a retry
        /// instant that never comes.
        attempts: u32,
        /// The error from the final attempt.
        last: E,
    },
    /// Every attempt failed and the final one hit the per-call timeout.
    TimedOut {
        /// Attempts made.
        attempts: u32,
    },
    /// The deadline budget ran out before an attempt could succeed.
    /// Only produced under a bounded [`Deadline`].
    DeadlineExceeded {
        /// Attempts made before the budget expired.
        attempts: u32,
    },
    /// A non-transient error: surfaced immediately, never retried.
    Fatal(E),
}

impl<E> RetryError<E> {
    /// The underlying error when this is [`RetryError::Fatal`].
    pub fn as_fatal(&self) -> Option<&E> {
        match self {
            RetryError::Fatal(e) => Some(e),
            _ => None,
        }
    }

    /// The final underlying error, if one exists (timeouts and expired
    /// deadlines have none).
    pub fn into_inner(self) -> Option<E> {
        match self {
            RetryError::Exhausted { last, .. } | RetryError::Fatal(last) => Some(last),
            RetryError::TimedOut { .. } | RetryError::DeadlineExceeded { .. } => None,
        }
    }

    /// Whether the failure was the deadline budget expiring rather than
    /// the operation itself failing for good.
    pub fn is_deadline(&self) -> bool {
        matches!(self, RetryError::DeadlineExceeded { .. })
    }
}

impl<E: fmt::Display> fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            RetryError::TimedOut { attempts } => {
                write!(f, "gave up after {attempts} attempts: call timed out")
            }
            RetryError::DeadlineExceeded { attempts } => {
                write!(f, "deadline budget expired after {attempts} attempts")
            }
            RetryError::Fatal(e) => write!(f, "fatal (not retried): {e}"),
        }
    }
}

/// Exponential backoff with bounded jitter and optional per-call
/// timeouts.
///
/// Attempt `k` (zero-based) sleeps [`RetryPolicy::delay`]`(k)` before
/// retrying, where the deterministic spine is
/// `backoff(k) = min(cap, base * factor^k)` and jitter scales it by a
/// uniform factor in `[1 - jitter, 1 + jitter]`. With `jitter == 0` no
/// randomness is consumed at all.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Multiplier per retry (clamped to ≥ 1, so backoff never shrinks).
    pub factor: f64,
    /// Ceiling on the deterministic backoff spine.
    pub cap: SimDuration,
    /// Jitter fraction in `[0, 1]`: the slept delay is
    /// `backoff * uniform(1 - jitter, 1 + jitter)`.
    pub jitter: f64,
    /// If set, each attempt is raced against this virtual-time deadline
    /// and a late response is treated as a transient failure. Only the
    /// storage and queue clients race it: the invoke clients
    /// ([`crate::RetryingInvoker`] and the gateway's retrying client)
    /// ignore it, because an in-flight invocation is never canceled
    /// from outside (the function's own timeout bounds it).
    pub call_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base: SimDuration::from_millis(50),
            factor: 2.0,
            cap: SimDuration::from_secs(10),
            jitter: 0.5,
            call_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — useful as a control.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic backoff spine for zero-based attempt `k`:
    /// `min(cap, base * factor^k)`. Non-decreasing in `k` and never
    /// above `cap`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = if self.factor.is_finite() {
            self.factor.max(1.0)
        } else {
            1.0
        };
        let exp = attempt.min(i32::MAX as u32) as i32;
        let raw = self.base.as_secs_f64() * factor.powi(exp);
        let capped = raw.min(self.cap.as_secs_f64());
        SimDuration::from_secs_f64(capped)
    }

    /// The actual delay slept before retry `attempt`: the backoff spine
    /// scaled by a uniform factor in `[1 - jitter, 1 + jitter]`. Draws
    /// from `rng` only when `jitter > 0`.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let b = self.backoff(attempt);
        let j = if self.jitter.is_finite() {
            self.jitter.clamp(0.0, 1.0)
        } else {
            0.0
        };
        if j == 0.0 {
            return b;
        }
        let scale = rng.uniform(1.0 - j, 1.0 + j);
        SimDuration::from_secs_f64(b.as_secs_f64() * scale)
    }

    /// Drive `op` to success or final failure inside `deadline`: the
    /// workspace's one retry loop, which every retrying client calls.
    ///
    /// `op(limit)` builds a fresh attempt, where `limit` is the policy's
    /// `call_timeout` capped at the budget left (`None` when neither
    /// bounds it). The attempt resolves to `None` if it gave up at that
    /// limit: storage and queue clients race it, invoke
    /// clients ignore it, since an in-flight invocation is never canceled
    /// from outside.
    ///
    /// `classify` decides what a failed attempt means: [`Verdict::Fatal`]
    /// surfaces at once; [`Verdict::Retry`] backs off by
    /// [`RetryPolicy::delay`] but never past its `not_before`. A backoff
    /// that would cross a bounded deadline ends the loop with
    /// [`RetryError::DeadlineExceeded`]; with no deadline that happens
    /// only when `not_before` never comes, and the loop surfaces the
    /// last error. The shared `rng` is only borrowed between attempts
    /// (never across an `.await`), so one stream can serve many callers.
    //
    // A plain fn returning an `async move` block: an `async fn` would
    // store its arguments twice, and this future is part of every
    // in-flight invocation.
    pub fn run_within<'a, T, E, Fut>(
        &'a self,
        sim: &'a Sim,
        rng: &'a Rc<RefCell<SimRng>>,
        deadline: Deadline,
        classify: impl Fn(&E) -> Verdict + 'a,
        mut op: impl FnMut(Option<SimDuration>) -> Fut + 'a,
    ) -> impl Future<Output = Result<T, RetryError<E>>> + 'a
    where
        T: 'a,
        E: 'a,
        Fut: Future<Output = Option<Result<T, E>>> + 'a,
    {
        let attempts = self.max_attempts.max(1);
        async move {
            let mut last = None;
            // SimTime::ZERO is "no constraint".
            let mut not_before = SimTime::ZERO;
            for attempt in 0..attempts {
                if attempt > 0 {
                    let d = self
                        .delay(attempt - 1, &mut rng.borrow_mut())
                        .max(not_before.duration_since(sim.now()));
                    if deadline.remaining(sim) <= d {
                        if deadline.is_unbounded() {
                            break;
                        }
                        return Err(RetryError::DeadlineExceeded { attempts: attempt });
                    }
                    sim.sleep(d).await;
                }
                let remaining = deadline.remaining(sim);
                if remaining == SimDuration::ZERO {
                    return Err(RetryError::DeadlineExceeded { attempts: attempt });
                }
                let limit = if deadline.is_unbounded() {
                    self.call_timeout
                } else {
                    Some(self.call_timeout.map_or(remaining, |t| t.min(remaining)))
                };
                let attempts = attempt + 1;
                match op(limit).await {
                    Some(Ok(v)) => return Ok(v),
                    Some(Err(e)) => match classify(&e) {
                        Verdict::Retry { not_before: at } => {
                            not_before = at.unwrap_or(SimTime::ZERO);
                            last = Some(RetryError::Exhausted { attempts, last: e });
                        }
                        Verdict::Fatal => return Err(RetryError::Fatal(e)),
                    },
                    None if deadline.is_expired(sim) => {
                        return Err(RetryError::DeadlineExceeded { attempts })
                    }
                    None => {
                        not_before = SimTime::ZERO;
                        last = Some(RetryError::TimedOut { attempts });
                    }
                }
            }
            Err(last.expect("max_attempts >= 1 guarantees one attempt"))
        }
    }
}

/// What [`RetryPolicy::run_within`] does with a failed attempt's error.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Transient: back off and retry, but never before `not_before`
    /// when the failing stage named the instant capacity returns.
    Retry {
        /// Earliest instant a retry could succeed, if known.
        not_before: Option<SimTime>,
    },
    /// Not transient: surfaced at once, never retried.
    Fatal,
}

impl Verdict {
    /// The classifier that retries exactly the errors `is_transient`
    /// accepts (with no earliest instant) and treats the rest as fatal.
    pub fn when<E>(is_transient: impl Fn(&E) -> bool) -> impl Fn(&E) -> Verdict {
        move |e| {
            if is_transient(e) {
                Verdict::Retry { not_before: None }
            } else {
                Verdict::Fatal
            }
        }
    }
}

/// Race `fut` against an attempt's time limit: `None` if `limit`
/// elapsed first. With no limit it awaits `fut` and arms no timer.
pub(crate) async fn raced<T>(
    sim: &Sim,
    limit: Option<SimDuration>,
    fut: impl Future<Output = T>,
) -> Option<T> {
    match limit {
        Some(limit) => sim.timeout(limit, fut).await,
        None => Some(fut.await),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_simcore::SimTime;

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
    }

    #[test]
    fn backoff_doubles_until_cap() {
        let p = policy();
        assert_eq!(p.backoff(0), SimDuration::from_millis(50));
        assert_eq!(p.backoff(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff(2), SimDuration::from_millis(200));
        assert_eq!(p.backoff(20), SimDuration::from_secs(10), "capped");
        assert_eq!(p.backoff(60), SimDuration::from_secs(10), "no overflow");
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let mut p = policy();
        p.jitter = 0.0;
        let mut a = SimRng::from_seed(9);
        let mut b = SimRng::from_seed(9);
        assert_eq!(p.delay(3, &mut a), p.backoff(3));
        // `a` drew nothing, so the streams stay aligned.
        assert_eq!(a.unit_f64(), b.unit_f64());
    }

    fn transient(_: &&str) -> Verdict {
        Verdict::Retry { not_before: None }
    }

    #[test]
    fn run_retries_transient_then_succeeds() {
        use std::cell::Cell;
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let p = policy();
        let tries = Rc::new(Cell::new(0u32));
        let t = tries.clone();
        let sim2 = sim.clone();
        let got: Result<u32, RetryError<&str>> = sim.block_on(async move {
            p.run_within(&sim2, &rng, Deadline::unbounded(), transient, move |_| {
                let t = t.clone();
                async move {
                    t.set(t.get() + 1);
                    Some(if t.get() < 3 {
                        Err("transient")
                    } else {
                        Ok(42)
                    })
                }
            })
            .await
        });
        assert_eq!(got, Ok(42));
        assert_eq!(tries.get(), 3);
    }

    #[test]
    fn run_surfaces_fatal_immediately() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let p = policy();
        let sim2 = sim.clone();
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.run_within(
                &sim2,
                &rng,
                Deadline::unbounded(),
                |_| Verdict::Fatal,
                |_| async { Some(Err("nope")) },
            )
            .await
        });
        assert_eq!(got, Err(RetryError::Fatal("nope")));
    }

    #[test]
    fn run_times_out_slow_calls() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let mut p = policy();
        p.max_attempts = 2;
        p.call_timeout = Some(SimDuration::from_millis(10));
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.run_within(
                &sim2,
                &rng,
                Deadline::unbounded(),
                transient,
                move |limit| {
                    let sim3 = sim3.clone();
                    async move {
                        raced(&sim3, limit, async {
                            sim3.sleep(SimDuration::from_secs(1)).await;
                            Ok(())
                        })
                        .await
                    }
                },
            )
            .await
        });
        assert_eq!(got, Err(RetryError::TimedOut { attempts: 2 }));
    }

    #[test]
    fn run_within_respects_the_budget() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let mut p = policy();
        p.max_attempts = 100;
        p.jitter = 0.0;
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let deadline = Deadline::at(SimTime::ZERO + SimDuration::from_secs(2));
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.run_within(&sim2, &rng, deadline, transient, move |limit| {
                let sim3 = sim3.clone();
                async move {
                    raced(&sim3, limit, async {
                        sim3.sleep(SimDuration::from_millis(100)).await;
                        Err("flaky")
                    })
                    .await
                }
            })
            .await
        });
        // The loop must end on the budget, not on max_attempts.
        match got {
            Err(RetryError::DeadlineExceeded { attempts }) => {
                assert!(attempts > 0 && attempts < 100, "attempts = {attempts}")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(sim.now() <= SimTime::ZERO + SimDuration::from_secs(2));
    }

    #[test]
    fn run_within_classifies_budget_expiry_mid_call() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let mut p = policy();
        p.max_attempts = 3;
        let sim2 = sim.clone();
        let sim3 = sim.clone();
        let deadline = Deadline::at(SimTime::ZERO + SimDuration::from_millis(10));
        let got: Result<(), RetryError<&str>> = sim.block_on(async move {
            p.run_within(&sim2, &rng, deadline, transient, move |limit| {
                let sim3 = sim3.clone();
                async move {
                    raced(&sim3, limit, async {
                        sim3.sleep(SimDuration::from_secs(5)).await;
                        Ok(())
                    })
                    .await
                }
            })
            .await
        });
        assert_eq!(got, Err(RetryError::DeadlineExceeded { attempts: 1 }));
    }

    #[test]
    fn unbounded_run_within_hands_out_no_limit() {
        let sim = Sim::new(1);
        let rng = Rc::new(RefCell::new(sim.rng("retry")));
        let p = policy();
        let sim2 = sim.clone();
        let got: Result<u32, RetryError<&str>> = sim.block_on(async move {
            p.run_within(
                &sim2,
                &rng,
                Deadline::unbounded(),
                transient,
                |limit| async move {
                    assert_eq!(limit, None);
                    Some(Ok(7))
                },
            )
            .await
        });
        assert_eq!(got, Ok(7));
        assert_eq!(sim.profile().timer_pushes, 0, "no attempt limit, no timer");
    }
}
