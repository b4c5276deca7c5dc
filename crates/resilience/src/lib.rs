//! # faasim-resilience
//!
//! Resilience primitives for applications built on the simulated cloud.
//!
//! The paper's §2 platform contract is hostile to correctness: functions
//! are invoked **at least once**, may be killed and restarted mid-flight,
//! and every service they compose with (S3, DynamoDB, SQS) throttles,
//! 503s, or redelivers. Real serverless applications answer with a small
//! set of disciplines; this crate makes each one an explicit, composable,
//! deterministic primitive:
//!
//! - [`RetryPolicy`] — exponential backoff with bounded jitter and
//!   per-call timeouts, and [`RetryPolicy::run_within`], the one retry
//!   loop: every backoff sleep and attempt limit fits a propagated
//!   [`Deadline`], and a [`Verdict`] classifier decides what is retried
//!   and how early.
//! - [`Deadline`] — an absolute virtual-time budget threaded through a
//!   request's whole call tree, and [`hedged`], which races a duplicate
//!   request against a slow primary without overrunning the budget.
//! - [`CircuitBreaker`] — closed → open → half-open, with transitions
//!   driven purely by simulation time and call outcomes (no randomness),
//!   so brownouts shed load instead of retry-storming.
//! - [`IdempotencyStore`] — a KV-backed effect memo keyed by invocation
//!   idempotency keys: at-least-once deliveries and platform retries
//!   collapse to exactly-once *observable* effects.
//! - [`RetryingKv`] / [`RetryingBlob`] / [`RetryingQueue`] /
//!   [`RetryingInvoker`] — service clients built on `run_within`, each
//!   method taking a [`Deadline`]. Storage and queue attempts are raced
//!   against their time limit; invoke attempts never are. Queue deletes
//!   turn stale receipts into an outcome.
//!
//! Everything draws randomness only from named simulation RNG streams
//! (and only when jitter is non-zero), so a run under these wrappers is
//! byte-for-byte reproducible from its seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod breaker;
mod clients;
mod deadline;
mod idempotency;
mod invariants;
mod retry;

pub use breaker::{BreakerConfig, BreakerError, BreakerState, CircuitBreaker};
pub use clients::{DeleteOutcome, RetryingBlob, RetryingInvoker, RetryingKv, RetryingQueue};
pub use deadline::{hedged, Deadline};
pub use idempotency::{Effect, IdempotencyStore};
pub use invariants::{ledger_consistent, message_conservation, queue_conservation};
pub use retry::{RetryError, RetryPolicy, Verdict};
