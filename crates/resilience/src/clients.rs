//! Resilient service clients: the raw services wrapped in a
//! [`RetryPolicy`], so experiments can opt into the retry discipline
//! that real serverless applications are forced to adopt.
//!
//! Only *transient* errors (KV throttling, blob 503s, crashed or
//! timed-out invocations, per-call timeouts) are retried; logic errors
//! such as a missing table or a failed conditional write surface
//! immediately as [`RetryError::Fatal`]. Every retried method is one call
//! into [`RetryPolicy::run_within`], and the reads, writes, sends and
//! invokes take a [`Deadline`] so retry loops cannot outlive the request
//! they serve.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use faasim_blob::{BlobError, BlobStore};
use faasim_faas::{FaasPlatform, FnError, InvokeOutcome};
use faasim_kv::{Consistency, Item, KvError, KvStore};
use faasim_net::Host;
use faasim_payload::Payload;
use faasim_queue::{MessageId, QueueError, QueueService, Receipt, ReceivedMessage};
use faasim_simcore::{Recorder, Sim, SimDuration, SimRng};

use crate::deadline::Deadline;
use crate::retry::{raced, RetryError, RetryPolicy, Verdict};

/// What every retrying client holds: the policy, the jitter stream its
/// clones share, and the recorder its attempts are counted in.
#[derive(Clone)]
pub(crate) struct Retrier {
    pub(crate) sim: Sim,
    pub(crate) policy: RetryPolicy,
    pub(crate) rng: Rc<RefCell<SimRng>>,
    pub(crate) recorder: Recorder,
}

impl Retrier {
    /// `label` names the jitter RNG stream, so two clients with
    /// different labels draw independent jitter.
    pub(crate) fn new(sim: &Sim, recorder: Recorder, policy: RetryPolicy, label: &str) -> Retrier {
        Retrier {
            sim: sim.clone(),
            policy,
            rng: Rc::new(RefCell::new(sim.rng(label))),
            recorder,
        }
    }

    /// Retry `op` inside `deadline`, racing each attempt against its
    /// time limit: for calls a client may abandon (storage, queues).
    pub(crate) async fn raced<T, E, Fut>(
        &self,
        deadline: Deadline,
        classify: impl Fn(&E) -> Verdict,
        mut op: impl FnMut() -> Fut,
    ) -> Result<T, RetryError<E>>
    where
        Fut: Future<Output = Result<T, E>>,
    {
        let sim = &self.sim;
        self.policy
            .run_within(sim, &self.rng, deadline, classify, |limit| raced(sim, limit, op()))
            .await
    }
}

/// A [`KvStore`] client that retries transient failures with the given
/// policy. Cheap to clone; clones share the jitter RNG stream.
#[derive(Clone)]
pub struct RetryingKv {
    kv: KvStore,
    retry: Retrier,
}

impl RetryingKv {
    /// Wrap `kv`. `label` names the jitter RNG stream, so two clients
    /// with different labels draw independent jitter.
    pub fn new(sim: &Sim, kv: &KvStore, recorder: Recorder, policy: RetryPolicy, label: &str) -> RetryingKv {
        RetryingKv {
            kv: kv.clone(),
            retry: Retrier::new(sim, recorder, policy, label),
        }
    }

    /// One retried KV call, counted in `chaos.kv.attempts`.
    async fn retried<T, Fut>(
        &self,
        deadline: Deadline,
        op: impl Fn() -> Fut,
    ) -> Result<T, RetryError<KvError>>
    where
        Fut: Future<Output = Result<T, KvError>>,
    {
        let classify = Verdict::when(KvError::is_transient);
        self.retry
            .raced(deadline, classify, || {
                self.retry.recorder.incr("chaos.kv.attempts");
                op()
            })
            .await
    }

    /// Retrying unconditional write inside `deadline`. Returns the new
    /// version.
    pub async fn put(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
        value: Bytes,
        deadline: Deadline,
    ) -> Result<u64, RetryError<KvError>> {
        self.retried(deadline, || self.kv.put(caller, table, key, value.clone()))
            .await
    }

    /// Retrying read inside `deadline`.
    pub async fn get(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
        consistency: Consistency,
        deadline: Deadline,
    ) -> Result<Item, RetryError<KvError>> {
        self.retried(deadline, || self.kv.get(caller, table, key, consistency))
            .await
    }

    /// Retrying delete (idempotent, so retries are safe).
    pub async fn delete(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
    ) -> Result<(), RetryError<KvError>> {
        self.retried(Deadline::unbounded(), || self.kv.delete(caller, table, key))
            .await
    }

    /// The wrapped store, for operations that should not retry.
    pub fn inner(&self) -> &KvStore {
        &self.kv
    }
}

/// A [`BlobStore`] client that retries transient failures.
#[derive(Clone)]
pub struct RetryingBlob {
    blob: BlobStore,
    retry: Retrier,
}

impl RetryingBlob {
    /// Wrap `blob`; `label` names the jitter RNG stream.
    pub fn new(
        sim: &Sim,
        blob: &BlobStore,
        recorder: Recorder,
        policy: RetryPolicy,
        label: &str,
    ) -> RetryingBlob {
        RetryingBlob {
            blob: blob.clone(),
            retry: Retrier::new(sim, recorder, policy, label),
        }
    }

    /// One retried blob call, counted in `chaos.blob.attempts`.
    async fn retried<T, Fut>(
        &self,
        deadline: Deadline,
        op: impl Fn() -> Fut,
    ) -> Result<T, RetryError<BlobError>>
    where
        Fut: Future<Output = Result<T, BlobError>>,
    {
        let classify = Verdict::when(BlobError::is_transient);
        self.retry
            .raced(deadline, classify, || {
                self.retry.recorder.incr("chaos.blob.attempts");
                op()
            })
            .await
    }

    /// Retrying write of an object, inline bytes or a symbolic
    /// [`Payload`] (PUT is idempotent, so retries are safe).
    pub async fn put(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        data: impl Into<Payload>,
    ) -> Result<(), RetryError<BlobError>> {
        let data = data.into();
        self.retried(Deadline::unbounded(), || self.blob.put(caller, bucket, key, data.clone()))
            .await
    }

    /// Retrying object read inside `deadline`.
    pub async fn get(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        deadline: Deadline,
    ) -> Result<Payload, RetryError<BlobError>> {
        self.retried(deadline, || self.blob.get(caller, bucket, key)).await
    }

    /// The wrapped store, for operations that should not retry.
    pub fn inner(&self) -> &BlobStore {
        &self.blob
    }
}

/// What happened to a queue delete made through [`RetryingQueue`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The message was deleted; it will never be redelivered.
    Deleted,
    /// The receipt had gone stale (its visibility timeout elapsed, so
    /// the message was — or will be — redelivered to someone else).
    /// Not an error under at-least-once delivery: the redelivery's
    /// processing must dedup via an idempotency key.
    Stale,
}

/// A [`QueueService`] client with platform-realistic failure handling:
/// stale receipts are a first-class outcome rather than an error, and
/// every operation fits a deadline budget.
///
/// Note what is *not* promised: a send that times out at the caller may
/// still have enqueued (that is how duplicate deliveries happen in the
/// first place). The queue contract stays at-least-once; exactly-once
/// observable effects come from pairing this client with an
/// [`crate::IdempotencyStore`].
#[derive(Clone)]
pub struct RetryingQueue {
    queue: QueueService,
    retry: Retrier,
}

impl RetryingQueue {
    /// Wrap `queue`; `label` names the jitter RNG stream.
    pub fn new(
        sim: &Sim,
        queue: &QueueService,
        recorder: Recorder,
        policy: RetryPolicy,
        label: &str,
    ) -> RetryingQueue {
        RetryingQueue {
            queue: queue.clone(),
            retry: Retrier::new(sim, recorder, policy, label),
        }
    }

    /// One queue send, counted in `resil.queue.attempts`. Queue errors
    /// are never retried; only an attempt that hits its time limit is.
    async fn sent<T, Fut>(
        &self,
        deadline: Deadline,
        op: impl Fn() -> Fut,
    ) -> Result<T, RetryError<QueueError>>
    where
        Fut: Future<Output = Result<T, QueueError>>,
    {
        self.retry
            .raced(deadline, |_| Verdict::Fatal, || {
                self.retry.recorder.incr("resil.queue.attempts");
                op()
            })
            .await
    }

    /// Send one message inside `deadline`.
    pub async fn send(
        &self,
        caller: &Host,
        queue: &str,
        body: &Payload,
        deadline: Deadline,
    ) -> Result<MessageId, RetryError<QueueError>> {
        self.sent(deadline, || self.queue.send(caller, queue, body.clone())).await
    }

    /// Send up to a batch of messages as one request inside `deadline`.
    pub async fn send_batch(
        &self,
        caller: &Host,
        queue: &str,
        bodies: Vec<Payload>,
        deadline: Deadline,
    ) -> Result<Vec<MessageId>, RetryError<QueueError>> {
        self.sent(deadline, || self.queue.send_batch(caller, queue, bodies.clone()))
            .await
    }

    /// Receive up to `max` messages, long-polling up to `wait` but never
    /// past `deadline`. An expired deadline yields an empty batch (the
    /// caller's loop condition decides what that means), matching an
    /// empty long poll.
    pub async fn receive(
        &self,
        caller: &Host,
        queue: &str,
        max: usize,
        wait: SimDuration,
        deadline: Deadline,
    ) -> Result<Vec<ReceivedMessage>, RetryError<QueueError>> {
        let budget = deadline.remaining(&self.retry.sim);
        if budget == SimDuration::ZERO {
            return Ok(Vec::new());
        }
        self.retry.recorder.incr("resil.queue.attempts");
        self.queue
            .receive(caller, queue, max, wait.min(budget))
            .await
            .map_err(RetryError::Fatal)
    }

    /// Delete one received message. A stale receipt (visibility timeout
    /// elapsed before the delete landed) is reported as
    /// [`DeleteOutcome::Stale`], not an error: the message will be
    /// redelivered and must be deduplicated downstream.
    pub async fn delete(
        &self,
        caller: &Host,
        receipt: Receipt,
    ) -> Result<DeleteOutcome, RetryError<QueueError>> {
        self.retry.recorder.incr("resil.queue.attempts");
        match self.queue.delete(caller, receipt).await {
            Ok(()) => Ok(DeleteOutcome::Deleted),
            Err(QueueError::InvalidReceipt) => {
                self.retry.recorder.incr("resil.queue.stale_receipts");
                Ok(DeleteOutcome::Stale)
            }
            Err(e) => Err(RetryError::Fatal(e)),
        }
    }

    /// Delete each receipt individually (so one stale receipt cannot
    /// poison a batch). Returns `(deleted, stale)` counts.
    pub async fn delete_all(
        &self,
        caller: &Host,
        receipts: Vec<Receipt>,
    ) -> Result<(usize, usize), RetryError<QueueError>> {
        let mut deleted = 0;
        let mut stale = 0;
        for r in receipts {
            match self.delete(caller, r).await? {
                DeleteOutcome::Deleted => deleted += 1,
                DeleteOutcome::Stale => stale += 1,
            }
        }
        Ok((deleted, stale))
    }

    /// The wrapped service, for operations that should not retry.
    pub fn inner(&self) -> &QueueService {
        &self.queue
    }
}

/// A [`FaasPlatform`] client that retries transient invocation failures
/// (crashed containers, platform timeouts) with backoff, inside a
/// deadline budget — the platform-level at-least-once retry semantics
/// of an async invoke, made explicit on the synchronous path.
///
/// Each attempt runs to completion: an in-flight invocation is never
/// canceled from outside (the function's own timeout bounds it; the
/// deadline only bounds when a retry may start, and the policy's
/// `call_timeout` is ignored). So a retried invocation may execute the
/// handler more than once. Pair with [`crate::IdempotencyStore`] for exactly-once
/// observable effects.
#[derive(Clone)]
pub struct RetryingInvoker {
    faas: FaasPlatform,
    retry: Retrier,
}

impl RetryingInvoker {
    /// Wrap `faas`; `label` names the jitter RNG stream.
    pub fn new(
        sim: &Sim,
        faas: &FaasPlatform,
        recorder: Recorder,
        policy: RetryPolicy,
        label: &str,
    ) -> RetryingInvoker {
        RetryingInvoker {
            faas: faas.clone(),
            retry: Retrier::new(sim, recorder, policy, label),
        }
    }

    /// Invoke `func` until it succeeds, exhausts the policy, or runs
    /// out of deadline budget. Returns the successful outcome; the
    /// outcomes of failed attempts are visible only in the ledger and
    /// counters, as in a real platform.
    pub async fn invoke(
        &self,
        func: &str,
        payload: &Payload,
        deadline: Deadline,
    ) -> Result<InvokeOutcome, RetryError<FnError>> {
        let Retrier { sim, policy, rng, .. } = &self.retry;
        let classify = Verdict::when(FnError::is_transient);
        // The attempt's time limit is ignored: invocations are not raced.
        policy
            .run_within(sim, rng, deadline, classify, |_limit| async {
                self.retry.recorder.incr("resil.faas.attempts");
                let out = self.faas.invoke(func, payload.clone()).await;
                Some(match out.result {
                    Ok(_) => Ok(out),
                    Err(e) => Err(e),
                })
            })
            .await
    }

    /// The wrapped platform, for non-retried operations.
    pub fn inner(&self) -> &FaasPlatform {
        &self.faas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim::{Cloud, CloudProfile};
    use faasim_faas::{FaasFaults, FunctionSpec};
    use faasim_kv::KvFaults;
    use faasim_queue::{QueueConfig, QueueFaults};

    #[test]
    fn retrying_kv_survives_heavy_throttling() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        cloud.kv.set_faults(KvFaults { throttle_prob: 0.5 });
        cloud.kv.create_table("t");
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            "chaos.test",
        );
        let host = cloud.client_host();
        let ok = cloud.sim.block_on(async move {
            for i in 0..50u8 {
                let key = format!("k{i}");
                client
                    .put(
                        &host,
                        "t",
                        &key,
                        Bytes::from(vec![i]),
                        Deadline::unbounded(),
                    )
                    .await?;
                client
                    .get(&host, "t", &key, Consistency::Strong, Deadline::unbounded())
                    .await?;
            }
            Ok::<(), RetryError<KvError>>(())
        });
        ok.expect("retries should absorb 50% throttling");
        assert!(cloud.recorder.counter("kv.throttled") > 0, "faults fired");
        assert!(
            cloud.recorder.counter("chaos.kv.attempts") > 100,
            "extra attempts were made"
        );
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "chaos.test",
        );
        let host = cloud.client_host();
        let got = cloud.sim.block_on(async move {
            client
                .get(
                    &host,
                    "missing",
                    "k",
                    Consistency::Strong,
                    Deadline::unbounded(),
                )
                .await
        });
        assert!(matches!(
            got,
            Err(RetryError::Fatal(KvError::NoSuchTable(_)))
        ));
        assert_eq!(cloud.recorder.counter("chaos.kv.attempts"), 1);
    }

    #[test]
    fn kv_deadline_budget_bounds_throttle_storms() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 12);
        cloud.kv.set_faults(KvFaults { throttle_prob: 1.0 });
        cloud.kv.create_table("t");
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 1_000,
                ..RetryPolicy::default()
            },
            "chaos.test",
        );
        let host = cloud.client_host();
        let sim = cloud.sim.clone();
        let got = cloud.sim.block_on(async move {
            let deadline = Deadline::within(&sim, SimDuration::from_secs(3));
            client
                .get(&host, "t", "k", Consistency::Strong, deadline)
                .await
        });
        assert!(
            matches!(got, Err(e) if e.is_deadline()),
            "100% throttling must end on the budget, not 1000 attempts"
        );
    }

    #[test]
    fn stale_receipts_are_an_outcome_not_an_error() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 13);
        cloud.queue.create_queue(
            "q",
            QueueConfig {
                visibility_timeout: SimDuration::from_millis(100),
                ..QueueConfig::default()
            },
        );
        let rq = RetryingQueue::new(
            &cloud.sim,
            &cloud.queue,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "resil.q.test",
        );
        let host = cloud.client_host();
        let sim = cloud.sim.clone();
        cloud.sim.block_on(async move {
            rq.send(&host, "q", &Payload::inline("m"), Deadline::unbounded())
                .await
                .expect("send");
            let got = rq
                .receive(&host, "q", 1, SimDuration::ZERO, Deadline::unbounded())
                .await
                .expect("receive");
            assert_eq!(got.len(), 1);
            // Outlive the visibility timeout, then try to delete.
            sim.sleep(SimDuration::from_secs(1)).await;
            let outcome = rq
                .delete(&host, got[0].receipt.clone())
                .await
                .expect("delete");
            assert_eq!(outcome, DeleteOutcome::Stale);
        });
        assert_eq!(cloud.recorder.counter("resil.queue.stale_receipts"), 1);
    }

    #[test]
    fn duplicate_sends_surface_as_redeliveries() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 14);
        cloud.queue.set_faults(QueueFaults {
            duplicate_prob: 1.0,
            ..QueueFaults::default()
        });
        cloud.queue.create_queue("q", QueueConfig::default());
        let rq = RetryingQueue::new(
            &cloud.sim,
            &cloud.queue,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "resil.q.test",
        );
        let host = cloud.client_host();
        cloud.sim.block_on(async move {
            rq.send(&host, "q", &Payload::inline("m"), Deadline::unbounded())
                .await
                .expect("send");
            // Both copies are there: at-least-once in action.
            assert_eq!(rq.inner().queue_len("q"), 2);
        });
    }

    #[test]
    fn invoker_retries_through_kills() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 15);
        cloud.faas.set_faults(FaasFaults { kill_prob: 0.5 });
        cloud.faas.register(FunctionSpec::new(
            "work",
            512,
            SimDuration::from_secs(30),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(200)).await;
                Ok(Payload::inline("ok"))
            },
        ));
        let invoker = RetryingInvoker::new(
            &cloud.sim,
            &cloud.faas,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 20,
                ..RetryPolicy::default()
            },
            "resil.faas.test",
        );
        let host_payload = Payload::inline("x");
        let ok = cloud.sim.block_on(async move {
            for _ in 0..10 {
                invoker
                    .invoke("work", &host_payload, Deadline::unbounded())
                    .await?;
            }
            Ok::<(), RetryError<FnError>>(())
        });
        ok.expect("retries should absorb 50% kill probability");
        assert!(
            cloud.recorder.counter("resil.faas.attempts") > 10,
            "some invocations were killed and retried"
        );
    }

    #[test]
    fn invoker_attempt_outlives_a_bounded_deadline() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 16);
        cloud.faas.register(FunctionSpec::new(
            "slow",
            512,
            SimDuration::from_secs(60),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_secs(5)).await;
                Ok(Payload::inline("done"))
            },
        ));
        let invoker = RetryingInvoker::new(
            &cloud.sim,
            &cloud.faas,
            cloud.recorder.clone(),
            RetryPolicy {
                call_timeout: Some(SimDuration::from_millis(100)),
                ..RetryPolicy::default()
            },
            "resil.faas.test",
        );
        let sim = cloud.sim.clone();
        let got = cloud.sim.block_on(async move {
            let deadline = Deadline::within(&sim, SimDuration::from_secs(1));
            invoker
                .invoke("slow", &Payload::inline("x"), deadline)
                .await
        });
        let out = got.expect("the one attempt runs to completion and succeeds");
        assert!(out.exec >= SimDuration::from_secs(5), "handler ran in full");
        assert!(
            cloud.sim.now().as_secs_f64() >= 5.0,
            "not cut at the 1 s deadline"
        );
        assert_eq!(cloud.recorder.counter("resil.faas.attempts"), 1);
    }
}
