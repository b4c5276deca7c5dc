//! Exactly-once *observable* effects on top of at-least-once delivery.
//!
//! The paper's §2 is blunt: "functions must be written to be
//! idempotent" — the platform may run an invocation twice (queue
//! redelivery, duplicate send, platform retry after a crash) and the
//! application must make the duplicates unobservable. The standard
//! production answer is an idempotency key: each logical request
//! carries a unique key, and its effect is committed under that key
//! with a conditional write. The first committer wins; every other
//! execution reads the committed effect back instead of re-applying it.
//!
//! [`IdempotencyStore`] is that pattern over the simulated KV store.
//! The KV record *is* the observable effect, and `put_if(NotExists)` is
//! atomic in the store, so even an execution killed between computing
//! and committing leaves at most one committed record — the retry
//! either commits first or loses the conditional write and dedups.

use std::future::Future;

use faasim_kv::{Condition, Consistency, KvError, KvStore};
use faasim_net::Host;
use faasim_payload::Payload;
use faasim_simcore::{Recorder, Sim};

use crate::clients::Retrier;
use crate::deadline::Deadline;
use crate::retry::{RetryError, RetryPolicy, Verdict};

/// The committed outcome of [`IdempotencyStore::execute`].
#[derive(Clone, Debug)]
pub struct Effect {
    /// The effect value committed under the idempotency key.
    pub value: Payload,
    /// True when this execution deduplicated against a prior commit
    /// (the work either wasn't run, or ran and lost the commit race).
    pub deduped: bool,
}

/// A KV-backed effect memo keyed by idempotency keys. Cheap to clone;
/// clones share the table and the retry jitter stream.
#[derive(Clone)]
pub struct IdempotencyStore {
    kv: KvStore,
    retry: Retrier,
    table: String,
}

impl IdempotencyStore {
    /// A store over `table` (created if missing). `label` names the
    /// retry jitter RNG stream; `policy` governs retries of *transient*
    /// KV failures (throttling) on the store's own reads and writes.
    pub fn new(
        sim: &Sim,
        kv: &KvStore,
        recorder: Recorder,
        table: &str,
        policy: RetryPolicy,
        label: &str,
    ) -> IdempotencyStore {
        kv.create_table(table);
        IdempotencyStore {
            kv: kv.clone(),
            retry: Retrier::new(sim, recorder, policy, label),
            table: table.to_owned(),
        }
    }

    /// Run `op` (or skip it) so that exactly one effect is ever
    /// committed under `key`, no matter how many concurrent or
    /// sequential executions share that key.
    ///
    /// - First committed execution: runs `op`, commits its value with a
    ///   conditional write, returns `deduped: false`.
    /// - Any later execution: returns the committed value with
    ///   `deduped: true` — either from the fast-path read or after
    ///   losing the `put_if(NotExists)` race.
    pub async fn execute<Fut>(
        &self,
        caller: &Host,
        key: &str,
        op: impl FnOnce() -> Fut,
    ) -> Result<Effect, RetryError<KvError>>
    where
        Fut: Future<Output = Payload>,
    {
        // Fast path: the effect may already be committed.
        if let Some(prior) = self.read(caller, key).await? {
            self.retry.recorder.incr("resil.idem.dedup");
            return Ok(Effect {
                value: prior,
                deduped: true,
            });
        }
        let value = op().await;
        let committed = self
            .retried(|| {
                self.kv.put_if(caller, &self.table, key, value.clone(), Condition::NotExists)
            })
            .await;
        match committed {
            Ok(_) => {
                self.retry.recorder.incr("resil.idem.committed");
                Ok(Effect {
                    value,
                    deduped: false,
                })
            }
            // Another execution committed first; its value is the one
            // observable effect.
            Err(RetryError::Fatal(KvError::ConditionFailed)) => {
                self.retry.recorder.incr("resil.idem.lost_race");
                let winner = self.read(caller, key).await?.ok_or(RetryError::Fatal(
                    // A NotExists failure guarantees the key exists.
                    KvError::NoSuchKey(key.to_owned()),
                ))?;
                Ok(Effect {
                    value: winner,
                    deduped: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Strongly-consistent read of the committed effect under `key`,
    /// retrying transient failures. `None` when nothing is committed.
    async fn read(&self, caller: &Host, key: &str) -> Result<Option<Payload>, RetryError<KvError>> {
        let got = self
            .retried(|| self.kv.get(caller, &self.table, key, Consistency::Strong))
            .await;
        match got {
            Ok(item) => Ok(Some(item.value)),
            Err(RetryError::Fatal(KvError::NoSuchKey(_))) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Every committed effect whose key starts with `prefix`, in key
    /// order — the ground truth for exactly-once invariant checks.
    pub async fn committed(
        &self,
        caller: &Host,
        prefix: &str,
    ) -> Result<Vec<(String, Payload)>, RetryError<KvError>> {
        let rows = self
            .retried(|| self.kv.scan_prefix(caller, &self.table, prefix))
            .await?;
        Ok(rows
            .into_iter()
            .map(|(k, item)| (k, item.value))
            .collect())
    }

    /// Number of committed effects under `prefix`.
    pub async fn committed_count(
        &self,
        caller: &Host,
        prefix: &str,
    ) -> Result<usize, RetryError<KvError>> {
        Ok(self.committed(caller, prefix).await?.len())
    }

    /// A KV call on the store's table, retried through transient
    /// failures.
    async fn retried<T, Fut>(&self, op: impl Fn() -> Fut) -> Result<T, RetryError<KvError>>
    where
        Fut: Future<Output = Result<T, KvError>>,
    {
        let classify = Verdict::when(KvError::is_transient);
        self.retry.raced(Deadline::unbounded(), classify, op).await
    }

    /// The backing table name.
    pub fn table(&self) -> &str {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use faasim::{Cloud, CloudProfile};
    use std::cell::Cell;

    fn store(cloud: &Cloud) -> IdempotencyStore {
        IdempotencyStore::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            "effects",
            RetryPolicy::default(),
            "resil.idem.test",
        )
    }

    #[test]
    fn duplicate_keys_run_the_effect_once() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 17);
        let s = store(&cloud);
        let host = cloud.client_host();
        let runs = Rc::new(Cell::new(0u32));
        let r = runs.clone();
        cloud.sim.block_on(async move {
            for _ in 0..5 {
                let r2 = r.clone();
                let eff = s
                    .execute(&host, "req-1", move || {
                        r2.set(r2.get() + 1);
                        async { Payload::inline("done") }
                    })
                    .await
                    .expect("execute");
                assert!(eff.value.eq_bytes(b"done"));
            }
            assert_eq!(s.committed_count(&host, "req-").await.unwrap(), 1);
        });
        assert_eq!(runs.get(), 1, "the effect body ran exactly once");
        assert_eq!(cloud.recorder.counter("resil.idem.committed"), 1);
        assert_eq!(cloud.recorder.counter("resil.idem.dedup"), 4);
    }

    #[test]
    fn concurrent_racers_commit_exactly_once() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 18);
        let s = store(&cloud);
        let host = cloud.client_host();
        let sim = cloud.sim.clone();
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let s = s.clone();
            let host = host.clone();
            handles.push(sim.spawn(async move {
                s.execute(&host, "race", move || async move {
                    Payload::inline(format!("winner-{i}"))
                })
                .await
                .expect("execute")
            }));
        }
        let sim2 = sim.clone();
        let s2 = s.clone();
        let host2 = host.clone();
        sim.block_on(async move {
            let effects = faasim_simcore::join_all(handles).await;
            // All eight observe the same single committed value.
            let first = effects[0].value.to_vec();
            assert!(effects.iter().all(|e| e.value.to_vec() == first));
            assert_eq!(effects.iter().filter(|e| !e.deduped).count(), 1);
            assert_eq!(s2.committed_count(&host2, "race").await.unwrap(), 1);
            let _ = sim2;
        });
        assert_eq!(cloud.recorder.counter("resil.idem.committed"), 1);
    }

    #[test]
    fn distinct_keys_commit_independently() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 19);
        let s = store(&cloud);
        let host = cloud.client_host();
        cloud.sim.block_on(async move {
            for i in 0..4 {
                s.execute(&host, &format!("job-{i}"), || async move {
                    Payload::inline(format!("out-{i}"))
                })
                .await
                .expect("execute");
            }
            let rows = s.committed(&host, "job-").await.unwrap();
            assert_eq!(rows.len(), 4);
            assert!(rows[2].1.eq_bytes(b"out-2"));
        });
    }
}
