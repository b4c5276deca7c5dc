//! A retrying client for the gateway: one call into
//! [`RetryPolicy::run_within`], like [`faasim_resilience::RetryingInvoker`].
//! Typed sheds are backed off on, and when the shed names the instant
//! capacity returns (a token refill, a breaker cooldown) the classifier
//! makes it the retry's `not_before`, so the retry never fires earlier.
//! If that instant never comes, a caller without a deadline gets the
//! last shed back at once.

use std::cell::RefCell;
use std::rc::Rc;

use faasim_faas::InvokeOutcome;
use faasim_payload::Payload;
use faasim_resilience::{Deadline, RetryError, RetryPolicy, Verdict};
use faasim_simcore::{Recorder, Sim, SimRng};

use crate::gateway::{Gateway, GatewayError};

/// A [`Gateway`] client that retries transient refusals (rate limits,
/// load sheds, open breakers) and transient platform failures with
/// backoff, inside a deadline budget. Cheap to clone; clones share the
/// jitter RNG stream.
#[derive(Clone)]
pub struct RetryingGateway {
    gateway: Gateway,
    sim: Sim,
    policy: RetryPolicy,
    rng: Rc<RefCell<SimRng>>,
    recorder: Recorder,
}

impl RetryingGateway {
    /// Wrap `gateway`; `label` names the jitter RNG stream.
    pub fn new(
        sim: &Sim,
        gateway: &Gateway,
        recorder: Recorder,
        policy: RetryPolicy,
        label: &str,
    ) -> RetryingGateway {
        RetryingGateway {
            gateway: gateway.clone(),
            sim: sim.clone(),
            policy,
            rng: Rc::new(RefCell::new(sim.rng(label))),
            recorder,
        }
    }

    /// Invoke `func` for `tenant` through the gateway until it
    /// succeeds, exhausts the policy, or runs out of deadline budget.
    /// Function errors come back as [`GatewayError::Function`].
    pub async fn invoke(
        &self,
        tenant: u32,
        func: &str,
        payload: &Payload,
        deadline: Deadline,
    ) -> Result<InvokeOutcome, RetryError<GatewayError>> {
        // A typed shed can name when capacity returns; retrying earlier
        // than that is guaranteed wasted work.
        let classify = |e: &GatewayError| {
            if e.is_transient() {
                Verdict::Retry { not_before: e.retry_after() }
            } else {
                Verdict::Fatal
            }
        };
        self.policy
            .run_within(&self.sim, &self.rng, deadline, classify, |_limit| async {
                self.recorder.incr("resil.gateway.attempts");
                let admitted = self.gateway.invoke(tenant, func, payload.clone()).await;
                Some(admitted.and_then(|out| match out.result {
                    Ok(_) => Ok(out),
                    Err(e) => Err(GatewayError::Function(e)),
                }))
            })
            .await
    }

    /// The wrapped gateway, for probes and non-retried calls.
    pub fn inner(&self) -> &Gateway {
        &self.gateway
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{GatewayConfig, TenantConfig};
    use faasim::{Cloud, CloudProfile};
    use faasim_faas::FunctionSpec;
    use faasim_simcore::SimDuration;

    #[test]
    fn backs_off_past_the_token_refill_and_succeeds() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 21);
        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(30),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(5)).await;
                Ok(Payload::inline("ok"))
            },
        ));
        // A refill slow enough (20 s/token) that no amount of cold-start
        // latency on the first call can hide the shed of the second.
        let mut cfg = GatewayConfig::new(vec![TenantConfig {
            rate: 0.05,
            burst: 1.0,
            ..TenantConfig::default()
        }]);
        cfg.overhead = SimDuration::ZERO;
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        );
        let client = RetryingGateway::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "gw.retry.test",
        );
        let payload = Payload::inline("x");
        cloud.sim.block_on(async move {
            // Burst of 1: the first call drains the bucket, the second
            // must be shed and then retried no earlier than the refill.
            client.invoke(0, "work", &payload, Deadline::unbounded()).await.expect("first");
            client.invoke(0, "work", &payload, Deadline::unbounded()).await.expect("second");
        });
        let st = gw.tenant_stats(0);
        assert_eq!(st.admitted, 2);
        assert!(st.bucket_shed >= 1, "the second call was shed at least once");
        assert!(st.conserved());
        // At 0.05 tokens/s a full refill takes 20 s: the retry that
        // succeeded cannot have fired before then.
        assert!(cloud.sim.now() >= faasim_simcore::SimTime::from_nanos(20_000_000_000));
        assert!(cloud.recorder.counter("resil.gateway.attempts") >= 3);
    }

    #[test]
    fn exhaustion_reports_the_last_shed() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 22);
        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(30),
            |_ctx, _payload| async move { Ok(Payload::inline("ok")) },
        ));
        // Zero rate, burst 1: after the first admission the tenant is
        // rate limited forever.
        let mut cfg = GatewayConfig::new(vec![TenantConfig {
            rate: 0.0,
            burst: 1.0,
            ..TenantConfig::default()
        }]);
        cfg.overhead = SimDuration::ZERO;
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        );
        let client = RetryingGateway::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            "gw.retry.test",
        );
        let payload = Payload::inline("x");
        let sim = cloud.sim.clone();
        let got = cloud.sim.block_on(async move {
            client.invoke(0, "work", &payload, Deadline::unbounded()).await.expect("first");
            // retry_after is SimTime::MAX, so the deadline budget (not
            // the backoff spine) must end the loop.
            client
                .invoke(
                    0,
                    "work",
                    &payload,
                    Deadline::within(&sim, SimDuration::from_secs(60)),
                )
                .await
        });
        assert!(
            matches!(got, Err(ref e) if e.is_deadline()),
            "a never-refilling bucket must exhaust the deadline budget, got {got:?}"
        );
    }

    #[test]
    fn never_refilling_bucket_without_deadline_surfaces_the_shed() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 22);
        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(30),
            |_ctx, _payload| async move { Ok(Payload::inline("ok")) },
        ));
        let mut cfg = GatewayConfig::new(vec![TenantConfig {
            rate: 0.0,
            burst: 1.0,
            ..TenantConfig::default()
        }]);
        cfg.overhead = SimDuration::ZERO;
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        );
        let client = RetryingGateway::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            "gw.retry.test",
        );
        let payload = Payload::inline("x");
        let sim = cloud.sim.clone();
        let (got, shed_at) = cloud.sim.block_on(async move {
            client.invoke(0, "work", &payload, Deadline::unbounded()).await.expect("first");
            let shed_at = sim.now();
            let got = client
                .invoke(0, "work", &payload, Deadline::unbounded())
                .await;
            (got, shed_at)
        });
        // The caller set no deadline, so the loop must not report one:
        // capacity never returns (retry_at is SimTime::MAX), and the last
        // shed is the honest answer, given at once.
        match got {
            Err(RetryError::Exhausted { attempts: 1, last }) => {
                assert!(matches!(last, GatewayError::RateLimited { .. }), "{last:?}");
            }
            other => panic!("expected the last shed, got {other:?}"),
        }
        assert_eq!(
            cloud.sim.now(),
            shed_at,
            "no backoff sleep toward a retry that never comes"
        );
        assert_eq!(cloud.recorder.counter("resil.gateway.attempts"), 2);
    }
}
