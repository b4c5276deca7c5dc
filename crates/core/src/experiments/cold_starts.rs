//! Ablation A6 — §3 constraint (1) quantified: how the request
//! inter-arrival time determines the cold-start fraction (and therefore
//! tail latency), under the 2018 sandbox and under Firecracker
//! (footnote 5).
//!
//! The mechanism: a container stays warm for the platform's keep-alive
//! window; arrivals sparser than the window always cold-start. Bursty
//! concurrency also cold-starts: `k` simultaneous requests need `k`
//! containers no matter how warm one of them is.

use bytes::Bytes;
use faasim_faas::FunctionSpec;
use faasim_simcore::{nearest_rank, SimDuration, Summary};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, Table};

/// Parameters of the cold-start study.
#[derive(Clone, Debug)]
pub struct ColdStartParams {
    /// Inter-arrival times to sweep.
    pub inter_arrivals: Vec<SimDuration>,
    /// Invocations per sweep point.
    pub invocations: usize,
    /// Use Firecracker-era cold starts.
    pub firecracker: bool,
    /// Reserve this many always-warm containers (the §4 "SLO" knob;
    /// AWS's later provisioned concurrency). 0 = off.
    pub provisioned: usize,
}

impl Default for ColdStartParams {
    fn default() -> Self {
        ColdStartParams {
            inter_arrivals: vec![
                SimDuration::from_secs(1),
                SimDuration::from_secs(60),
                SimDuration::from_mins(5),
                SimDuration::from_mins(9),
                SimDuration::from_mins(11),
                SimDuration::from_mins(20),
            ],
            invocations: 50,
            firecracker: false,
            provisioned: 0,
        }
    }
}

impl ColdStartParams {
    /// Reduced scale for tests.
    pub fn quick() -> ColdStartParams {
        ColdStartParams {
            inter_arrivals: vec![SimDuration::from_secs(1), SimDuration::from_mins(20)],
            invocations: 10,
            ..ColdStartParams::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct ColdStartPoint {
    /// Time between requests.
    pub inter_arrival: SimDuration,
    /// Fraction of invocations that cold-started.
    pub cold_fraction: f64,
    /// Mean invocation latency.
    pub mean_latency: SimDuration,
    /// Median invocation latency.
    pub p50_latency: SimDuration,
    /// p99 invocation latency.
    pub p99_latency: SimDuration,
}

/// The sweep.
#[derive(Clone, Debug)]
pub struct ColdStartResult {
    /// Points in ascending inter-arrival order.
    pub points: Vec<ColdStartPoint>,
    /// Byte-exact replay probe (one capture per sweep point).
    pub probe: ExperimentProbe,
}

impl ColdStartResult {
    /// Point for an inter-arrival time.
    pub fn at(&self, inter_arrival: SimDuration) -> &ColdStartPoint {
        self.points
            .iter()
            .find(|p| p.inter_arrival == inter_arrival)
            .unwrap_or_else(|| panic!("no point at {inter_arrival}"))
    }

    /// Render the sweep.
    pub fn render(&self, title: &str) -> String {
        let mut t = Table::new(title, &["inter-arrival", "cold %", "mean", "p50", "p99"]);
        for p in &self.points {
            t.row(&[
                fmt_latency(p.inter_arrival),
                format!("{:.0}%", p.cold_fraction * 100.0),
                fmt_latency(p.mean_latency),
                fmt_latency(p.p50_latency),
                fmt_latency(p.p99_latency),
            ]);
        }
        t.render()
    }
}

/// Run the sweep.
pub fn run(params: &ColdStartParams, seed: u64) -> ColdStartResult {
    let mut points = Vec::new();
    let mut probe = ExperimentProbe::new();
    for (i, &gap) in params.inter_arrivals.iter().enumerate() {
        let mut profile = CloudProfile::aws_2018().exact();
        if params.firecracker {
            profile = profile.firecracker();
        }
        let cloud = Cloud::new(profile, seed + i as u64);
        cloud.faas.register(FunctionSpec::new(
            "ping",
            256,
            SimDuration::from_secs(30),
            |_ctx, p| async move { Ok(p) },
        ));
        if params.provisioned > 0 {
            cloud.faas.set_provisioned_concurrency("ping", params.provisioned);
        }
        let faas = cloud.faas.clone();
        let sim = cloud.sim.clone();
        let n = params.invocations;
        let (colds, stats, mut lat) = cloud.sim.block_on(async move {
            let mut colds = 0usize;
            let mut stats = Summary::new();
            // One sample per invocation (50 at the default params), kept
            // so the point's p50/p99 are exact.
            let mut lat = Vec::with_capacity(n);
            for _ in 0..n {
                // Arrivals sparser than the keep-alive window meet a
                // reclaimed container: reap like the platform would.
                faas.reap_idle();
                let out = faas.invoke("ping", Bytes::new()).await;
                if out.cold {
                    colds += 1;
                }
                stats.record_duration(out.total);
                lat.push(out.total.as_secs_f64());
                sim.sleep(gap).await;
            }
            (colds, stats, lat)
        });
        lat.sort_by(f64::total_cmp);
        probe.capture(&cloud);
        points.push(ColdStartPoint {
            inter_arrival: gap,
            cold_fraction: colds as f64 / params.invocations as f64,
            mean_latency: SimDuration::from_secs_f64(stats.mean()),
            p50_latency: SimDuration::from_secs_f64(nearest_rank(&lat, 0.50)),
            p99_latency: SimDuration::from_secs_f64(nearest_rank(&lat, 0.99)),
        });
    }
    ColdStartResult { points, probe }
}

/// Chaos-hardened variant of the cold-start study: the same
/// inter-arrival sweep, but every invocation goes through a
/// [`RetryingInvoker`](faasim_resilience::RetryingInvoker) so platform
/// kills (`FaultPlan::hostile`'s `kill_prob`) are retried inside a
/// per-request deadline budget. The invariant is *completion under
/// fault*: every arrival either produces an echoed payload or a clean
/// declared failure — never a hang — and the global conservation checks
/// still hold afterwards.
pub fn resilient(seed: u64, chaos: &dyn Fn(&Cloud)) -> super::ResilientReport {
    use faasim_payload::Payload;
    use faasim_resilience::{
        ledger_consistent, message_conservation, queue_conservation, Deadline, RetryPolicy,
        RetryingInvoker,
    };

    const INVOCATIONS: usize = 8;
    const PAYLOAD_BYTES: usize = 256;

    let mut report = super::ResilientReport::new();
    let gaps = [SimDuration::from_secs(1), SimDuration::from_mins(20)];
    for (i, gap) in gaps.into_iter().enumerate() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed + i as u64);
        chaos(&cloud);
        cloud.faas.register(FunctionSpec::new(
            "ping",
            256,
            SimDuration::from_secs(30),
            |_ctx, p| async move { Ok(p) },
        ));
        let invoker = RetryingInvoker::new(
            &cloud.sim,
            &cloud.faas,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 25,
                ..RetryPolicy::default()
            },
            "resil.cold.invoker",
        );
        let faas = cloud.faas.clone();
        let sim = cloud.sim.clone();
        let payload = Payload::zeros(PAYLOAD_BYTES);
        let mut failures = Vec::new();
        let ((colds, total), failures) = cloud.sim.block_on(async move {
            let mut colds = 0usize;
            let mut total = 0usize;
            for t in 0..INVOCATIONS {
                faas.reap_idle();
                let deadline = Deadline::within(&sim, SimDuration::from_secs(120));
                match invoker.invoke("ping", &payload, deadline).await {
                    Ok(out) => {
                        total += 1;
                        if out.cold {
                            colds += 1;
                        }
                        let echoed = out.result.as_ref().expect("ok outcome").len();
                        if echoed != PAYLOAD_BYTES {
                            failures.push(format!("trial {t}: echoed {echoed} bytes"));
                        }
                    }
                    Err(e) => failures.push(format!("trial {t}: {e}")),
                }
                sim.sleep(gap).await;
            }
            ((colds, total), failures)
        });
        failures
            .into_iter()
            .for_each(|f| report.violation(format!("cold_starts/gap{i}: {f}")));
        let frac = colds as f64 / total.max(1) as f64;
        report.check((0.0..=1.0).contains(&frac), || {
            format!("cold_starts/gap{i}: cold fraction {frac} out of range")
        });
        cloud.sim.run();
        if let Some(v) = message_conservation(&cloud.recorder) {
            report.violation(format!("cold_starts/gap{i}: {v}"));
        }
        if let Some(v) = queue_conservation(&cloud.recorder, &cloud.queue) {
            report.violation(format!("cold_starts/gap{i}: {v}"));
        }
        if let Some(v) = ledger_consistent(&cloud.ledger) {
            report.violation(format!("cold_starts/gap{i}: {v}"));
        }
        report.probe.capture(&cloud);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_arrivals_always_cold_start() {
        let r = run(&ColdStartParams::quick(), 42);
        let hot = r.at(SimDuration::from_secs(1));
        let cold = r.at(SimDuration::from_mins(20));
        // Back-to-back requests: only the very first is cold.
        assert!(hot.cold_fraction <= 0.11, "hot {}", hot.cold_fraction);
        // Past the keep-alive window: every request is cold.
        assert!((cold.cold_fraction - 1.0).abs() < 1e-9);
        // Cold means ~5.3 s instead of ~0.3 s in 2018; the hot point's
        // *median* is the warm path even though its mean carries the one
        // initial cold start.
        assert!(cold.mean_latency.as_secs_f64() > 5.0);
        assert!(hot.p50_latency.as_secs_f64() < 0.35);
        assert!(hot.mean_latency < cold.mean_latency);
    }

    #[test]
    fn provisioned_concurrency_holds_the_slo() {
        let r = run(
            &ColdStartParams {
                provisioned: 1,
                ..ColdStartParams::quick()
            },
            44,
        );
        // Even 20-minute gaps never cold-start a reserved container.
        let cold_gap = r.at(SimDuration::from_mins(20));
        assert_eq!(cold_gap.cold_fraction, 0.0);
        assert!(cold_gap.mean_latency.as_secs_f64() < 0.35);
    }

    #[test]
    fn firecracker_shrinks_the_cold_penalty_only() {
        let base = run(&ColdStartParams::quick(), 43);
        let fc = run(
            &ColdStartParams {
                firecracker: true,
                ..ColdStartParams::quick()
            },
            43,
        );
        let gap = SimDuration::from_mins(20);
        // Same cold *fraction* — Firecracker doesn't change the lifecycle.
        assert_eq!(base.at(gap).cold_fraction, fc.at(gap).cold_fraction);
        // Much smaller cold *penalty*: ~0.43 s vs ~5.3 s.
        assert!(fc.at(gap).mean_latency.as_secs_f64() < 0.6);
        assert!(base.at(gap).mean_latency.as_secs_f64() > 5.0);
        // Warm latency unchanged: the invocation path still dominates.
        let hot = SimDuration::from_secs(1);
        assert_eq!(base.at(hot).p50_latency, fc.at(hot).p50_latency);
    }
}
