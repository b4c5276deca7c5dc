//! Ablation A5 — the paper's central architectural claim, quantified:
//! "FaaS routinely 'ships data to code' rather than 'shipping code to
//! data.' This is a recurring architectural anti-pattern among system
//! designers, which database aficionados seem to need to point out each
//! generation."
//!
//! The same log-aggregation job (count HTTP statuses across a dataset)
//! is executed two ways:
//!
//! - **data-to-code**: a Lambda function pulls every object through its
//!   own (shared, capped) NIC and aggregates in the handler, chaining
//!   executions when the 15-minute guillotine hits;
//! - **code-to-data**: the same Lambda merely *orchestrates* — it calls
//!   the autoscaling query service, which scans next to the data (§2's
//!   orchestration pattern, §4's "fluid code and data placement").
//!
//! Swept over dataset size there is a crossover: below ~100 MB the query
//! service's ~1 s planning latency makes pulling the data directly
//! *faster* — but the data-shipping tax grows linearly with the data
//! while the pushed-down scan grows with `size / parallelism`, so the
//! gap widens without bound. The bench prints the crossover and the
//! per-size ratio.
//!
//! Log bodies are [`Payload::synthetic`]: the simulator transfers, bills,
//! and scans them by *length*, while the aggregation kernels count lines
//! analytically (per-pattern cost, multiplied by repeats). The
//! code-to-data arm runs the query service's streaming scan pipeline —
//! partition-parallel workers issuing chunked ranged reads and folding
//! each chunk as it arrives, transfer overlapped with scan — so the
//! default sweep's 30 GB point (where the real 15-minute guillotine
//! forces execution chaining) exercises the paper-scale streaming path
//! end to end yet takes milliseconds of wall-clock, never materializing
//! 30 GB of RAM.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::{FnError, FunctionSpec};
use faasim_payload::Payload;
use faasim_query::{Aggregate, QuerySpec};
use faasim_simcore::SimDuration;

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, fmt_ratio, Table};

/// Parameters of the data-shipping comparison.
#[derive(Clone, Debug)]
pub struct DataShippingParams {
    /// Dataset sizes (MB) to sweep.
    pub dataset_mbs: Vec<u64>,
    /// Object size in MB.
    pub object_mb: u64,
    /// Override the platform's 15-minute execution cap (used by tests to
    /// exercise execution chaining without simulating tens of GB).
    pub lifetime_cap: Option<SimDuration>,
}

impl Default for DataShippingParams {
    fn default() -> Self {
        DataShippingParams {
            dataset_mbs: vec![10, 100, 1_000, 10_000, 30_000],
            object_mb: 10,
            lifetime_cap: None,
        }
    }
}

impl DataShippingParams {
    /// Reduced scale for tests.
    pub fn quick() -> DataShippingParams {
        DataShippingParams {
            dataset_mbs: vec![10, 250],
            object_mb: 10,
            lifetime_cap: None,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct DataShippingPoint {
    /// Dataset size in MB.
    pub dataset_mb: u64,
    /// Latency of the Lambda-pulls-everything variant.
    pub data_to_code: SimDuration,
    /// Lambda executions the data-to-code variant needed (15-min cap).
    pub data_to_code_executions: u64,
    /// Cost of the data-to-code variant (Lambda GB-s + storage requests).
    pub data_to_code_cost: f64,
    /// Latency of the orchestrated query variant.
    pub code_to_data: SimDuration,
    /// Cost of the code-to-data variant (Lambda + query TB scanned).
    pub code_to_data_cost: f64,
}

impl DataShippingPoint {
    /// How much faster shipping code to data is at this size.
    pub fn speedup(&self) -> f64 {
        self.data_to_code.as_secs_f64() / self.code_to_data.as_secs_f64()
    }
}

/// The sweep.
#[derive(Clone, Debug)]
pub struct DataShippingResult {
    /// Points in ascending dataset size.
    pub points: Vec<DataShippingPoint>,
    /// Byte-exact replay probe (two captures per sweep point: the
    /// data-to-code cloud, then the code-to-data cloud).
    pub probe: ExperimentProbe,
}

impl DataShippingResult {
    /// Point at a given size.
    pub fn at(&self, dataset_mb: u64) -> &DataShippingPoint {
        self.points
            .iter()
            .find(|p| p.dataset_mb == dataset_mb)
            .unwrap_or_else(|| panic!("no point at {dataset_mb} MB"))
    }

    /// Render the sweep.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Data-to-code (Lambda pulls) vs code-to-data (pushed-down query)",
            &[
                "dataset",
                "data-to-code",
                "execs",
                "cost",
                "code-to-data",
                "cost",
                "speedup",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{} MB", p.dataset_mb),
                fmt_latency(p.data_to_code),
                p.data_to_code_executions.to_string(),
                format!("${:.4}", p.data_to_code_cost),
                fmt_latency(p.code_to_data),
                format!("${:.4}", p.code_to_data_cost),
                fmt_ratio(p.speedup()),
            ]);
        }
        t.render()
    }
}

const LOG_LINE: &str = "GET /assets/app.js 200\n";

fn populate(cloud: &Cloud, dataset_mb: u64, object_mb: u64) -> (usize, u64) {
    cloud.blob.create_bucket("logs");
    let objects = (dataset_mb / object_mb).max(1) as usize;
    let lines_per_object = (object_mb * 1_000_000) / LOG_LINE.len() as u64;
    // Symbolic body: one 23-byte pattern repeated; O(1) to build and put,
    // regardless of object size.
    let body = Payload::synthetic(LOG_LINE, lines_per_object);
    let blob = cloud.blob.clone();
    let host = cloud.client_host();
    cloud.sim.block_on(async move {
        for i in 0..objects {
            blob.put(&host, "logs", &format!("part-{i:05}"), body.clone())
                .await
                .expect("logs bucket");
        }
    });
    cloud.ledger.reset(); // setup isn't part of either variant's bill
    (objects, lines_per_object)
}

/// Run the sweep.
pub fn run(params: &DataShippingParams, seed: u64) -> DataShippingResult {
    let mut points = Vec::new();
    let mut probe = ExperimentProbe::new();
    for (i, &dataset_mb) in params.dataset_mbs.iter().enumerate() {
        let seed = seed + i as u64;
        let (d2c, execs, d2c_cost, expected) = run_data_to_code(
            dataset_mb,
            params.object_mb,
            params.lifetime_cap,
            seed,
            &mut probe,
        );
        let (c2d, c2d_cost) =
            run_code_to_data(dataset_mb, params.object_mb, seed + 1000, expected, &mut probe);
        points.push(DataShippingPoint {
            dataset_mb,
            data_to_code: d2c,
            data_to_code_executions: execs,
            data_to_code_cost: d2c_cost,
            code_to_data: c2d,
            code_to_data_cost: c2d_cost,
        });
    }
    DataShippingResult { points, probe }
}

/// Variant 1: the function pulls every object and counts lines itself.
fn run_data_to_code(
    dataset_mb: u64,
    object_mb: u64,
    lifetime_cap: Option<SimDuration>,
    seed: u64,
    probe: &mut ExperimentProbe,
) -> (SimDuration, u64, f64, u64) {
    let mut profile = CloudProfile::aws_2018().exact();
    if let Some(cap) = lifetime_cap {
        profile.faas.max_lifetime = cap;
    }
    let cloud = Cloud::new(profile, seed);
    let (objects, lines_per_object) = populate(&cloud, dataset_mb, object_mb);
    let expected = objects as u64 * lines_per_object;

    let progress = Rc::new(RefCell::new((0usize, 0u64))); // (next object, count)
    let blob = cloud.blob.clone();
    let p = progress.clone();
    cloud.faas.register(FunctionSpec::new(
        "aggregate",
        1_024,
        SimDuration::from_secs(900),
        move |ctx, payload| {
            let blob = blob.clone();
            let p = p.clone();
            async move {
                if payload.eq_bytes(b"warmup") {
                    return Ok(Bytes::new());
                }
                loop {
                    let next = p.borrow().0;
                    if next >= objects {
                        return Ok(Bytes::new());
                    }
                    let body = blob
                        .get(ctx.host(), "logs", &format!("part-{next:05}"))
                        .await
                        .expect("object");
                    // Real aggregation semantics, analytic cost: a
                    // synthetic body counts its pattern's lines once and
                    // multiplies by repeats; inline bytes are scanned.
                    // Simulated time still charges ~1.6 Gbps over every
                    // byte either way.
                    let count = body.line_count();
                    ctx.cpu(SimDuration::from_secs_f64(
                        body.len() as f64 * 8.0 / faasim_simcore::gbps(1.6),
                    ))
                    .await;
                    let mut st = p.borrow_mut();
                    st.0 += 1;
                    st.1 += count;
                }
            }
        },
    ));
    let faas = cloud.faas.clone();
    let progress2 = progress.clone();
    let executions = Rc::new(std::cell::Cell::new(0u64));
    let e2 = executions.clone();
    // Steady state: the one-time container cold start is not part of the
    // data-movement comparison.
    let warm = cloud.faas.clone();
    cloud
        .sim
        .block_on(async move { warm.invoke("aggregate", Bytes::from_static(b"warmup")).await });
    let t0 = cloud.sim.now();
    cloud.sim.block_on(async move {
        while progress2.borrow().0 < objects {
            let out = faas.invoke("aggregate", Bytes::new()).await;
            e2.set(e2.get() + 1);
            match out.result {
                Ok(_) | Err(FnError::TimedOut { .. }) => {}
                Err(e) => panic!("aggregate failed: {e}"),
            }
        }
    });
    assert_eq!(progress.borrow().1, expected, "wrong aggregate");
    probe.capture(&cloud);
    (
        cloud.sim.now() - t0,
        executions.get(),
        cloud.ledger.total(),
        expected,
    )
}

/// Variant 2: the function orchestrates the query service.
fn run_code_to_data(
    dataset_mb: u64,
    object_mb: u64,
    seed: u64,
    expected: u64,
    probe: &mut ExperimentProbe,
) -> (SimDuration, f64) {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    populate(&cloud, dataset_mb, object_mb);

    let query = cloud.query.clone();
    cloud.faas.register(FunctionSpec::new(
        "orchestrate",
        256, // tiny: it does no heavy lifting
        SimDuration::from_secs(900),
        move |ctx, payload| {
            let query = query.clone();
            async move {
                if payload.eq_bytes(b"warmup") {
                    return Ok(Bytes::new());
                }
                let out = query
                    .run(
                        ctx.host(),
                        QuerySpec::new("logs", "part-", Aggregate::CountAll),
                    )
                    .await
                    .expect("query");
                Ok(Bytes::from(
                    (out.rows[0].1 as u64).to_le_bytes().to_vec(),
                ))
            }
        },
    ));
    let faas = cloud.faas.clone();
    let warm = cloud.faas.clone();
    cloud
        .sim
        .block_on(async move { warm.invoke("orchestrate", Bytes::from_static(b"warmup")).await });
    let t0 = cloud.sim.now();
    let got = cloud.sim.block_on(async move {
        let out = faas.invoke("orchestrate", Bytes::new()).await;
        u64::from_le_bytes(
            out.result.expect("query result").bytes()[..8]
                .try_into()
                .unwrap(),
        )
    });
    assert_eq!(got, expected, "wrong aggregate");
    probe.capture(&cloud);
    (cloud.sim.now() - t0, cloud.ledger.total())
}

/// Chaos-hardened variant of the data-to-code aggregation: the same
/// chained log count, but the handler reads objects through a
/// [`RetryingBlob`](faasim_resilience::RetryingBlob) (absorbing 503s)
/// and the driver tolerates kills, timeouts, and exhausted handlers by
/// re-invoking until the shared cursor reaches the end of the dataset.
/// The cursor and the running count advance atomically between awaits,
/// so a mid-flight kill can never double-count an object — the
/// end-to-end invariant is an *exact* line count despite at-least-once
/// execution.
pub fn resilient(seed: u64, chaos: &dyn Fn(&Cloud)) -> super::ResilientReport {
    use faasim_resilience::{
        ledger_consistent, message_conservation, queue_conservation, Deadline, RetryPolicy,
        RetryingBlob,
    };

    const DATASET_MB: u64 = 100;
    const OBJECT_MB: u64 = 10;

    let mut report = super::ResilientReport::new();
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    chaos(&cloud);
    cloud.blob.create_bucket("logs");
    let objects = (DATASET_MB / OBJECT_MB) as usize;
    let lines_per_object = (OBJECT_MB * 1_000_000) / LOG_LINE.len() as u64;
    let expected = objects as u64 * lines_per_object;
    let rblob = RetryingBlob::new(
        &cloud.sim,
        &cloud.blob,
        cloud.recorder.clone(),
        RetryPolicy {
            max_attempts: 25,
            ..RetryPolicy::default()
        },
        "resil.ship.blob",
    );

    {
        let blob = rblob.clone();
        let host = cloud.client_host();
        let body = Payload::synthetic(LOG_LINE, lines_per_object);
        let mut failures = Vec::new();
        cloud
            .sim
            .block_on(async move {
                for i in 0..objects {
                    if let Err(e) = blob
                        .put(&host, "logs", &format!("part-{i:05}"), body.clone())
                        .await
                    {
                        failures.push(format!("populate part-{i:05}: {e}"));
                    }
                }
                failures
            })
            .into_iter()
            .for_each(|f| report.violation(format!("data_shipping: {f}")));
    }

    let progress = Rc::new(RefCell::new((0usize, 0u64))); // (next object, count)
    let p = progress.clone();
    let blob = rblob.clone();
    cloud.faas.register(FunctionSpec::new(
        "aggregate",
        1_024,
        SimDuration::from_secs(900),
        move |ctx, _| {
            let blob = blob.clone();
            let p = p.clone();
            async move {
                loop {
                    let next = p.borrow().0;
                    if next >= objects {
                        return Ok(Bytes::new());
                    }
                    let body = match blob.get(ctx.host(), "logs", &format!("part-{next:05}"), Deadline::unbounded()).await
                    {
                        Ok(b) => b,
                        Err(e) => {
                            return Err(FnError::Handler(format!("get part-{next:05}: {e}")))
                        }
                    };
                    let count = body.line_count();
                    ctx.cpu(SimDuration::from_secs_f64(
                        body.len() as f64 * 8.0 / faasim_simcore::gbps(1.6),
                    ))
                    .await;
                    // Atomic between awaits: a kill drops the future at an
                    // await point, never between these two updates.
                    let mut st = p.borrow_mut();
                    st.0 += 1;
                    st.1 += count;
                }
            }
        },
    ));
    let faas = cloud.faas.clone();
    let sim = cloud.sim.clone();
    let p2 = progress.clone();
    let stuck = cloud.sim.block_on(async move {
        let deadline = Deadline::within(&sim, SimDuration::from_secs(3_600));
        while p2.borrow().0 < objects {
            if deadline.is_expired(&sim) {
                return Some(format!(
                    "aggregation stuck at {}/{objects} objects within budget",
                    p2.borrow().0
                ));
            }
            let out = faas.invoke("aggregate", Bytes::new()).await;
            match out.result {
                Ok(_) => {}
                Err(
                    FnError::TimedOut { .. } | FnError::Crashed { .. } | FnError::Handler(_),
                ) => sim.sleep(SimDuration::from_millis(50)).await,
                Err(e) => return Some(format!("aggregate failed fatally: {e}")),
            }
        }
        None
    });
    if let Some(v) = stuck {
        report.violation(format!("data_shipping: {v}"));
    }
    let (done, count) = *progress.borrow();
    report.check(done == objects, || {
        format!("data_shipping: cursor stopped at {done}/{objects}")
    });
    report.check(count == expected, || {
        format!(
            "data_shipping: counted {count} lines, expected {expected} \
             (exactly-once aggregation under retries)"
        )
    });
    cloud.sim.run();
    if let Some(v) = message_conservation(&cloud.recorder) {
        report.violation(format!("data_shipping: {v}"));
    }
    if let Some(v) = queue_conservation(&cloud.recorder, &cloud.queue) {
        report.violation(format!("data_shipping: {v}"));
    }
    if let Some(v) = ledger_consistent(&cloud.ledger) {
        report.violation(format!("data_shipping: {v}"));
    }
    report.probe.capture(&cloud);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_to_data_wins_and_gap_grows() {
        let r = run(&DataShippingParams::quick(), 4242);
        let small = r.at(10);
        let large = r.at(250);
        // Both variants computed the same count (asserted inside run).
        // At 10 MB, the query service's planning latency makes
        // data-to-code outright faster (the crossover)...
        assert!(
            (0.1..1.2).contains(&small.speedup()),
            "small speedup {}",
            small.speedup()
        );
        // ...but already at 250 MB the pushed-down scan wins decisively,
        // and the gap keeps growing with the data (the tax is linear).
        assert!(large.speedup() > 3.0, "large speedup {}", large.speedup());
        assert!(
            large.speedup() > small.speedup() * 2.5,
            "gap did not grow: {} -> {}",
            small.speedup(),
            large.speedup()
        );
        assert!(r.render().contains("speedup"));
    }

    #[test]
    fn lifetime_cap_forces_chaining() {
        // With the platform cap shrunk to 10 s, pulling 500 MB cannot fit
        // in one execution: the data-to-code variant must chain. (At the
        // real 15-minute cap the same happens beyond ~20 GB — the bench
        // sweep's largest point shows the mechanism at paper scale.)
        let r = run(
            &DataShippingParams {
                dataset_mbs: vec![500],
                object_mb: 10,
                lifetime_cap: Some(SimDuration::from_secs(10)),
            },
            77,
        );
        let p = r.at(500);
        assert!(
            p.data_to_code_executions >= 2,
            "executions {}",
            p.data_to_code_executions
        );
    }

    #[test]
    fn real_cap_forces_chaining_at_paper_scale() {
        // At the *real* 900 s cap, pulling the default sweep's 30 GB
        // through a Lambda's NIC (~41 MB/s per blob connection) plus the
        // in-handler scan takes ~1000 s of simulated time: the guillotine
        // falls and the aggregation must chain across executions.
        // Symbolic payloads make this paper-scale point cheap enough to
        // assert in a unit test.
        let paper_mb = *DataShippingParams::default().dataset_mbs.last().unwrap();
        assert!(paper_mb >= 20_000, "paper-scale point shrank: {paper_mb} MB");
        let r = run(
            &DataShippingParams {
                dataset_mbs: vec![paper_mb],
                object_mb: 10,
                lifetime_cap: None,
            },
            7,
        );
        let p = r.at(paper_mb);
        assert!(
            p.data_to_code_executions >= 2,
            "executions {}",
            p.data_to_code_executions
        );
        assert!(
            p.data_to_code > SimDuration::from_secs(900),
            "d2c {:?}",
            p.data_to_code
        );
    }
}
