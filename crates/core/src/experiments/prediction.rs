//! Experiment E4 — §3.1 case study 2: **low-latency prediction serving
//! via batching**, four deployments:
//!
//! 1. `Lambda + S3 model` — the model is fetched from the object store on
//!    every invocation, censored documents written back to S3 (559 ms).
//! 2. `Lambda optimized` — the model is compiled into the function and
//!    results go to a queue (447 ms).
//! 3. `EC2 + SQS` — a serverful consumer long-polls the queue (13 ms).
//! 4. `EC2 + ZeroMQ` — clients message the server directly (2.8 ms).
//!
//! Plus the paper's cost extrapolation to one million messages per
//! second: SQS request pricing vs an EC2 fleet sized by measured
//! throughput ($1,584/hr vs $27.84/hr — 57×).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::{add_queue_trigger, decode_batch, encode_batch, FunctionSpec};
use faasim_ml::{synthetic_document, DirtyWordModel};
use faasim_queue::QueueConfig;
use faasim_simcore::{SimDuration, Summary};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::probe::ExperimentProbe;
use crate::report::{fmt_latency, fmt_ratio, Table};

/// Parameters of the serving comparison.
#[derive(Clone, Debug)]
pub struct PredictionParams {
    /// Batches measured per deployment (paper: 1,000).
    pub batches: usize,
    /// Documents per batch (paper/SQS cap: 10).
    pub batch_size: usize,
    /// Words per document.
    pub doc_words: usize,
    /// Size of the serialized blacklist model fetched from the object
    /// store in the unoptimized deployment. Calibrated to ~500 KB so the
    /// fetch accounts for the paper's 559 ms vs 447 ms gap.
    pub model_bytes: usize,
    /// Reference-core time to censor one document.
    pub per_doc_ref_work: SimDuration,
    /// Messages/second for the cost extrapolation (paper: 1M).
    pub extrapolate_rate: f64,
}

impl Default for PredictionParams {
    fn default() -> Self {
        PredictionParams {
            batches: 1_000,
            batch_size: 10,
            doc_words: 100,
            model_bytes: 500_000,
            per_doc_ref_work: SimDuration::from_micros(20),
            extrapolate_rate: 1e6,
        }
    }
}

impl PredictionParams {
    /// Reduced scale for tests.
    pub fn quick() -> PredictionParams {
        PredictionParams {
            batches: 40,
            ..PredictionParams::default()
        }
    }
}

/// Per-deployment outcome.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Deployment label.
    pub label: &'static str,
    /// Mean per-batch latency.
    pub mean_batch_latency: SimDuration,
    /// Batches measured.
    pub batches: usize,
}

/// The four-deployment comparison plus the cost extrapolation.
#[derive(Clone, Debug)]
pub struct PredictionResult {
    /// Deployments in the paper's order.
    pub deployments: Vec<Deployment>,
    /// $/hr for SQS alone at the extrapolated message rate.
    pub sqs_hourly_at_rate: f64,
    /// Instances needed at the extrapolated rate (from measured
    /// throughput) and their $/hr.
    pub ec2_instances_at_rate: u32,
    /// EC2 fleet $/hr.
    pub ec2_hourly_at_rate: f64,
    /// Measured per-instance throughput (messages/second).
    pub ec2_throughput_per_instance: f64,
    /// Byte-exact replay probe (one capture per deployment's cloud).
    pub probe: ExperimentProbe,
}

impl PredictionResult {
    /// Latency of a deployment by label.
    pub fn latency_of(&self, label: &str) -> SimDuration {
        self.deployments
            .iter()
            .find(|d| d.label == label)
            .map(|d| d.mean_batch_latency)
            .unwrap_or_else(|| panic!("no deployment {label:?}"))
    }

    /// Cost advantage of the EC2 fleet at the extrapolated rate.
    pub fn cost_ratio(&self) -> f64 {
        self.sqs_hourly_at_rate / self.ec2_hourly_at_rate
    }

    /// Render in the case study's structure.
    pub fn render(&self) -> String {
        let best = self
            .deployments
            .iter()
            .map(|d| d.mean_batch_latency)
            .min()
            .expect("deployments")
            .as_secs_f64();
        let mut t = Table::new(
            "Case study 2: prediction serving (per 10-message batch)",
            &["deployment", "latency", "vs best"],
        );
        for d in &self.deployments {
            t.row(&[
                d.label.to_owned(),
                fmt_latency(d.mean_batch_latency),
                fmt_ratio(d.mean_batch_latency.as_secs_f64() / best),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "\nAt {:.0} msg/s: SQS requests alone {}/hr; {} EC2 instances ({:.0} msg/s each) {}/hr — {} cheaper\n",
            self.ec2_throughput_per_instance * self.ec2_instances_at_rate as f64,
            faasim_pricing::format_dollars(self.sqs_hourly_at_rate),
            self.ec2_instances_at_rate,
            self.ec2_throughput_per_instance,
            faasim_pricing::format_dollars(self.ec2_hourly_at_rate),
            fmt_ratio(self.cost_ratio()),
        ));
        out
    }
}

/// Run all four deployments.
pub fn run(params: &PredictionParams, seed: u64) -> PredictionResult {
    let mut probe = ExperimentProbe::new();
    let lambda_s3 = run_lambda(params, seed, false, &mut probe);
    let lambda_opt = run_lambda(params, seed + 1, true, &mut probe);
    let (ec2_sqs, _) = run_ec2_sqs(params, seed + 2, &mut probe);
    let (ec2_zmq, per_batch_busy) = run_ec2_zmq(params, seed + 3, &mut probe);

    // Cost extrapolation, the paper's §3.1 arithmetic:
    // SQS requests per message ≈ 1 send + 1/10 receive + 1/10 delete of
    // batched requests — but the paper's $1,584/hr at $0.40/M implies 1.1
    // requests per message (send + batched receive; deletes folded in).
    let book = faasim_pricing::PriceBook::aws_2018();
    let requests_per_msg = 1.1;
    let sqs_hourly = params.extrapolate_rate * 3600.0 * requests_per_msg * book.queue_per_request;
    // EC2 fleet sized by the measured busy time per batch.
    let throughput = params.batch_size as f64 / per_batch_busy.as_secs_f64();
    let instances = (params.extrapolate_rate / throughput).ceil() as u32;
    let ec2_hourly = instances as f64 * book.ec2_hourly("m5.large");

    PredictionResult {
        deployments: vec![lambda_s3, lambda_opt, ec2_sqs, ec2_zmq],
        sqs_hourly_at_rate: sqs_hourly,
        ec2_instances_at_rate: instances,
        ec2_hourly_at_rate: ec2_hourly,
        ec2_throughput_per_instance: throughput,
        probe,
    }
}

fn make_docs(params: &PredictionParams, seed: u64) -> Vec<Bytes> {
    (0..params.batch_size)
        .map(|i| {
            Bytes::from(synthetic_document(500, params.doc_words, seed * 1000 + i as u64).into_bytes())
        })
        .collect()
}

/// Deployments 1 & 2: Lambda behind a queue trigger.
fn run_lambda(
    params: &PredictionParams,
    seed: u64,
    optimized: bool,
    probe: &mut ExperimentProbe,
) -> Deployment {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    cloud.queue.create_queue("in", QueueConfig::default());
    cloud.queue.create_queue("out", QueueConfig::default());
    cloud.blob.create_bucket("results");
    cloud.blob.create_bucket("models");

    let model = DirtyWordModel::synthetic(500);
    // Upload the serialized model for the unoptimized deployment.
    {
        let blob = cloud.blob.clone();
        let host = cloud.client_host();
        let bytes = Bytes::from(vec![0u8; params.model_bytes]);
        cloud.sim.block_on(async move {
            blob.put(&host, "models", "blacklist", bytes).await.unwrap();
        });
    }

    // Completion notifications: handler -> measurement loop.
    let (done_tx, mut done_rx) = faasim_simcore::channel::<u64>();
    let blob = cloud.blob.clone();
    let queue = cloud.queue.clone();
    let per_doc = params.per_doc_ref_work;
    cloud.faas.register(FunctionSpec::new(
        "classify",
        1_024,
        SimDuration::from_secs(60),
        move |ctx, payload| {
            let blob = blob.clone();
            let queue = queue.clone();
            let model = model.clone();
            let done_tx = done_tx.clone();
            async move {
                if !optimized {
                    // Retrieve the model on every invocation.
                    blob.get(ctx.host(), "models", "blacklist")
                        .await
                        .expect("model object");
                }
                let docs = decode_batch(&payload).expect("batch payload");
                let mut censored = Vec::with_capacity(docs.len());
                for doc in &docs {
                    let doc = doc.to_vec();
                    let text = std::str::from_utf8(&doc).expect("utf8 docs");
                    let out = model.censor(text);
                    censored.push(faasim_payload::Payload::from(out.text.into_bytes()));
                    ctx.cpu(per_doc).await;
                }
                let result = encode_batch(&censored);
                if optimized {
                    // Results are placed back into an SQS queue.
                    queue
                        .send(ctx.host(), "out", result)
                        .await
                        .expect("out queue");
                } else {
                    // Results written back to S3.
                    let key = format!("batch-{}", ctx.sim().now().as_nanos());
                    blob.put(ctx.host(), "results", &key, result)
                        .await
                        .expect("results bucket");
                }
                let _ = done_tx.send(ctx.sim().now().as_nanos());
                Ok(Bytes::new())
            }
        },
    ));
    let _trigger = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "classify", "in", 10);

    let producer = cloud.client_host();
    let queue = cloud.queue.clone();
    let sim = cloud.sim.clone();
    let n = params.batches;
    let docs = make_docs(params, seed);
    let stats = cloud.sim.block_on(async move {
        // Warm-up: pay the one-time container cold start outside the
        // measurement, as a steady-state serving system would have.
        for _ in 0..2 {
            queue
                .send_batch(&producer, "in", docs.clone())
                .await
                .expect("send batch");
            done_rx.recv().await.expect("handler completion");
        }
        let mut stats = Summary::new();
        for _ in 0..n {
            let t0 = sim.now();
            queue
                .send_batch(&producer, "in", docs.clone())
                .await
                .expect("send batch");
            done_rx.recv().await.expect("handler completion");
            stats.record_duration(sim.now() - t0);
        }
        stats
    });
    probe.capture(&cloud);
    Deployment {
        label: if optimized {
            "Lambda optimized (model baked in, SQS out)"
        } else {
            "Lambda + S3 model"
        },
        mean_batch_latency: SimDuration::from_secs_f64(stats.mean()),
        batches: stats.count(),
    }
}

/// Deployment 3: EC2 consumer long-polling SQS.
fn run_ec2_sqs(
    params: &PredictionParams,
    seed: u64,
    probe: &mut ExperimentProbe,
) -> (Deployment, SimDuration) {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    cloud.queue.create_queue("in", QueueConfig::default());
    let vm = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
    let model = DirtyWordModel::synthetic(500);
    let producer = cloud.client_host();
    let queue = cloud.queue.clone();
    let sim = cloud.sim.clone();
    let host = vm.host().clone();
    let vm2 = vm.clone();
    let n = params.batches;
    let per_doc = params.per_doc_ref_work;
    let docs = make_docs(params, seed);
    let stats = cloud.sim.block_on(async move {
        let mut stats = Summary::new();
        for _ in 0..n {
            queue
                .send_batch(&producer, "in", docs.clone())
                .await
                .expect("send batch");
            // Consumer: the batch is already waiting (steady-state serving).
            let t0 = sim.now();
            let got = queue
                .receive(&host, "in", 10, SimDuration::from_secs(20))
                .await
                .expect("receive");
            for m in &got {
                let body = m.body.to_vec();
                let text = std::str::from_utf8(&body).expect("utf8");
                let _ = model.censor(text);
                vm2.cpu_work(per_doc).await;
            }
            let receipts = got.into_iter().map(|m| m.receipt).collect();
            queue.delete_batch(&host, receipts).await.expect("delete");
            stats.record_duration(sim.now() - t0);
        }
        stats
    });
    vm.terminate();
    let mean = SimDuration::from_secs_f64(stats.mean());
    probe.capture(&cloud);
    (
        Deployment {
            label: "EC2 + SQS",
            mean_batch_latency: mean,
            batches: stats.count(),
        },
        mean,
    )
}

/// Deployment 4: clients message the EC2 server directly (ZeroMQ style).
fn run_ec2_zmq(
    params: &PredictionParams,
    seed: u64,
    probe: &mut ExperimentProbe,
) -> (Deployment, SimDuration) {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    let server = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
    let client = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
    let model = DirtyWordModel::synthetic(500);
    let server_sock = cloud.fabric.bind(server.host(), 6000).expect("bind");
    let client_sock = cloud.fabric.bind(client.host(), 6000).expect("bind");
    let server_addr = server_sock.addr();
    let per_doc = params.per_doc_ref_work;
    let server_vm = server.clone();
    cloud.sim.spawn(async move {
        loop {
            let req = server_sock.recv().await;
            let body = req.payload.to_vec();
            let text = std::str::from_utf8(&body).expect("utf8");
            let out = model.censor(text);
            server_vm.cpu_work(per_doc).await;
            server_sock
                .reply(&req, Bytes::from(out.text.into_bytes()))
                .await;
        }
    });
    let sim = cloud.sim.clone();
    let n = params.batches;
    let docs = make_docs(params, seed);
    let stats_cell = Rc::new(RefCell::new(Summary::new()));
    let hc = stats_cell.clone();
    cloud.sim.block_on(async move {
        for _ in 0..n {
            let t0 = sim.now();
            // Ten acked messages per batch, the paper's ZeroMQ pattern.
            for doc in &docs {
                client_sock
                    .request(server_addr, doc.clone())
                    .await
                    .expect("server reply");
            }
            hc.borrow_mut().record_duration(sim.now() - t0);
        }
    });
    server.terminate();
    client.terminate();
    let stats = stats_cell.borrow();
    let mean = SimDuration::from_secs_f64(stats.mean());
    probe.capture(&cloud);
    (
        Deployment {
            label: "EC2 + ZeroMQ",
            mean_batch_latency: mean,
            batches: stats.count(),
        },
        mean,
    )
}

/// Chaos-hardened variant of the queue-triggered serving pipeline — the
/// flagship of the resilience layer. Under `FaultPlan::hostile` the
/// input queue *duplicates* deliveries and the platform kills handlers
/// mid-batch, so the same document batch can be processed several
/// times. The handler routes every model fetch through a
/// [`CircuitBreaker`](faasim_resilience::CircuitBreaker) (a browned-out
/// model store sheds load instead of retry-storming) and commits each
/// result through an
/// [`IdempotencyStore`](faasim_resilience::IdempotencyStore), so the
/// end-to-end invariant is **exactly-once observable effects under
/// at-least-once delivery**: each batch id has exactly one committed
/// result, and a poison batch lands in the DLQ rather than looping.
pub fn resilient(seed: u64, chaos: &dyn Fn(&Cloud)) -> super::ResilientReport {
    use faasim_faas::FnError;
    use faasim_payload::Payload;
    use faasim_queue::DeadLetterConfig;
    use faasim_resilience::{
        ledger_consistent, message_conservation, queue_conservation, BreakerConfig, BreakerError,
        CircuitBreaker, Deadline, IdempotencyStore, RetryPolicy, RetryingBlob, RetryingQueue,
    };

    const BATCHES: usize = 12;

    let mut report = super::ResilientReport::new();
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    chaos(&cloud);
    cloud.queue.create_queue("dlq", QueueConfig::default());
    cloud.queue.create_queue(
        "in",
        QueueConfig {
            visibility_timeout: SimDuration::from_secs(5),
            dead_letter: Some(DeadLetterConfig {
                queue: "dlq".into(),
                max_receives: 8,
            }),
        },
    );
    cloud.blob.create_bucket("models");
    let policy = RetryPolicy {
        max_attempts: 25,
        ..RetryPolicy::default()
    };
    let rblob = RetryingBlob::new(
        &cloud.sim,
        &cloud.blob,
        cloud.recorder.clone(),
        policy.clone(),
        "resil.pred.blob",
    );
    {
        let blob = rblob.clone();
        let host = cloud.client_host();
        if let Err(e) = cloud.sim.block_on(async move {
            blob.put(&host, "models", "blacklist", Payload::zeros(100_000))
                .await
        }) {
            report.violation(format!("prediction: upload model: {e}"));
        }
    }
    let idem = IdempotencyStore::new(
        &cloud.sim,
        &cloud.kv,
        cloud.recorder.clone(),
        "effects",
        policy.clone(),
        "resil.pred.idem",
    );
    let breaker = CircuitBreaker::new(
        &cloud.sim,
        cloud.recorder.clone(),
        "model-store",
        BreakerConfig::default(),
    );

    let idem_h = idem.clone();
    let blob = rblob.clone();
    let brk = breaker.clone();
    let per_doc = SimDuration::from_micros(20);
    cloud.faas.register(FunctionSpec::new(
        "classify",
        1_024,
        SimDuration::from_secs(60),
        move |ctx, payload| {
            let idem = idem_h.clone();
            let blob = blob.clone();
            let brk = brk.clone();
            async move {
                let bodies = decode_batch(&payload)
                    .ok_or_else(|| FnError::Handler("malformed batch".into()))?;
                // The model fetch goes through the breaker: a shed or
                // failed fetch fails the whole invocation, so the
                // trigger leaves the batch to be redelivered.
                match brk
                    .call(|_: &_| true, blob.get(ctx.host(), "models", "blacklist", Deadline::unbounded()))
                    .await
                {
                    Ok(_) => {}
                    Err(BreakerError::Open { .. }) => {
                        return Err(FnError::Handler("model store breaker open".into()))
                    }
                    Err(BreakerError::Inner(e)) => {
                        return Err(FnError::Handler(format!("model fetch: {e}")))
                    }
                }
                for body in &bodies {
                    let key = String::from_utf8_lossy(&body.to_vec()).into_owned();
                    ctx.cpu(per_doc).await;
                    let host = ctx.host().clone();
                    let value = Payload::inline(format!("censored:{key}"));
                    if let Err(e) = idem.execute(&host, &key, || async move { value }).await {
                        return Err(FnError::Handler(format!("commit {key}: {e}")));
                    }
                }
                Ok(Bytes::new())
            }
        },
    ));
    let trigger = add_queue_trigger(&cloud.faas, &cloud.queue, &cloud.fabric, "classify", "in", 10);

    let rqueue = RetryingQueue::new(
        &cloud.sim,
        &cloud.queue,
        cloud.recorder.clone(),
        policy.clone(),
        "resil.pred.queue",
    );
    let producer = cloud.client_host();
    {
        let q = rqueue.clone();
        let host = producer.clone();
        let sim = cloud.sim.clone();
        let mut failures = Vec::new();
        cloud
            .sim
            .block_on(async move {
                for i in 0..BATCHES {
                    let deadline = Deadline::within(&sim, SimDuration::from_secs(60));
                    let body = Payload::inline(format!("batch-{i:04}"));
                    if let Err(e) = q.send(&host, "in", &body, deadline).await {
                        failures.push(format!("send batch-{i:04}: {e}"));
                    }
                }
                failures
            })
            .into_iter()
            .for_each(|f| report.violation(format!("prediction: {f}")));
    }

    let sim = cloud.sim.clone();
    let idem2 = idem.clone();
    let host = producer.clone();
    let stuck = cloud.sim.block_on(async move {
        let deadline = Deadline::within(&sim, SimDuration::from_secs(1_800));
        loop {
            if let Ok(n) = idem2.committed_count(&host, "batch-").await {
                if n >= BATCHES {
                    return None;
                }
            }
            if deadline.is_expired(&sim) {
                let n = idem2.committed_count(&host, "batch-").await.unwrap_or(0);
                return Some(format!("{n}/{BATCHES} batches committed within budget"));
            }
            sim.sleep(SimDuration::from_millis(200)).await;
        }
    });
    if let Some(v) = stuck {
        report.violation(format!("prediction: {v}"));
    }
    trigger.stop();
    cloud.sim.run();

    // Exactly-once: every batch id committed exactly one result.
    let idem3 = idem.clone();
    let host = producer.clone();
    let committed = cloud
        .sim
        .block_on(async move { idem3.committed(&host, "batch-").await })
        .map(|items| items.len())
        .unwrap_or(0);
    report.check(committed == BATCHES, || {
        format!("prediction: {committed} committed effects for {BATCHES} batches")
    });
    cloud.sim.run();
    if let Some(v) = message_conservation(&cloud.recorder) {
        report.violation(format!("prediction: {v}"));
    }
    if let Some(v) = queue_conservation(&cloud.recorder, &cloud.queue) {
        report.violation(format!("prediction: {v}"));
    }
    if let Some(v) = ledger_consistent(&cloud.ledger) {
        report.violation(format!("prediction: {v}"));
    }
    report.probe.capture(&cloud);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_case_study_shape() {
        let r = run(&PredictionParams::quick(), 42);
        let l_s3 = r.latency_of("Lambda + S3 model").as_secs_f64() * 1e3;
        let l_opt = r
            .latency_of("Lambda optimized (model baked in, SQS out)")
            .as_secs_f64()
            * 1e3;
        let e_sqs = r.latency_of("EC2 + SQS").as_secs_f64() * 1e3;
        let e_zmq = r.latency_of("EC2 + ZeroMQ").as_secs_f64() * 1e3;
        // Paper: 559 / 447 / 13 / 2.8 ms.
        assert!((l_s3 - 559.0).abs() < 30.0, "lambda+s3 {l_s3} ms");
        assert!((l_opt - 447.0).abs() < 25.0, "lambda opt {l_opt} ms");
        assert!((e_sqs - 13.0).abs() < 2.0, "ec2+sqs {e_sqs} ms");
        assert!((e_zmq - 2.8).abs() < 0.9, "ec2+zmq {e_zmq} ms");
        // Orderings and headline ratios (27x, 127x).
        let r27 = l_opt / e_sqs;
        assert!((20.0..40.0).contains(&r27), "27x ratio got {r27}");
        let r127 = l_opt / e_zmq;
        assert!((90.0..190.0).contains(&r127), "127x ratio got {r127}");
        // Cost extrapolation: $1,584/hr vs ~$27.84/hr (57x).
        assert!((r.sqs_hourly_at_rate - 1584.0).abs() < 1.0);
        assert!(
            (40.0..80.0).contains(&r.cost_ratio()),
            "cost ratio {}",
            r.cost_ratio()
        );
        let rendered = r.render();
        assert!(rendered.contains("EC2 + ZeroMQ"));
    }
}
