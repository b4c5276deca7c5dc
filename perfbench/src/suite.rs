//! The `paper-suite` workload: every paper experiment once at its paper
//! (`Default`) parameters, then a serial seed list through every chaos
//! scenario, each seed run twice for the identity check. Also holds the
//! paper's reference values and the `paper_err_mean` score.

use std::time::Instant;

use faasim::experiments::{
    agents_cmp, bandwidth, cold_starts, data_shipping, election, prediction, table1, training,
};
use faasim_chaos::{
    experiment_scenarios, CrdtSync, FaultPlan, LinkChurn, NoisyNeighbor, QueuePipeline, Scenario,
    TraceReplay,
};

use crate::audit::{audit, fnv, same_run};
use crate::driver::drive;
use crate::hostspeed::HostSpeed;
use crate::replays::{print_probes, sub_seeds, LayerTotals, SimTotals};
use crate::spans;
use crate::stats::{median, peak_rss_mb};
use crate::{Checks, Metrics};

/// One headline number the paper states, with the row it is copied from.
pub struct Reference {
    /// Experiment that measures it.
    pub experiment: &'static str,
    /// What is measured, as the per-figure harness labels it.
    pub quantity: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Where the value is listed in this repository.
    pub source: &'static str,
}

const fn r(
    experiment: &'static str,
    quantity: &'static str,
    paper: f64,
    source: &'static str,
) -> Reference {
    Reference {
        experiment,
        quantity,
        paper,
        source,
    }
}

const T1: &str = "benches/table1_latency.rs; EXPERIMENTS.md E1";
const TR: &str = "benches/case_training.rs; EXPERIMENTS.md E3";
const PR: &str = "benches/case_prediction.rs; EXPERIMENTS.md E4";
const EL: &str = "benches/case_election.rs; EXPERIMENTS.md E5";
const BW: &str = "benches/bandwidth_packing.rs; EXPERIMENTS.md E6";
const AG: &str = "benches/ablation_agents.rs";

/// The paper's headline values, in the order [`run_experiments`] measures
/// them.
/// Paths are relative to `crates/bench/`.
pub const REFERENCES: &[Reference] = &[
    r("table1", "Func. Invoc. (1KB) mean ms", 303.0, T1),
    r("table1", "Lambda I/O (S3) mean ms", 108.0, T1),
    r("table1", "Lambda I/O (DynamoDB) mean ms", 11.0, T1),
    r("table1", "EC2 I/O (S3) mean ms", 106.0, T1),
    r("table1", "EC2 I/O (DynamoDB) mean ms", 11.0, T1),
    r("table1", "EC2 NW (0MQ) mean ms", 0.29, T1),
    r("table1", "Func. Invoc. (1KB) ratio to best", 1045.0, T1),
    r("table1", "Lambda I/O (S3) ratio to best", 372.0, T1),
    r("table1", "Lambda I/O (DynamoDB) ratio to best", 37.9, T1),
    r("table1", "EC2 I/O (S3) ratio to best", 365.0, T1),
    r("table1", "EC2 I/O (DynamoDB) ratio to best", 37.9, T1),
    r("table1", "EC2 NW (0MQ) ratio to best", 1.0, T1),
    r("training", "Lambda s/iteration", 3.08, TR),
    r("training", "EC2 s/iteration", 0.14, TR),
    r("training", "Lambda sequential executions", 31.0, TR),
    r("training", "Lambda total minutes", 465.0, TR),
    r("training", "EC2 total seconds", 1300.0, TR),
    r("training", "Lambda cost $", 0.29, TR),
    r("training", "EC2 cost $", 0.04, TR),
    r("training", "slowdown x", 21.0, TR),
    r("training", "cost ratio x", 7.3, TR),
    r("prediction", "Lambda + S3 model ms/batch", 559.0, PR),
    r("prediction", "Lambda optimized ms/batch", 447.0, PR),
    r("prediction", "EC2 + SQS ms/batch", 13.0, PR),
    r("prediction", "EC2 + ZeroMQ ms/batch", 2.8, PR),
    r("prediction", "SQS $/hr at 1M msg/s", 1584.0, PR),
    r("prediction", "EC2 instances at 1M msg/s", 290.0, PR),
    r("prediction", "EC2 fleet $/hr at 1M msg/s", 27.84, PR),
    r("prediction", "cost advantage x", 57.0, PR),
    r("prediction", "per-instance throughput msg/s", 3500.0, PR),
    r("election", "election round s", 16.7, EL),
    r("election", "% aggregate time electing", 1.9, EL),
    r("election", "steady KV requests/node/s", 8.0, EL),
    r("election", "1,000-node cluster $/hr", 450.0, EL),
    r("churn", "% time without agreement", 1.9, EL),
    r("bandwidth", "single function Mbps", 538.0, BW),
    r("bandwidth", "20 functions, per-function Mbps", 28.7, BW),
    r("agents_cmp", "blackboard round s", 16.7, AG),
];

/// Mean absolute relative deviation of `measured` from the paper values
/// of `refs` (aligned by index).
pub fn paper_err_mean(refs: &[&Reference], measured: &[f64]) -> f64 {
    assert_eq!(refs.len(), measured.len(), "one measurement per reference");
    let sum: f64 = refs
        .iter()
        .zip(measured)
        .map(|(r, m)| ((m - r.paper) / r.paper).abs())
        .sum();
    sum / refs.len() as f64
}

/// The references of one experiment.
pub fn references_of(experiment: &str) -> Vec<&'static Reference> {
    REFERENCES
        .iter()
        .filter(|r| r.experiment == experiment)
        .collect()
}

/// Table 1's headline numbers, in [`REFERENCES`] order.
pub fn measure_table1(res: &table1::Table1Result) -> Vec<f64> {
    let labels = [
        "Func. Invoc. (1KB)",
        "Lambda I/O (S3)",
        "Lambda I/O (DynamoDB)",
        "EC2 I/O (S3)",
        "EC2 I/O (DynamoDB)",
        "EC2 NW (0MQ)",
    ];
    let means = labels.iter().map(|l| res.mean_of(l).as_secs_f64() * 1e3);
    let ratios = labels.iter().map(|l| res.ratio_of(l));
    means.chain(ratios).collect()
}

/// The ten paper experiments, in run order: metric suffix and entry.
pub const EXPERIMENTS: [&str; 10] = [
    "table1",
    "cold_starts",
    "bandwidth",
    "memory_sweep",
    "data_shipping",
    "training",
    "prediction",
    "election",
    "churn",
    "agents_cmp",
];

/// What one run of the paper experiments produced.
pub struct PaperRun {
    /// Host seconds per experiment, in [`EXPERIMENTS`] order.
    pub secs: Vec<f64>,
    /// Rendered result tables, concatenated.
    pub tables: String,
    /// Recorder digests and bills of every cloud the experiments built.
    pub probes: Vec<String>,
    /// Headline numbers in [`REFERENCES`] order.
    pub measured: Vec<f64>,
}

fn timed<T>(secs: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    secs.push(t.elapsed().as_secs_f64());
    out
}

/// Run every paper experiment once at its paper parameters.
pub fn run_experiments(p: &Params, seed: u64) -> PaperRun {
    let mut secs = Vec::new();
    let t1 = timed(&mut secs, || table1::run(&p.table1, seed));
    let cs = timed(&mut secs, || cold_starts::run(&p.cold_starts, seed));
    let bw = timed(&mut secs, || bandwidth::run(&p.bandwidth, seed));
    let ms = timed(&mut secs, || {
        bandwidth::run_memory_sweep(&p.memory_sweep, seed)
    });
    let ds = timed(&mut secs, || data_shipping::run(&p.data_shipping, seed));
    let tr = timed(&mut secs, || training::run(&p.training, seed));
    let pr = timed(&mut secs, || prediction::run(&p.prediction, seed));
    let el = timed(&mut secs, || election::run(&p.election, seed));
    let ch = timed(&mut secs, || election::run_churn(&p.churn, seed));
    let ag = timed(&mut secs, || agents_cmp::run(&p.agents_cmp, seed));

    let mut measured = measure_table1(&t1);
    measured.extend([
        tr.lambda.per_iteration.as_secs_f64(),
        tr.ec2.per_iteration.as_secs_f64(),
        tr.lambda.executions as f64,
        tr.lambda.total_time.as_secs_f64() / 60.0,
        tr.ec2.total_time.as_secs_f64(),
        tr.lambda.compute_cost,
        tr.ec2.compute_cost,
        tr.slowdown(),
        tr.cost_ratio(),
    ]);
    for label in [
        "Lambda + S3 model",
        "Lambda optimized (model baked in, SQS out)",
        "EC2 + SQS",
        "EC2 + ZeroMQ",
    ] {
        measured.push(pr.latency_of(label).as_secs_f64() * 1e3);
    }
    measured.extend([
        pr.sqs_hourly_at_rate,
        pr.ec2_instances_at_rate as f64,
        pr.ec2_hourly_at_rate,
        pr.cost_ratio(),
        pr.ec2_throughput_per_instance,
        el.mean_round.as_secs_f64(),
        el.fraction_electing * 100.0,
        el.requests_per_node_second,
        el.hourly_cost_extrapolated,
        ch.fraction * 100.0,
        bw.at(1).per_function_mbps,
        bw.at(20).per_function_mbps,
        ag.blackboard_round.as_secs_f64(),
    ]);

    let tables = [
        t1.render(),
        cs.render("cold starts"),
        bw.render(),
        ms.render(),
        ds.render(),
        tr.render(),
        pr.render(),
        el.render(&p.election),
        format!(
            "churn: window {:?} disturbed {:?} fraction {} rounds {}\n",
            ch.window, ch.disturbed, ch.fraction, ch.rounds
        ),
        ag.render(),
    ]
    .concat();
    let probes = [
        &t1.probe, &cs.probe, &bw.probe, &ms.probe, &ds.probe, &tr.probe, &pr.probe, &el.probe,
        &ch.probe, &ag.probe,
    ]
    .iter()
    .flat_map(|p| p.digests.iter().chain(&p.bills).cloned())
    .collect();
    PaperRun {
        secs,
        tables,
        probes,
        measured,
    }
}

/// Every experiment's paper parameters.
pub struct Params {
    table1: table1::Table1Params,
    cold_starts: cold_starts::ColdStartParams,
    bandwidth: bandwidth::BandwidthParams,
    memory_sweep: bandwidth::MemorySweepParams,
    data_shipping: data_shipping::DataShippingParams,
    training: training::TrainingParams,
    prediction: prediction::PredictionParams,
    election: election::ElectionParams,
    churn: election::ChurnParams,
    agents_cmp: agents_cmp::AgentsCmpParams,
}

/// The suite's inputs: paper parameters and every chaos scenario.
pub struct Suite {
    /// Paper parameters of the ten experiments.
    pub params: Params,
    /// CrdtSync, QueuePipeline, LinkChurn, NoisyNeighbor calm/hostile,
    /// TraceReplay small calm/hostile, then the 16 experiment twins.
    pub scenarios: Vec<Box<dyn Scenario>>,
}

/// Build the suite's parameters and scenarios (its set-up).
pub fn build() -> Suite {
    let mut scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(CrdtSync::chaotic()),
        Box::new(QueuePipeline::chaotic()),
        Box::new(LinkChurn::default()),
        Box::new(NoisyNeighbor::default()),
        Box::new(NoisyNeighbor::chaotic()),
        Box::new(TraceReplay::small_calm()),
        Box::new(TraceReplay::small_hostile()),
    ];
    for hostile in [false, true] {
        for s in experiment_scenarios(hostile) {
            scenarios.push(Box::new(s));
        }
    }
    Suite {
        params: Params {
            table1: Default::default(),
            cold_starts: Default::default(),
            bandwidth: Default::default(),
            memory_sweep: Default::default(),
            data_shipping: Default::default(),
            training: Default::default(),
            prediction: Default::default(),
            election: Default::default(),
            churn: Default::default(),
            agents_cmp: Default::default(),
        },
        scenarios,
    }
}

/// Metric-name form of a scenario name (`noisy-neighbor/calm` becomes
/// `noisy-neighbor-calm`).
pub fn scenario_key(name: &str) -> String {
    name.replace('/', "-")
}

/// What one suite pass produced.
pub struct SuitePass {
    /// The paper experiments.
    pub paper: PaperRun,
    /// Host seconds of each scenario over all seeds, in scenario order.
    pub scenario_secs: Vec<f64>,
    /// Seed runs (each seed of each scenario counts once).
    pub seed_runs: u64,
    /// Seed runs that broke an invariant or the identity check.
    pub failed_runs: u64,
    /// Invariant violations and identity mismatches.
    pub violations: Vec<String>,
    /// Function executions (`faas.invoke.cold + warm`) over every cloud.
    pub invocations: u64,
    /// Hash of the rendered tables and every digest and bill.
    pub fingerprint: u64,
}

fn invocations_in(digest: &str) -> u64 {
    digest
        .lines()
        .filter(|l| {
            l.starts_with("counter faas.invoke.cold =")
                || l.starts_with("counter faas.invoke.warm =")
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// One full pass: experiments, then every seed through every scenario
/// twice.
pub fn run_pass(suite: &Suite, seed: u64, seeds: &[u64]) -> SuitePass {
    let paper = run_experiments(&suite.params, seed);
    let mut parts: Vec<String> = vec![paper.tables.clone()];
    parts.extend(paper.probes.iter().cloned());
    let mut invocations: u64 = paper.probes.iter().map(|d| invocations_in(d)).sum();
    let mut scenario_secs = Vec::new();
    let mut violations = Vec::new();
    let mut seed_runs = 0;
    let mut failed_runs = 0;
    for sc in &suite.scenarios {
        let t = Instant::now();
        for &s in seeds {
            let first = sc.run(s);
            let second = sc.run(s);
            seed_runs += 1;
            let before = violations.len();
            for v in &first.violations {
                violations.push(format!("{} seed {s}: {v}", sc.name()));
            }
            if first != second {
                violations.push(format!("{} seed {s}: two runs differ", sc.name()));
            }
            if violations.len() > before {
                failed_runs += 1;
            }
            invocations += invocations_in(&first.digest) + invocations_in(&second.digest);
            parts.push(first.digest);
            parts.push(first.bill);
        }
        scenario_secs.push(t.elapsed().as_secs_f64());
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    SuitePass {
        fingerprint: fnv(&refs),
        paper,
        scenario_secs,
        seed_runs,
        failed_runs,
        violations,
        invocations,
    }
}

/// Seeds of the chaos sweep (the workload seed first).
const SUITE_SEEDS: usize = 8;

fn record_pass(checks: &mut Checks, pass: &SuitePass) {
    checks.record_many(pass.seed_runs + 1, pass.failed_runs, &pass.violations);
}

/// Batches of 100 set-ups timed after each timed pass.
const SETUP_BATCHES_PER_PASS: usize = 5;

/// Untraced run: a warm-up pass (which also gives peak memory), timed
/// suite passes with set-up timed between them, all in reference seconds
/// (see [`HostSpeed`]), then the simulated metrics of the suite's calm
/// trace replays.
pub fn untraced(seed: u64, seconds: f64, checks: &mut Checks, m: &mut Metrics) {
    let seeds = sub_seeds(seed, SUITE_SEEDS);
    let suite = build();
    // Warm-up pass; the process is fresh, so its peak memory is that of
    // one pass.
    let first = run_pass(&suite, seed, &seeds);
    record_pass(checks, &first);
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    // Set-up: building the parameters and scenarios, timed in batches
    // because one build takes microseconds, a few batches after every
    // timed pass, so that its median spans the whole run.
    let mut setups = Vec::new();
    let mut speed = HostSpeed::new();
    let mut raw = Vec::new();
    let mut walls = Vec::new();
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds || walls.is_empty() {
        let t0 = Instant::now();
        let mut pass = run_pass(&suite, seed, &seeds);
        let secs = t0.elapsed().as_secs_f64();
        raw.push(secs);
        walls.push(secs * speed.scale_since_last());
        if pass.fingerprint != first.fingerprint {
            pass.violations
                .push("a repetition changed the fingerprint".to_owned());
            pass.failed_runs += 1;
        }
        record_pass(checks, &pass);
        for _ in 0..SETUP_BATCHES_PER_PASS {
            let t = Instant::now();
            for _ in 0..100 {
                std::hint::black_box(build());
            }
            setups.push(t.elapsed().as_secs_f64() / 100.0 * speed.scale_now());
        }
    }
    m.put("setup_s", median(&setups));
    let wall = median(&walls);
    println!(
        "  {} timed passes, {} seed runs and {} function executions per pass",
        walls.len(),
        first.seed_runs,
        first.invocations
    );
    println!("  pass host seconds: {raw:?}");
    println!("  the same in reference seconds: {walls:?}");
    print_probes(&speed);
    m.put("wall_s", wall);
    m.put("inv_per_s", first.invocations as f64 / wall);
    m.put(
        "ok_share",
        1.0 - first.failed_runs as f64 / first.seed_runs.max(1) as f64,
    );
    let refs: Vec<&Reference> = REFERENCES.iter().collect();
    for (r, got) in refs.iter().zip(&first.paper.measured) {
        println!(
            "  paper {:<11} {:<36} paper {:>9} measured {:>12.4} ({:+.1}%)  [{}]",
            r.experiment,
            r.quantity,
            r.paper,
            got,
            (got - r.paper) / r.paper * 100.0,
            r.source
        );
    }
    m.put(
        "paper_err_mean",
        paper_err_mean(&refs, &first.paper.measured),
    );

    let calm = TraceReplay::small_calm();
    let mut totals = SimTotals::default();
    for &s in &seeds {
        totals.add(&calm.replay(s));
    }
    totals.report(m);
    println!("  fingerprint seed={seed} {:016x}", first.fingerprint);
}

/// Traced run: one pass timed per experiment and per scenario, then the
/// traced driver over the suite's calm trace replays.
pub fn traced(seed: u64, checks: &mut Checks, m: &mut Metrics) -> String {
    let seeds = sub_seeds(seed, SUITE_SEEDS);
    let suite = build();
    let pass = run_pass(&suite, seed, &seeds);
    record_pass(checks, &pass);
    for (e, secs) in EXPERIMENTS.iter().zip(&pass.paper.secs) {
        m.put(format!("core.{e}_s"), *secs);
    }
    for (sc, secs) in suite.scenarios.iter().zip(&pass.scenario_secs) {
        m.put(
            format!("chaos.{}_ms_per_seed", scenario_key(sc.name())),
            secs * 1e3 / seeds.len() as f64,
        );
    }
    m.put("chaos.violations", pass.violations.len() as f64);

    let calm = TraceReplay::small_calm();
    let mut totals = LayerTotals::default();
    let mut raw = String::new();
    for &s in &seeds {
        let t = Instant::now();
        let want = calm.replay(s);
        let untraced_s = t.elapsed().as_secs_f64();
        spans::start();
        let d = drive(calm.config(), s, &|c| FaultPlan::calm().apply(c));
        let aggs = spans::stop();
        raw.push_str(&spans::raw_spans_tsv());
        let mut bad = same_run(&want, &d.outcome);
        bad.extend(audit(&d.outcome, &d.snapshot, true));
        checks.record(bad);
        totals.add(d, &aggs, untraced_s);
    }
    totals.report(m);
    println!("  fingerprint seed={seed} {:016x}", pass.fingerprint);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_agreement_scores_zero() {
        let refs: Vec<&Reference> = REFERENCES.iter().collect();
        let paper: Vec<f64> = refs.iter().map(|r| r.paper).collect();
        assert_eq!(paper_err_mean(&refs, &paper), 0.0);
        let mut off = paper.clone();
        off[0] *= 1.5;
        let want = 0.5 / refs.len() as f64;
        assert!((paper_err_mean(&refs, &off) - want).abs() < 1e-12);
    }

    #[test]
    fn every_reference_has_a_source_and_a_nonzero_value() {
        for r in REFERENCES {
            assert!(r.paper > 0.0, "{}", r.quantity);
            assert!(!r.source.is_empty());
            assert!(EXPERIMENTS.contains(&r.experiment), "{}", r.experiment);
        }
        assert_eq!(references_of("table1").len(), 12);
    }

    #[test]
    fn invocations_are_read_from_digest_counters() {
        let d = "counter faas.invoke.cold = 3\ncounter faas.invoke.warm = 4\ncounter x = 9\n";
        assert_eq!(invocations_in(d), 7);
    }
}
